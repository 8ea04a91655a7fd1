"""Byte lock on the output bundles of the shipped presets.

Pins the sha256 of every file that ``tubeflow solve`` writes for each
preset in ``presets/``, of ``solution_station*.csv`` at ``--order 0`` and
``--order 1`` for ``curved_rigid`` and ``helix_swirl``, and of
``sweep.csv`` for ``helix_swirl``.  A refactor that claims to keep
behaviour keeps these digests.  A change that alters bytes on purpose
re-records them with ``python tests/test_bundle_digests.py`` and says why
in CHANGES.md.

The digests hold for one platform: numpy 2.4.6 on x86-64 with AVX-512.
Another numpy build or SIMD level may round differently in the last bit
(scalar and array powers already differ on this one), so a mismatch on
another platform is not by itself a regression.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from tubeflow.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGEST_FILE = Path(__file__).with_name("bundle_digests.json")

# case -> (subcommand, preset, --order, glob of the pinned files)
CASES = {
    **{name: ("solve", name, 2, "*")
       for name in ("curved_rigid", "elastic_pulse", "helix_swirl",
                    "straight_rigid")},
    **{f"{name}_order{k}": ("solve", name, k, "solution_station*.csv")
       for name in ("curved_rigid", "helix_swirl") for k in (0, 1)},
    "helix_swirl_sweep": ("sweep", "helix_swirl", 2, "sweep.csv"),
}


def run_case(case, out):
    """Run one case into ``out``; return its exit code and file digests."""
    command, preset, order, pattern = CASES[case]
    code = main([command, "--config", str(ROOT / "presets" / f"{preset}.cfg"),
                 "--out", str(out), "--order", str(order)])
    return code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(Path(out).glob(pattern))}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bundle_digests(case, tmp_path):
    pinned = json.loads(DIGEST_FILE.read_text())[case]
    code, digests = run_case(case, tmp_path / "out")
    assert code == 0
    assert digests == pinned


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {case: run_case(case, Path(tmp) / case)[1]
                    for case in sorted(CASES)}
    DIGEST_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                           + "\n")
    sys.stdout.write(f"recorded {len(recorded)} cases in {DIGEST_FILE}\n")
