"""Byte lock on the output bundles of the shipped presets.

Pins the sha256 of every file that ``tubeflow solve`` writes for each
preset in ``presets/``, of ``solution_station*.csv`` at ``--order 0`` and
``--order 1`` for ``curved_rigid`` and ``helix_swirl``, of ``sweep.csv``
for ``helix_swirl``, of ``tables_report.txt`` from ``tubeflow tables``,
of every file each script in ``scripts/`` writes, of every file but
``run_meta.txt`` (which records the curve file's path) of a solve on the
sampled parabola y = x^2 / 2, whose curvature varies along the axis, and
of the failing ``verify_report.txt`` (exit 2) of a soft elastic wall.  A
refactor that claims to keep behaviour keeps these digests.  A change
that alters bytes on purpose re-records them with
``python tests/test_bundle_digests.py`` and says why in CHANGES.md.

The digests hold for one platform: numpy 2.4.6 on x86-64 with AVX-512.
Another numpy build or SIMD level may round differently in the last bit
(scalar and array powers already differ on this one), so a mismatch on
another platform is not by itself a regression.
"""

import hashlib
import json
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tubeflow.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGEST_FILE = Path(__file__).with_name("bundle_digests.json")

def write_parabola_config(where):
    """Curve file and config of a steady solve on y = x^2 / 2, 0 <= x <= 1,
    written into ``where``; returns the config path."""
    x = np.linspace(0.0, 1.0, 400)
    y = x**2 / 2
    ds = np.hypot(np.gradient(x), np.gradient(y))
    s = np.cumsum(ds) - ds[0]
    where.mkdir(parents=True, exist_ok=True)
    curve = where / "parabola.csv"
    curve.write_text("s,x,y,z\n" + "".join(
        f"{a!r},{b!r},{c!r},0.0\n" for a, b, c in
        zip(s.tolist(), x.tolist(), y.tolist())))
    cfg = where / "parabola.cfg"
    cfg.write_text(f"geometry.kind = sampled\ngeometry.file = {curve}\n"
                   f"geometry.length = {float(s[-1])!r}\neps = 0.05\n"
                   "grid.n_s1 = 65\ngrid.n_disc = 8\n"
                   "output.stations = 0.2, 0.9\n")
    return cfg


def write_soft_wall_config(where):
    """Config of a steady straight pipe whose soft elastic wall (E = 20)
    fails the u1 compatibility check, written into ``where``; returns the
    config path."""
    where.mkdir(parents=True, exist_ok=True)
    cfg = where / "soft_wall.cfg"
    cfg.write_text("geometry.kind = straight\nbc.p0.inlet = 8\n"
                   "bc.p0.outlet = 0.0\ngrid.n_s1 = 33\ngrid.n_disc = 8\n"
                   "output.stations = 0.5\nwall.law = elastic\n"
                   "wall.E = 20\nwall.h0 = 0.1\n")
    return cfg


# case -> (subcommand, preset name | script name | config writer, --order
# (solve and fields only), glob of the pinned files, exit code)
CASES = {
    **{name: ("solve", name, 2, "*", 0)
       for name in ("curved_rigid", "elastic_pulse", "helix_swirl",
                    "straight_rigid")},
    **{f"{name}_order{k}": ("solve", name, k, "solution_station*.csv", 0)
       for name in ("curved_rigid", "helix_swirl") for k in (0, 1)},
    "helix_swirl_sweep": ("sweep", "helix_swirl", None, "sweep.csv", 0),
    "tables": ("tables", None, None, "tables_report.txt", 0),
    "sampled_parabola": ("solve", write_parabola_config, 2, "*", 0),
    "soft_wall_verify": ("verify", write_soft_wall_config, None,
                         "verify_report.txt", 2),
    **{f"script_{p.stem}": ("script", p.stem, None, "*", 0)
       for p in sorted((ROOT / "scripts").glob("*.py"))},
}


def run_case(case, out):
    """Run one case into ``out``; return its exit code and file digests."""
    command, preset, order, pattern, _ = CASES[case]
    out = Path(out)
    skip = ()
    if command == "script":
        script = ROOT / "scripts" / f"{preset}.py"
        code = runpy.run_path(str(script))["main"](str(out))
    elif command == "tables":
        code = main(["tables", "--out", str(out)])
    else:
        if callable(preset):
            cfg = preset(out.parent / f"{case}_input")
            skip = ("run_meta.txt",)  # it records the paths in the config
        else:
            cfg = ROOT / "presets" / f"{preset}.cfg"
        order = () if order is None else ("--order", str(order))
        code = main([command, "--config", str(cfg), "--out", str(out),
                     *order])
    return code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.glob(pattern)) if p.name not in skip}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bundle_digests(case, tmp_path):
    pinned = json.loads(DIGEST_FILE.read_text())[case]
    code, digests = run_case(case, tmp_path / "out")
    assert code == CASES[case][-1]
    assert digests == pinned


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {case: run_case(case, Path(tmp) / case)[1]
                    for case in sorted(CASES)}
    DIGEST_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                           + "\n")
    sys.stdout.write(f"recorded {len(recorded)} cases in {DIGEST_FILE}\n")
