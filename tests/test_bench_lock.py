"""The benchmark's behaviour lock, checked by the test suite.

``bench/run.py`` checks every file a default-seed pass writes against the
sha256 digests stored in ``bench/digests.json``.  These tests make the same
passes in-process, through ``bench/workloads.py``, so a change that moves
one output bit fails here too, not only in a benchmark run.  The sweep
runs at full size against its stored digest, and again at the reduced
size of ``bench/run.py --smoke``; every case of both must pass
verification.  Nothing under ``bench/`` is modified.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

STORED = json.loads((BENCH / "digests.json").read_text())


@pytest.mark.parametrize("workload", ["solve_helix", "pulse_elastic",
                                      "exact_verify", "sweep_helix"])
def test_default_seed_pass_writes_stored_digests(workload, tmp_path):
    assert STORED["seed"] == workloads.DEFAULT_SEED
    stored = STORED["workloads"][workload]
    state = workloads.setup(
        workload, workloads.make_inputs(workload, workloads.DEFAULT_SEED))
    result = workloads.run_pass(workload, state, tmp_path / "out")
    workloads.check_files(result, stored, stored)
    assert result.failed == 0, result.problems
    assert result.attempted > len(stored)


def test_reduced_sweep_passes_every_case(tmp_path):
    inputs = workloads.make_inputs("sweep_helix", workloads.DEFAULT_SEED,
                                   smoke=True)
    cfg = workloads.setup("sweep_helix", inputs)
    result = workloads.run_pass("sweep_helix", cfg, tmp_path / "out")
    assert result.attempted == workloads.sweep_cases(cfg) == 3
    assert result.failed == 0, result.problems
    assert list(result.digests) == ["sweep.csv"]
