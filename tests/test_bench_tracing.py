"""The benchmark's span tracer still finds what it counts in tubeflow.

``bench/tracing.py`` counts coupling steps as ``coupling.advance_time_step``
spans, the p0 solves nested under them, and divergences as those spans
ending in a ``CouplingDivergenceError``.  These tests install its tracer
around the reduced-size elastic pulse of ``bench/run.py --smoke`` and its
soft-wall (E = 100) divergence, so a rename or restructuring in ``src/``
that would blind those metrics fails here, in a second rather than in the
full smoke run.  Nothing under ``bench/`` is modified.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import tubeflow
from tubeflow.errors import CouplingDivergenceError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_pass(config_text, outdir):
    """One traced ``pulse_elastic`` pass; returns (pass result, metrics)."""
    cfg = workloads.setup("pulse_elastic", {"config": config_text})
    tracer = tracing.Tracer(tubeflow)
    tracer.install()
    try:
        result = workloads.run_pass("pulse_elastic", cfg, outdir)
        metrics = tracer.finish_pass()
    finally:
        tracer.uninstall()
    return result, metrics


@pytest.fixture
def smoke_config():
    return workloads.make_inputs("pulse_elastic", 1, smoke=True)["config"]


def test_elastic_run_counts_steps_and_solves(smoke_config, tmp_path,
                                            monkeypatch):
    # an independent count of the sweeps: each runs the law kernel once
    import tubeflow.coupling as coupling_mod
    kernel, sweeps_seen = coupling_mod._elastic_law, []

    def spy(*args):
        sweeps_seen.append(1)
        return kernel(*args)

    monkeypatch.setattr(coupling_mod, "_elastic_law", spy)
    result, m = traced_pass(smoke_config, tmp_path / "out")
    assert result.failed == 0
    assert m["coupling.steps"] == 20  # t_end 1 at dt 0.05
    assert m["coupling.p0_solves_per_step"] > 0
    assert m["coupling.divergences"] == 0
    # every p0 solve is a wall sweep, except the two of the one final
    # pressure solve (the final wall and the wall before it); a sweep that
    # skipped or doubled its solve_p0 would move the tracer's count
    sweeps = round(m["coupling.p0_solves_per_step"] * m["coupling.steps"])
    assert sweeps == len(sweeps_seen) > 0
    assert m["pressure.p0_solves"] == len(sweeps_seen) + 2
    # besides the p0 solves, one p1 and one p02 solve per pipeline
    assert m["pressure.bvp_solves"] == m["pressure.p0_solves"] + 2
    assert m["cli.pipelines"] == 1


def test_soft_wall_divergence_is_counted(smoke_config, tmp_path):
    soft = smoke_config.replace("wall.E = 2000.0", "wall.E = 100")
    assert soft != smoke_config
    result, m = traced_pass(soft, tmp_path / "out")
    assert result.failed == 1
    assert CouplingDivergenceError.__name__ in result.problems[0]
    assert m["coupling.divergences"] == 1
    assert m["coupling.steps"] >= 1


# Counted names whose function is gone: ``expansion.point_evals`` reads 0
# on every workload until the next benchmark change (ROADMAP item 2), as
# CHANGES.md records under FOUND.
GONE = {"expansion.PhysicalSolution.velocity",
        "expansion.PhysicalSolution.pressure"}


def test_every_counted_name_is_in_the_package():
    # the "layer.Qualname" literals the tracer counts or hooks, less the
    # metric names it reports: a rename in src/ would zero a metric
    source = Path(tracing.__file__).read_text()
    literals = {node.value for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)}
    names = {s for s in literals
             if s.split(".", 1)[0] in tracing.LAYERS
             and re.fullmatch(r"\w+(\.\w+)+", s)} - set(tracing.PER_LAYER_UNITS)
    assert "coupling.advance_time_step" in names
    assert GONE <= names
    missing = []
    for name in sorted(names - GONE):
        layer, *qualname = name.split(".")
        obj = importlib.import_module(f"tubeflow.{layer}")
        try:
            for part in qualname:
                obj = getattr(obj, part)
        except AttributeError:
            missing.append(name)
    assert not missing
