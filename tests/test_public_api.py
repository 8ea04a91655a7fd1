"""The package's public API: every name it exports resolves."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tubeflow

SUBMODULES = ("coupling", "errors", "expansion", "geometry", "polydisc",
              "pressure", "verify")
PRESETS = Path(__file__).resolve().parent.parent / "presets"


def test_every_name_in_all_resolves():
    missing = [name for name in tubeflow.__all__
               if not hasattr(tubeflow, name)]
    assert missing == []
    namespace = {}
    exec("from tubeflow import *", namespace)
    assert set(tubeflow.__all__) <= set(namespace)


def test_each_name_is_its_defining_module_attribute():
    for name in tubeflow.__all__:
        obj = getattr(tubeflow, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
        assert obj.__module__.startswith("tubeflow."), name


def test_name_follows_a_rebound_module_attribute(monkeypatch):
    # the package keeps no copy, so a patch of the defining module shows
    sentinel = object()
    monkeypatch.setattr(importlib.import_module("tubeflow.polydisc"),
                        "disc_integral", sentinel)
    assert tubeflow.disc_integral is sentinel


def test_submodules_resolve_after_a_bare_import():
    code = ("import tubeflow; print(' '.join(getattr(tubeflow, n).__name__ "
            f"for n in {SUBMODULES!r}))")
    assert _fresh(code).split() == [f"tubeflow.{n}" for n in SUBMODULES]


def test_dir_lists_every_export():
    assert set(tubeflow.__all__) <= set(dir(tubeflow))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tubeflow.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from tubeflow import no_such_name", {})


def test_exact_layer_loads_no_scipy():
    # scipy.linalg alone took 0.24-0.37 s to import, and the rational
    # layer never calls it
    code = """
import sys
from fractions import Fraction as F
from tubeflow import (StationData, FluidParams, BodyForce, ExpansionFields,
                      evaluate_station, verify_coefficient_tables, DiscPoly,
                      TrigSeries, disc_integral, restrict_to_boundary)
assert verify_coefficient_tables().all_match
fields = evaluate_station(StationData(rho0=1, nu=F(1, 2), R=F(3, 2), dp0=-1,
                                      b2=F(2, 7), b3=F(1, 5)))
assert isinstance(fields, ExpansionFields)
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    assert _fresh(code) == "[]"


def test_verdict_layer_loads_no_axial_solver():
    # the verdict checks read solved arrays only, so they rest on the exact
    # layer and need neither the axial solves nor scipy's LAPACK
    code = """
import sys
from tubeflow import check_compatibility, check_mass_conservation, flow_rates
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'
             or m in ('tubeflow.pressure', 'tubeflow.coupling')))
"""
    assert _fresh(code) == "[]"


# a rigid run's three or four axial solves use the Python dgtsv port, so
# neither a rigid solve nor the rigid sweep loads scipy; the elastic wall's
# fixed point solves with LAPACK's, imported while its wall law is built

SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


@pytest.mark.parametrize("command,preset", [("solve", "straight_rigid"),
                                            ("sweep", "helix_swirl")])
def test_rigid_commands_load_no_scipy(command, preset, tmp_path):
    config = PRESETS / f"{preset}.cfg"
    code = f"""
import sys
from tubeflow.cli import main
assert main([{command!r}, "--config", {str(config)!r},
             "--out", {str(tmp_path)!r}]) == 0
print({SCIPY_MODULES})
"""
    assert _fresh(code) == "[]"


def test_elastic_wall_law_loads_lapack_in_set_up():
    code = f"""
import sys
from tubeflow.cli import RunConfig
cfg = RunConfig.from_file({str(PRESETS / "elastic_pulse.cfg")!r})
before = {SCIPY_MODULES}
cfg.build_wall_law()
print(before, "scipy.linalg.lapack" in sys.modules)
"""
    assert _fresh(code) == "[] True"


def _fresh(code):
    """Run ``code`` in a new interpreter on this checkout; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"),
         *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()
