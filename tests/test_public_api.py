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
TESTS = Path(__file__).resolve().parent
PRESETS = TESTS.parent / "presets"


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
    # scipy.linalg alone took 0.24-0.37 s to import and numpy 0.10 s, and
    # the rational layer calls neither
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
print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))
"""
    assert _fresh(code) == "[]"


def test_exact_layer_runs_with_numpy_blocked():
    # a None entry makes every import of numpy raise ImportError
    code = f"""
import runpy, sys
sys.modules["numpy"] = None
runpy.run_path({str(TESTS / "exact_stdlib_check.py")!r}, run_name="__main__")
"""
    assert _fresh(code).endswith(", 0 failed")


def test_exact_results_do_not_depend_on_numpy_being_loaded():
    # the float-domain test looks for numpy arrays only once numpy is
    # loaded; a Fraction station (and its float rounding) must come out
    # the same either way
    code = f"""
import sys
from dataclasses import fields
sys.path.insert(0, {str(TESTS)!r})
from exact_stdlib_check import make_exact_station
from tubeflow.expansion import evaluate_station
from tubeflow.polydisc import (DiscPoly, disc_integral, polar_fourier,
                               restrict_to_boundary)

def reprs():
    f, out = evaluate_station(make_exact_station()), []
    for value in (getattr(f, fld.name) for fld in fields(f)):
        for p in value if isinstance(value, tuple) else (value,):
            if isinstance(p, DiscPoly):
                for q in (p, p.to_float()):
                    out.append(repr((q, q.max_abs(), disc_integral(q),
                                     polar_fourier(q),
                                     restrict_to_boundary(q))))
            else:
                out.append(repr(p))
    return out

before = reprs()
assert "numpy" not in sys.modules
import numpy
print(len(before), before == reprs())
"""
    count, same = _fresh(code).split()
    assert int(count) > 20 and same == "True"


def test_verdict_layer_loads_no_axial_solver():
    # the verdict checks read solved arrays only, so they rest on the exact
    # layer and need neither the axial solves nor their LAPACK
    code = """
import sys
from tubeflow import check_compatibility, check_mass_conservation, flow_rates
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'
             or m in ('tubeflow.pressure', 'tubeflow.coupling')))
"""
    assert _fresh(code) == "[]"


# every axial solve calls the dgtsv of the LAPACK numpy has loaded, or the
# port with its bits, so no command that solves loads scipy: not a rigid
# solve, not the rigid sweep, not the elastic wall's fixed point

SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


@pytest.mark.parametrize("command,preset", [("solve", "straight_rigid"),
                                            ("sweep", "helix_swirl"),
                                            ("solve", "elastic_pulse")])
def test_solve_and_sweep_load_no_scipy(command, preset, tmp_path):
    config = PRESETS / f"{preset}.cfg"
    code = f"""
import sys
from tubeflow.cli import main
assert main([{command!r}, "--config", {str(config)!r},
             "--out", {str(tmp_path)!r}]) == 0
print({SCIPY_MODULES})
"""
    assert _fresh(code) == "[]"


def test_elastic_wall_law_binds_lapack_without_scipy():
    # the set-up of an elastic run binds numpy's LAPACK dgtsv, as it is
    # bound in this process, and loads no scipy module to do it
    from tubeflow import pressure
    code = f"""
import sys
from tubeflow.cli import RunConfig
from tubeflow import pressure
cfg = RunConfig.from_file({str(PRESETS / "elastic_pulse.cfg")!r})
cfg.build_wall_law()
bound = pressure._DGTSV
print(bound is not None and bound.__name__, {SCIPY_MODULES})
"""
    name = pressure._DGTSV is not None and pressure._DGTSV.__name__
    assert _fresh(code) == f"{name} []"


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
