"""Reduced-order modeling of unsteady viscous flow in curved elastic pipes.

An asymptotic expansion in the radius-to-length ratio reduces the
incompressible Navier-Stokes system in a moving tube to a hierarchy of 1D
pressure problems plus closed-form cross-section velocity fields, with an
exact polynomial verification layer on the unit disc.

``import tubeflow`` loads no submodule.  Each one loads the first time one
of its names is read: ``from tubeflow import DiscPoly`` loads ``polydisc``
only.  The exact layer (``expansion``, ``polydisc``) imports no numpy, so
exact evaluation needs the standard library alone; numpy loads with
``nodes`` (node arrays, polar grids) or when a float path of ``expansion``
runs.  No submodule loads scipy at import.  The exact layer never loads
it, nor does ``verify``, which rests on it and ``nodes`` alone.
Every axial solve, rigid or in the elastic wall's fixed point, calls
LAPACK's ``dgtsv`` from the LAPACK numpy itself loads (``pressure``
binds it with ctypes); where numpy exports no 64-bit-int ``dgtsv``, the
Python port ``pressure._gtsv``, with the same bits, solves instead.  So
``tubeflow solve`` loads no scipy on any preset.  scipy serves only a
sampled center curve (``CubicSpline``, from ``scipy.interpolate``) and
the tests.
"""

import importlib

__version__ = "0.1.0"

# defining submodule -> the names the package exports from it
_EXPORTS = {
    "coupling": ("ElasticWall", "RigidWall", "WallState", "advance_time_step",
                 "apply_wall_law"),
    "expansion": ("BodyForce", "ExpansionFields", "FluidParams", "StationData",
                  "evaluate_station", "verify_coefficient_tables"),
    "geometry": ("CenterCurve", "check_invertibility"),
    "polydisc": ("DiscPoly", "TrigSeries", "disc_integral",
                 "restrict_to_boundary"),
    "pressure": ("PressureBC", "PressureExpansion", "solve_p0"),
    "verify": ("check_compatibility", "check_mass_conservation", "flow_rates"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
# submodules that stay attributes of a bare ``import tubeflow``
_SUBMODULES = (*_EXPORTS, "errors")

__all__ = sorted(_OWNER)


def __getattr__(name):
    # not cached here: ``tubeflow.X`` is whatever the defining module holds
    # now, so rebinding the module attribute (a patch, a tracer) shows
    if name in _OWNER:
        module = importlib.import_module(f".{_OWNER[name]}", __name__)
        return getattr(module, name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
