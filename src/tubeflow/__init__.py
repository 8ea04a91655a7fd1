"""Reduced-order modeling of unsteady viscous flow in curved elastic pipes.

An asymptotic expansion in the radius-to-length ratio reduces the
incompressible Navier-Stokes system in a moving tube to a hierarchy of 1D
pressure problems plus closed-form cross-section velocity fields, with an
exact polynomial verification layer on the unit disc.

``import tubeflow`` loads no submodule.  Each one loads the first time one
of its names is read: ``from tubeflow import DiscPoly`` loads ``polydisc``
and numpy only.  No submodule loads scipy at import.  The exact layer
(``expansion``, ``polydisc``) never loads it, nor does ``verify``, which
rests on it alone.  ``pressure`` solves the axial problems with a Python
port of LAPACK's ``dgtsv``, so a rigid ``tubeflow solve`` or ``sweep``
loads no scipy; building an ``ElasticWall`` loads scipy's LAPACK, whose
``dgtsv`` solves the wall's fixed point, and a sampled center curve loads
``scipy.interpolate``.
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
