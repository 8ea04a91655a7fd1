"""Reduced-order modeling of unsteady viscous flow in curved elastic pipes.

An asymptotic expansion in the radius-to-length ratio reduces the
incompressible Navier-Stokes system in a moving tube to a hierarchy of 1D
pressure problems plus closed-form cross-section velocity fields, with an
exact polynomial verification layer on the unit disc.
"""

from .coupling import ElasticWall, RigidWall, WallState, advance_time_step, apply_wall_law
from .expansion import (
    BodyForce,
    ExpansionFields,
    FluidParams,
    StationData,
    evaluate_station,
    verify_coefficient_tables,
)
from .geometry import CenterCurve, check_invertibility
from .polydisc import DiscPoly, TrigSeries, disc_integral, restrict_to_boundary
from .pressure import PressureBC, PressureExpansion, solve_p0
from .verify import check_compatibility, check_mass_conservation, flow_rates

__version__ = "0.1.0"

__all__ = [
    "BodyForce", "CenterCurve", "DiscPoly", "ElasticWall", "ExpansionFields",
    "FluidParams", "PressureBC", "PressureExpansion", "RigidWall",
    "StationData", "TrigSeries", "WallState", "advance_time_step",
    "apply_wall_law", "check_compatibility", "check_invertibility",
    "check_mass_conservation", "disc_integral", "evaluate_station",
    "flow_rates", "restrict_to_boundary", "solve_p0",
    "verify_coefficient_tables",
]
