"""Flow rates, conservation residuals, compatibility and figure-shape checks.

This is the quantitative acceptance layer: everything here either
integrates the disc fields exactly or re-evaluates a conservation law with
the same stencils the pressure solver used, so that residuals of solved
states sit at round-off rather than at discretization level.  The three
pressure solves' own residuals are ``PressureExpansion.residuals``.
:func:`bounds` is the one statement of the verdict's bounds.  The module
imports numpy, the exact layer (``expansion``, ``polydisc``) and its node
arrays (``nodes``) only, so it loads no scipy: the solved pressures arrive
as a ``PressureExpansion``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expansion import U2_COMPATIBILITY_TOL, r2dp0_derivative
from .nodes import NodeArray
from .polydisc import (DiscPoly, disc_integral, polar_fourier,
                       restrict_to_boundary)


def bounds(h) -> dict:
    """The bound of each bounded value, keyed and ordered as
    ``verify_report.txt`` lists it.  The u1 identity holds only to the
    O(h^2) error of p0 solved on an axial grid of spacing ``h``."""
    return {"bvp_residuals.p0": 1e-8, "bvp_residuals.p02": 1e-8,
            "bvp_residuals.p1": 1e-8,
            "compatibility.max_g_integral": U2_COMPATIBILITY_TOL,
            "compatibility.max_u1_residual": max(1e-9, 100.0 * h**2),
            "conservation.max_q0_residual": 1e-8,
            "conservation.max_q1_residual": 1e-10}


@dataclass
class FlowRates:
    """Per-station scaled flow of each axial order and the scaled area."""

    q0: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    area: np.ndarray


def flow_rates(terms, R) -> FlowRates:
    """Exact disc integration of the axial terms: Q^k = R^2 * int u1^k.

    ``terms`` holds ``u1_0``, ``u1_1`` and ``u1_2`` of every node at once
    (the :func:`~tubeflow.expansion.verification_terms` of node-array
    station data).  The radial measure s3 ds3 ds2 is the plain area
    element in the disc coordinates, so each integral is a closed-form
    moment sum.
    """
    R = np.asarray(R, dtype=float)
    r2 = NodeArray(R) ** 2   # each node's scalar power

    def rate(u):
        return np.asarray(r2 * disc_integral(u))

    return FlowRates(q0=rate(terms.u1_0), q1=rate(terms.u1_1),
                     q2=rate(terms.u1_2), area=np.pi * R**2)


@dataclass
class ConservationReport:
    """Discrete residuals of the mass-conservation relations."""

    residual_q0: np.ndarray       # dQ0/ds1 + dA0/dt at interior nodes
    residual_q1: np.ndarray       # dQ1/ds1 at interior nodes
    max_q0: float
    max_q1: float


def check_mass_conservation(flow: FlowRates, wall, pexp, fluid
                            ) -> ConservationReport:
    """Residuals of dQ0/ds1 + dA0/dt = 0 and dQk/ds1 = 0 (k >= 1).

    Q0 and Q1 derivatives reuse the solver's own midpoint fluxes
    (Q = -pi R^4 p' / 8 rho0 nu), which makes the first relation
    algebraically identical to the solved pressure equation; the residuals
    are then round-off, not discretization error.
    """
    h = wall.h
    coef = -np.pi / (8.0 * fluid.rho0 * fluid.nu)
    dq0 = coef * np.diff(pexp.flux_p0) / h
    dq1 = coef * np.diff(pexp.flux_p1) / h
    darea_dt = 2.0 * np.pi * wall.R * wall.dR_dt
    res0 = dq0 + darea_dt[1:-1]
    scale0 = max(np.max(np.abs(dq0)), np.max(np.abs(darea_dt)), 1.0)
    res1 = dq1
    scale1 = max(np.max(np.abs(flow.q1)), 1.0)
    return ConservationReport(
        residual_q0=res0,
        residual_q1=res1,
        max_q0=float(np.max(np.abs(res0)) / scale0),
        max_q1=float(np.max(np.abs(res1)) / scale1),
    )


@dataclass
class CompatibilityReport:
    """Solvability integrals of the two transversal Stokes problems."""

    u1_lhs: np.ndarray       # 2 pi (R/16 rho0 nu)(2 (R^2 p0')' - R^2 p0'')
    u1_rhs: np.ndarray       # 2 pi dR/dt
    g_integral: np.ndarray   # disc integral of g per station
    max_u1_residual: float
    max_g_integral: float


def check_compatibility(wall, fluid, pexp, terms) -> CompatibilityReport:
    """Evaluate both compatibility integrals at every station.

    ``terms`` holds the disc integral of the divergence data ``g`` and its
    scale max(1, max|g|) at every node at once (the
    :func:`~tubeflow.expansion.verification_terms` of node-array station
    data), as its compatibility check took them.  The scalar maxima cover
    interior stations:
    the solvability statement applies to interior cross-sections, and the
    one-sided end stencils carry several-times-larger truncation constants
    (full arrays are reported for inspection).
    """
    r, dr = wall.R, pexp.dR_ds1
    d_r2dp0 = r2dp0_derivative(r, dr, pexp.dp0, pexp.d2p0)
    lhs = 2.0 * np.pi * r / (16.0 * fluid.rho0 * fluid.nu) \
        * (2.0 * d_r2dp0 - r**2 * pexp.d2p0)
    rhs = 2.0 * np.pi * wall.dR_dt
    # one float, not one per node, when g is the zero polynomial
    g_int = np.broadcast_to(terms.g_integral, r.shape).astype(float)
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1.0)
    g_scale = float(np.max(terms.g_scale))
    return CompatibilityReport(
        u1_lhs=lhs, u1_rhs=rhs, g_integral=g_int,
        max_u1_residual=float(np.max(np.abs(lhs - rhs)[1:-1]) / scale),
        max_g_integral=float(np.max(np.abs(g_int[1:-1])) / g_scale),
    )


# -- figure-shape structure of the disc fields --------------------------------

def azimuthal_polynomial(v2: DiscPoly, v3: DiscPoly) -> DiscPoly:
    """s3 * u_theta of a transversal field: z2 v3 - z3 v2."""
    return DiscPoly.z2() * v3 - DiscPoly.z3() * v2


def fourier_mode_magnitudes(poly: DiscPoly):
    """Max |radial coefficient| per angular Fourier mode of a disc field."""
    out = {}
    for (kind, k), radial in polar_fourier(poly).items():
        out[(kind, k)] = max(abs(float(c)) for c in radial.values())
    return out


def cos_mode_content(poly: DiscPoly) -> float:
    """Total magnitude of all cos (even-in-s2) Fourier modes of a field."""
    return sum(v for (kind, _), v in fourier_mode_magnitudes(poly).items()
               if kind == "cos")


def figure_shape_checks(fields_mid, sd_mid, wall_rate_tol: float) -> dict:
    """Qualitative structure of the fields at one station.

    Mirrors the published cross-section plots: axisymmetric leading flow,
    curvature skew carried by the single cos-s2 mode, purely radial first
    transversal correction with wall speed dR/dt, and angular circulation
    in the second transversal correction of the size kappa*tau sets (none
    when kappa*tau = 0).
    ``wall_rate_tol`` bounds the boundary-trace mismatch, which sits at the
    discretization error of the solved leading pressure.
    """
    checks = {}
    u10_modes = fourier_mode_magnitudes(fields_mid.u1_0)
    checks["u1_0_axisymmetric"] = set(u10_modes) <= {("cos", 0)}

    u11_modes = fourier_mode_magnitudes(fields_mid.u1_1)
    checks["u1_1_modes_cos01_only"] = set(u11_modes) <= {("cos", 0), ("cos", 1)}
    skew_group = float(fields_mid.u1_1.coeff(3, 0))  # z2 (rho^2 - 1) group
    kp = float(sd_mid.kappa) * float(sd_mid.dp0)
    checks["u1_1_skew_group"] = skew_group
    checks["u1_1_skew_sign_matches_kappa_dp0"] = (
        True if kp == 0 and skew_group == 0 else skew_group * kp > 0
    )
    # evaluated skew: with kappa dp0 < 0 the flow is faster on the N side
    mid_n = float(fields_mid.u1_1.to_float().evaluate(0.5, 0.0))
    mid_b = float(fields_mid.u1_1.to_float().evaluate(-0.5, 0.0))
    checks["u1_1_faster_on_normal_side"] = (
        mid_n > mid_b if kp < 0 else (mid_n < mid_b if kp > 0 else True)
    )

    swirl_u1 = azimuthal_polynomial(*fields_mid.U1)
    checks["U1_purely_radial"] = float(swirl_u1.max_abs()) <= 1e-12 * max(
        1.0, float(fields_mid.U1[0].max_abs()))
    trace = restrict_to_boundary(fields_mid.U1[0])
    checks["U1_boundary_magnitude"] = float(trace.cos_coeff(1))
    checks["U1_boundary_matches_wall_rate"] = (
        abs(float(trace.cos_coeff(1)) - float(sd_mid.Rdot))
        <= wall_rate_tol * max(1.0, abs(float(sd_mid.Rdot)))
    )

    # one rule whatever kappa*tau: the content is exactly |kappa tau| R^4
    # |p0'| / (16 rho0 nu), so spline-noise torsion expects a tiny swirl
    circ = cos_mode_content(azimuthal_polynomial(*fields_mid.U2))
    checks["U2_circulation_content"] = circ
    expected = (abs(float(sd_mid.kappa) * float(sd_mid.tau))
                * float(sd_mid.R)**4 * abs(float(sd_mid.dp0))
                / (16.0 * float(sd_mid.rho0) * float(sd_mid.nu)))
    scale = max(1e-300, float(fields_mid.U2[0].max_abs()),
                float(fields_mid.U2[1].max_abs()))
    checks["U2_circulation_iff_kappa_tau"] = (
        abs(circ - expected) <= 1e-12 * scale)
    return checks

