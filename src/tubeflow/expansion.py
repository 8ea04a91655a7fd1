"""Closed-form terms of the asymptotic solution on the cross-section disc.

Every velocity/pressure term of the truncated expansion is evaluated per
axis station as a :class:`~tubeflow.polydisc.DiscPoly` in the local disc
coordinates (z2, z3).  The module also carries the grouped-order problem
right-hand sides (the residual oracles that the closed forms are checked
against), the secondary-flow Stokes construction with its coefficient
tables, and a brute-force re-derivation of those tables in exact rational
arithmetic.

All evaluators are arithmetic-generic: feed them ``fractions.Fraction``
inputs and every polynomial coefficient comes out exact, which is how the
zero-residual verification suite runs; feed them
:class:`~tubeflow.nodes.NodeArray` node data and one call covers every
axis node, each with the bits of its own Python-float evaluation.  The
module imports no numpy: only its float paths load it, so exact
evaluation never does.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from math import inf, pi
from typing import NamedTuple

from .errors import ModelInconsistencyError, TubeflowError
from .polydisc import (
    DiscPoly,
    _is_float,
    diff_z2,
    diff_z3,
    disc_integral_over_pi,
    laplacian,
)


@dataclass(frozen=True)
class FluidParams:
    """Density rho0 (kg/m^3) and kinematic viscosity nu (m^2/s)."""

    rho0: object
    nu: object

    def __post_init__(self):
        # chained, so NaN and inf fail too; a Fraction compares exactly
        if not (0 < self.rho0 < inf and 0 < self.nu < inf):
            raise ValueError("fluid parameters must be positive and finite")


@dataclass(frozen=True)
class BodyForce:
    """Leading-order body force components in the Frenet basis (m/s^2)."""

    b1: object = 0.0
    b2: object = 0.0
    b3: object = 0.0


@dataclass(frozen=True)
class StationData:
    """Every scalar an axis station feeds into the disc formulas.

    Pressure entries are derivatives with respect to s1 of the solved
    grids (dp0 = p0', dt_dp0 = d^2 p0 / dt ds1, ...); wall entries are the
    radius and its s1/t derivatives; kappa/tau come from the center curve.

    The node entries (every field but rho0, nu and b1..b3) may instead be
    :class:`~tubeflow.nodes.NodeArray` values of all axis nodes at once
    (:func:`stations_from_grids`); the closed forms then build each term
    for every node in one call.  :class:`NodeStations` reads such data one
    node at a time.
    """

    rho0: object
    nu: object
    R: object
    dR: object = 0
    d2R: object = 0
    Rdot: object = 0
    kappa: object = 0
    dkappa: object = 0
    tau: object = 0
    dp0: object = 0
    d2p0: object = 0
    d3p0: object = 0
    dt_dp0: object = 0
    dp1: object = 0
    d2p1: object = 0
    p02: object = 0
    dp02: object = 0
    b1: object = 0
    b2: object = 0
    b3: object = 0

    # compound derivatives the printed formulas are phrased in
    @property
    def d_R2dp0(self):
        """(R^2 p0')'."""
        return r2dp0_derivative(self.R, self.dR, self.dp0, self.d2p0)

    @property
    def d2_R2dp0(self):
        """(R^2 p0')''."""
        return (2 * self.dR**2 * self.dp0 + 2 * self.R * self.d2R * self.dp0
                + 4 * self.R * self.dR * self.d2p0 + self.R**2 * self.d3p0)

    @property
    def dt_R2dp0(self):
        """d/dt (R^2 p0') = 2 R Rdot p0' + R^2 d2p0/dtds1."""
        return 2 * self.R * self.Rdot * self.dp0 + self.R**2 * self.dt_dp0

    @property
    def d_R2dp1(self):
        """(R^2 p1')'."""
        return 2 * self.R * self.dR * self.dp1 + self.R**2 * self.d2p1

    @property
    def fluid(self):
        return FluidParams(self.rho0, self.nu)


# Station-independent disc polynomials, built once and shared by every
# station (DiscPoly results are never mutated in place).
_Z2 = DiscPoly.z2()
_Z3 = DiscPoly.z3()
_ONE = DiscPoly.constant(1)
_RHO2 = DiscPoly.radius_sq()
_WALL = _RHO2 - _ONE   # z2^2 + z3^2 - 1: vanishes on the pipe wall
_RHO4 = _RHO2**2
_RHO4_M1 = _RHO4 - _ONE
_RHO4_P1 = _RHO4 + _ONE
_RHO6_M1 = _RHO2**3 - _ONE
_Z2SQ = DiscPoly.monomial(2, 0)
_Z2_RHO2 = _Z2 * _RHO2
_Z3_RHO2 = _Z3 * _RHO2
_Z2_Z3 = _Z2 * _Z3
_WALL_Z2 = _WALL * _Z2
_WALL_Z2SQ_M_Z3SQ = _WALL * (_Z2SQ - DiscPoly.monomial(0, 2))


# -- axial velocity terms ---------------------------------------------------

def eval_u1_0(R, fluid: FluidParams, dp0) -> DiscPoly:
    """Leading axial velocity (R^2 / 4 rho0 nu) p0' (z2^2 + z3^2 - 1)."""
    return (R**2 * dp0 / (4 * fluid.rho0 * fluid.nu)) * _WALL


def eval_u1_1(R, kappa, fluid: FluidParams, dp0, dp1) -> DiscPoly:
    """First axial correction; curvature skews the profile toward N."""
    rn = fluid.rho0 * fluid.nu
    bracket = (_Z2 * (3 * R**3 * kappa * dp0 / (16 * rn))
               + DiscPoly.constant(R**2 * dp1 / (4 * rn)))
    return bracket * _WALL


def u1_1_problem_rhs(R, kappa, fluid: FluidParams, dp0, dp1) -> DiscPoly:
    """Right side of the Poisson problem defining the first correction."""
    rn = fluid.rho0 * fluid.nu
    return (DiscPoly.constant(R**2 * dp1 / rn)
            + _Z2 * (3 * R**3 * kappa * dp0 / (2 * rn)))


def eval_u1_2(sd: StationData) -> DiscPoly:
    """Second axial correction (five coefficient groups on the disc)."""
    rn = sd.rho0 * sd.nu
    a = (sd.R**2 * sd.dt_dp0 / (4 * sd.rho0 * sd.nu**2)
         - sd.R**4 * sd.dp0 * sd.d2p0 / (16 * sd.rho0**2 * sd.nu**3)
         - sd.R**2 * sd.d3p0 / (2 * rn)
         + 11 * sd.kappa**2 * sd.R**2 * sd.dp0 / (8 * rn))
    c = (-sd.dt_R2dp0 / (4 * sd.rho0 * sd.nu**2)
         + sd.R**2 * sd.dp0 * sd.d_R2dp0 / (16 * sd.rho0**2 * sd.nu**3)
         + sd.d2_R2dp0 / (4 * rn)
         - 7 * sd.kappa**2 * sd.R**2 * sd.dp0 / (16 * rn)
         + sd.dp02 / rn
         - sd.b1 / sd.nu)
    return (
        _RHO4_M1 * (sd.R**2 * a / 16)
        + _WALL * (sd.R**2 * c / 4)
        + _RHO6_M1 * (sd.R**6 * sd.dp0 * sd.d2p0
                      / (1152 * sd.rho0**2 * sd.nu**3))
        + _WALL_Z2 * (3 * sd.kappa * sd.R**3 * sd.dp1 / (16 * rn))
        + _WALL_Z2SQ_M_Z3SQ * (5 * sd.kappa**2 * sd.R**4 * sd.dp0 / (64 * rn))
    )


def u1_2_problem_rhs(sd: StationData) -> DiscPoly:
    """Right side of the grouped-order Poisson problem for u1^2.

    This is the residual oracle: the closed form of :func:`eval_u1_2` must
    reproduce it under the disc Laplacian, exactly.
    """
    rn = sd.rho0 * sd.nu
    return (
        _RHO2 * (sd.R**4 * sd.dt_dp0 / (4 * sd.rho0 * sd.nu**2)
                 - sd.R**6 * sd.dp0 * sd.d2p0 / (16 * sd.rho0**2 * sd.nu**3)
                 - sd.R**4 * sd.d3p0 / (2 * rn)
                 + 7 * sd.kappa**2 * sd.R**4 * sd.dp0 / (16 * rn))
        + _RHO4 * (sd.R**6 * sd.dp0 * sd.d2p0
                   / (32 * sd.rho0**2 * sd.nu**3))
        + DiscPoly.constant(
            -sd.R**2 * sd.dt_R2dp0 / (4 * sd.rho0 * sd.nu**2)
            + sd.R**4 * sd.dp0 * sd.d_R2dp0 / (16 * sd.rho0**2 * sd.nu**3)
            + sd.R**2 * sd.d2_R2dp0 / (4 * rn)
            - 7 * sd.kappa**2 * sd.R**4 * sd.dp0 / (16 * rn)
            + sd.R**2 * sd.dp02 / rn
            - sd.R**2 * sd.b1 / sd.nu)
        + _Z2 * (3 * sd.kappa * sd.R**3 * sd.dp1 / (2 * rn))
        + _Z2SQ * (15 * sd.kappa**2 * sd.R**4 * sd.dp0 / (8 * rn))
    )


# -- transversal velocity, first order --------------------------------------

def r2dp0_derivative(R, dR, dp0, d2p0):
    """(R^2 p0')' = 2 R R' p0' + R^2 p0''."""
    return 2 * R * dR * dp0 + R**2 * d2p0


def eval_U1(R, dR, fluid: FluidParams, dp0, d2p0):
    """First transversal correction, radial: f(rho^2) (z2, z3)."""
    d_r2dp0 = r2dp0_derivative(R, dR, dp0, d2p0)
    radial = (DiscPoly.constant(2 * d_r2dp0) - _RHO2 * (R**2 * d2p0)) \
        * (R / (16 * fluid.rho0 * fluid.nu))
    return radial * _Z2, radial * _Z3


def U1_divergence_data(R, dR, fluid: FluidParams, dp0, d2p0) -> DiscPoly:
    """div-constraint g^1 of the first transversal Stokes problem."""
    d_r2dp0 = r2dp0_derivative(R, dR, dp0, d2p0)
    return (DiscPoly.constant(d_r2dp0) - _RHO2 * (R**2 * d2p0)) \
        * (R / (4 * fluid.rho0 * fluid.nu))


def eval_p2(R, d2p0, p02) -> DiscPoly:
    """Second pressure term -(R^2/4) p0'' (z2^2+z3^2) + p02(t, s1)."""
    return _RHO2 * (-(R**2) * d2p0 / 4) + DiscPoly.constant(p02)


def transversal_potential(R, dR, fluid: FluidParams, dp0, d2p0) -> DiscPoly:
    """Scalar potential whose gradient is the whole of U^1 (gauge zero)."""
    d_r2dp0 = r2dp0_derivative(R, dR, dp0, d2p0)
    return (_RHO2 * (R / (16 * fluid.rho0 * fluid.nu))
            * (DiscPoly.constant(d_r2dp0) - _RHO2 * (R**2 * d2p0 / 4)))


# -- secondary-flow data (order two, transversal) ----------------------------

def build_U2_rhs(sd: StationData):
    """Momentum forcing F = (F2, F3) and divergence data g for (U^2, p^3)."""
    rn = sd.rho0 * sd.nu
    f2 = (
        _RHO4_P1 * (sd.kappa * sd.R**6 * sd.dp0**2
                    / (16 * sd.rho0**2 * sd.nu**3))
        + DiscPoly.constant(
            sd.dkappa * sd.R**4 * sd.dp0 / (4 * rn)
            + 5 * sd.R**2 * sd.kappa * sd.d_R2dp0 / (8 * rn)
            - sd.R**2 * sd.b2 / sd.nu)
        + _RHO2 * (-sd.kappa * sd.R**6 * sd.dp0**2
                   / (8 * sd.rho0**2 * sd.nu**3)
                   - 9 * sd.R**4 * sd.kappa * sd.d2p0 / (16 * rn)
                   - sd.dkappa * sd.R**4 * sd.dp0 / (4 * rn))
        + _Z2SQ * (-sd.kappa * sd.R**4 * sd.d2p0 / (8 * rn))
    )
    f3 = (
        _WALL * (-sd.kappa * sd.tau * sd.R**4 * sd.dp0 / (4 * rn))
        + _Z2_Z3 * (-sd.kappa * sd.R**4 * sd.d2p0 / (8 * rn))
        + DiscPoly.constant(-sd.R**2 * sd.b3 / sd.nu)
    )

    g = (
        _Z2_RHO2 * (-sd.kappa * sd.R**4 * sd.d2p0 / (2 * rn)
                    - 3 * sd.dkappa * sd.R**4 * sd.dp0 / (16 * rn))
        + _Z3_RHO2 * (-3 * sd.kappa * sd.tau * sd.R**4 * sd.dp0 / (16 * rn))
        + _Z2 * (9 * sd.kappa * sd.R**3 * sd.dR * sd.dp0 / (8 * rn)
                 + 9 * sd.kappa * sd.R**4 * sd.d2p0 / (16 * rn)
                 + 3 * sd.dkappa * sd.R**4 * sd.dp0 / (16 * rn))
        + _Z3 * (3 * sd.kappa * sd.tau * sd.R**4 * sd.dp0 / (16 * rn))
        + _RHO2 * (-sd.R**3 * sd.d2p1 / (4 * rn))
        + DiscPoly.constant(sd.R * sd.d_R2dp1 / (4 * rn))
    )
    return (f2, f3), g


def secondary_potential(sd: StationData) -> DiscPoly:
    """Neumann potential for the divergence data g (additive gauge zero)."""
    rn = sd.rho0 * sd.nu
    grp8k3k = 8 * sd.kappa * sd.d2p0 + 3 * sd.dkappa * sd.dp0
    grp633 = (6 * sd.kappa * sd.dR * sd.dp0 + 3 * sd.kappa * sd.R * sd.d2p0
              + sd.dkappa * sd.R * sd.dp0)
    return (
        _RHO4 * (_Z2 * (-sd.R**4 * grp8k3k / (384 * rn))
                 + _Z3 * (-sd.kappa * sd.tau * sd.R**4 * sd.dp0 / (128 * rn))
                 + DiscPoly.constant(-sd.R**3 * sd.d2p1 / (64 * rn)))
        + _RHO2 * (_Z2 * (3 * sd.R**3 * grp633 / (128 * rn))
                   + _Z3 * (3 * sd.kappa * sd.tau * sd.R**4 * sd.dp0
                            / (128 * rn))
                   + DiscPoly.constant(sd.R * sd.d_R2dp1 / (16 * rn)))
        + _Z2 * (5 * sd.R**4 * grp8k3k / (384 * rn)
                 - 9 * sd.R**3 * grp633 / (128 * rn))
        + _Z3 * (-sd.kappa * sd.tau * sd.R**4 * sd.dp0 / (32 * rn))
    )


def stream_coefficients(sd: StationData):
    """(psi2, psi3) of the boundary-fixing stream function."""
    rn = sd.rho0 * sd.nu
    psi2 = -sd.kappa * sd.tau * sd.R**4 * sd.dp0 / (64 * rn)
    psi3 = (sd.R**3 * (22 * sd.kappa * sd.R * sd.d2p0
                       + 6 * sd.dkappa * sd.R * sd.dp0
                       + 108 * sd.kappa * sd.dR * sd.dp0) / (384 * rn))
    return psi2, psi3


def stream_function(sd: StationData) -> DiscPoly:
    """psi = (psi2 z2 + psi3 z3)(z2^2 + z3^2 - 1) / 2."""
    psi2, psi3 = stream_coefficients(sd)
    return (_Z2 * (psi2 / 2) + _Z3 * (psi3 / 2)) * _WALL


# -- the disc Stokes solve on the W/q ansatz ---------------------------------

_F2_MONOMIALS = ((0, 0), (2, 0), (0, 2), (2, 2), (4, 0), (0, 4))
_F3_MONOMIALS = ((0, 0), (1, 1), (2, 0), (0, 2))


def _fr(num, den):
    return Fraction(num, den)


# Coefficient tables of the homogeneous-boundary Stokes solve on the disc:
# each W/q polynomial coefficient as a rational combination of the forcing
# coefficients f_alpha^{mn}.  Re-derivable from scratch with
# :func:`derive_wq_table`; unlisted coefficients are zero.
WQ_TABLE = {
    "w2_00": {"f2_02": _fr(-1, 96), "f2_04": _fr(-1, 192),
              "f2_22": _fr(-1, 1152), "f3_11": _fr(1, 192)},
    "w2_02": {"f2_02": _fr(5, 96), "f2_04": _fr(13, 960),
              "f2_22": _fr(31, 5760), "f3_11": _fr(-5, 192)},
    "w2_04": {"f2_04": _fr(7, 240), "f2_22": _fr(-7, 2880)},
    "w2_11": {"f3_20": _fr(-1, 24)},
    "w2_20": {"f2_02": _fr(1, 96), "f2_04": _fr(7, 960),
              "f2_22": _fr(-11, 5760), "f3_11": _fr(-1, 192)},
    "w2_22": {"f2_04": _fr(1, 480), "f2_22": _fr(37, 2880)},
    "w2_40": {"f2_04": _fr(-1, 480), "f2_22": _fr(1, 360)},
    "w3_00": {"f3_20": _fr(-1, 96)},
    "w3_02": {"f3_20": _fr(1, 96)},
    "w3_11": {"f2_02": _fr(-1, 24), "f2_04": _fr(-1, 40),
              "f2_22": _fr(1, 480), "f3_11": _fr(1, 48)},
    "w3_13": {"f2_04": _fr(-1, 80), "f2_22": _fr(-1, 240)},
    "w3_20": {"f3_20": _fr(5, 96)},
    "w3_31": {"f2_04": _fr(1, 80), "f2_22": _fr(-1, 60)},
    "q_01": {"f3_00": _fr(-1, 1), "f3_20": _fr(-1, 6)},
    "q_03": {"f3_02": _fr(-1, 3), "f3_20": _fr(1, 12)},
    "q_10": {"f2_00": _fr(-1, 1), "f2_02": _fr(-1, 6), "f2_04": _fr(-1, 16),
             "f2_22": _fr(-1, 96), "f3_11": _fr(1, 12)},
    "q_12": {"f2_02": _fr(-1, 4), "f2_04": _fr(-3, 20),
             "f2_22": _fr(3, 40), "f3_11": _fr(-3, 8)},
    "q_14": {"f2_04": _fr(-1, 16), "f2_22": _fr(-5, 96)},
    "q_21": {"f3_20": _fr(-1, 4)},
    "q_30": {"f2_02": _fr(1, 12), "f2_04": _fr(1, 20), "f2_20": _fr(-1, 3),
             "f2_22": _fr(-1, 40), "f3_11": _fr(-1, 24)},
    "q_32": {"f2_04": _fr(1, 8), "f2_22": _fr(-11, 48)},
    "q_50": {"f2_04": _fr(-1, 80), "f2_22": _fr(11, 480), "f2_40": _fr(-1, 5)},
}

_ANSATZ_W = tuple((m, n) for m in range(5) for n in range(5) if m + n <= 4)
_ANSATZ_Q = tuple((m, n) for m in range(6) for n in range(6)
                  if m + n <= 5 and (m, n) != (0, 0))


def _wq_plan(prefix, monos):
    """(monomial, ((forcing name, weight, float weight), ...)) for each
    tabulated coefficient of one W/q polynomial, in ansatz order."""
    plan = []
    for m, n in monos:
        table = WQ_TABLE.get(f"{prefix}_{m}{n}")
        if table:
            plan.append(((m, n), tuple((fname, w, float(w))
                                       for fname, w in table.items())))
    return tuple(plan)


_WQ_PLANS = (_wq_plan("w2", _ANSATZ_W), _wq_plan("w3", _ANSATZ_W),
             _wq_plan("q", _ANSATZ_Q))


# (tag, allowed monomials, {monomial: forcing name}) of F2 and F3
_FORCING = tuple((tag, frozenset(monos),
                  {(m, n): f"f{tag[1]}_{m}{n}" for m, n in monos})
                 for tag, monos in (("F2", _F2_MONOMIALS),
                                    ("F3", _F3_MONOMIALS)))


def _read_forcing_coeffs(f2_poly: DiscPoly, f3_poly: DiscPoly):
    f = {}
    for poly, (tag, allowed, names) in zip((f2_poly, f3_poly), _FORCING):
        stray = poly.coeffs.keys() - allowed
        if stray:
            raise ModelInconsistencyError(
                f"{tag} has monomials {sorted(stray)} outside the solvable "
                "family; the tabulated Stokes solve does not apply"
            )
        for mono, name in names.items():
            f[name] = poly.coeff(*mono)
    return f


def stokes_residuals(W2: DiscPoly, W3: DiscPoly, q: DiscPoly,
                     F2: DiscPoly, F3: DiscPoly):
    """The disc Stokes problem Delta W = grad q + F, div W = 0 as residuals.

    Returns (Delta W2 - dq/dz2 - F2, Delta W3 - dq/dz3 - F3, div W); all
    three vanish identically when (W2, W3, q) solves the problem for F.
    """
    return (laplacian(W2) - diff_z2(q) - F2,
            laplacian(W3) - diff_z3(q) - F3,
            diff_z2(W2) + diff_z3(W3))


def stokes_disc_solve(f2_poly: DiscPoly, f3_poly: DiscPoly):
    """Solve Delta W = grad q + F, div W = 0, W = 0 on the wall.

    Applies the frozen coefficient tables; the gauge constant of q is zero.
    Returns (W2, W3, q).
    """
    f = _read_forcing_coeffs(f2_poly, f3_poly)

    def build(plan):
        coeffs = {}
        for mono, terms in plan:
            val = 0
            for fname, weight, fweight in terms:
                fv = f[fname]
                if fv:
                    # Fraction * float is float(weight) * float, also per
                    # node of a node array
                    val = val + (fweight if _is_float(fv) else weight) * fv
            if val:
                coeffs[mono] = val
        return DiscPoly._canonical(coeffs.items())

    w2_plan, w3_plan, q_plan = _WQ_PLANS
    return build(w2_plan) * _WALL, build(w3_plan) * _WALL, build(q_plan)


# relative tolerance of the float U^2 compatibility check, and the bound
# of the verdict's compatibility.max_g_integral
U2_COMPATIBILITY_TOL = 1e-10


def check_U2_compatibility(g: DiscPoly, s1=None):
    """Require the divergence data g of (U^2, p^3) to be compatible.

    Its disc integral must vanish: exactly when it is exact (a Fraction,
    or the int 0 of a zero g), and within :data:`U2_COMPATIBILITY_TOL`
    of max|g| (at least 1)
    for floats, at every node for node-array data.  A violation raises
    :class:`ModelInconsistencyError` that reports the integral; for node
    arrays it names the worst failing node (and its ``s1``, the axis
    positions of the nodes, if given) and how many nodes fail.

    Returns the disc integral of g as a float (0.0 for exact data, which
    passes only at zero) and that scale max(1, max|g|), one of each per
    node for node-array data.
    """
    integral = disc_integral_over_pi(g)
    value = integral * pi
    if not _is_float(integral):
        if integral:
            raise ModelInconsistencyError(
                f"U^2 compatibility violated: disc integral of g = {integral}*pi"
            )
        scale = max(1, g.max_abs())   # exact: no numpy object loop
    else:
        import numpy as np   # float data only: exact checks load no numpy
        scale = np.maximum(1.0, g.max_abs())
        bad = abs(value) > U2_COMPATIBILITY_TOL * scale
        if np.ndim(bad) == 0:
            if bad:
                raise ModelInconsistencyError(
                    "U^2 compatibility violated: disc integral of g = "
                    f"{float(value):.3e} (tol {U2_COMPATIBILITY_TOL:g}, "
                    f"scale {scale:g})"
                )
        elif bad.any():
            k = int(np.argmax(np.where(bad, abs(value) / scale, -1.0)))
            where = f"node {k}" if s1 is None else f"node {k} (s1 = {s1[k]:g})"
            raise ModelInconsistencyError(
                f"U^2 compatibility violated at {int(bad.sum())} of "
                f"{bad.size} nodes, worst at {where}: disc integral of g = "
                f"{value[k]:.3e} (tol {U2_COMPATIBILITY_TOL:g}, "
                f"scale {scale[k]:g})"
            )
    return value, scale


# -- brute-force re-derivation of the coefficient tables ---------------------

def _sub_scaled(row, factor, pivot_row):
    """row -= factor * pivot_row on sparse rows, dropping zeros."""
    for k, v in pivot_row.items():
        w = row.get(k, 0) - factor * v
        if w:
            row[k] = w
        else:
            del row[k]


def _gauss_solve_exact(rows, unknowns):
    """Exact Gauss-Jordan: rows of {name: Fraction} meaning sum u + sum f = 0.

    Names outside ``unknowns`` are right-hand-side symbols.  The
    elimination is sparse: each row is a pair of dicts, {unknown: Fraction}
    and {rhs_name: Fraction}, that hold only nonzero entries, and a pivot
    is removed only from the rows that hold it.  Unknowns are pivoted in
    the given order on the first remaining row that holds them.  Returns
    {unknown: {rhs_name: Fraction}} in ``unknowns`` order; raises on
    inconsistent or underdetermined systems.
    """
    names = set(unknowns)
    remaining = [({k: Fraction(v) for k, v in row.items() if k in names and v},
                  {k: -Fraction(v) for k, v in row.items()
                   if k not in names and v})
                 for row in rows]
    pivots = {}
    for u in unknowns:
        i = next((i for i, (a, _) in enumerate(remaining) if u in a), None)
        if i is None:
            continue
        a, b = remaining.pop(i)
        inv = 1 / a[u]
        a = {k: v * inv for k, v in a.items()}
        b = {k: v * inv for k, v in b.items()}
        for other_a, other_b in [*pivots.values(), *remaining]:
            factor = other_a.get(u)
            if factor is not None:
                _sub_scaled(other_a, factor, a)
                _sub_scaled(other_b, factor, b)
        pivots[u] = (a, b)

    if len(pivots) < len(unknowns):
        missing = [u for u in unknowns if u not in pivots]
        raise ModelInconsistencyError(
            f"ansatz system is underdetermined; free unknowns: {missing}"
        )
    if any(a or b for a, b in remaining):
        raise ModelInconsistencyError("ansatz system is inconsistent")
    return {u: b for u, (_, b) in pivots.items()}


def derive_wq_table():
    """Re-derive the W/q tables from scratch in exact rational arithmetic.

    The Stokes operator is linear, so each row of the ansatz system is read
    off :func:`stokes_residuals` applied to unit coefficients: entry
    ``rows[(equation, monomial)][symbol]`` is that monomial's coefficient
    in that equation's residual when the unknown (a W ansatz monomial times
    the wall factor, or a q monomial) or forcing monomial ``symbol`` is 1
    and every other is 0.  The rows are solved by exact elimination.
    """
    zero = DiscPoly.zero()
    rows = {}
    unknowns = []
    for slot, (prefix, monos) in enumerate((
            ("w2", _ANSATZ_W), ("w3", _ANSATZ_W), ("q", _ANSATZ_Q),
            ("f2", _F2_MONOMIALS), ("f3", _F3_MONOMIALS))):
        for m, n in monos:
            name = f"{prefix}_{m}{n}"
            probe = DiscPoly.monomial(m, n, Fraction(1))
            args = [zero] * 5
            args[slot] = probe * _WALL if slot < 2 else probe
            for eq, residual in enumerate(stokes_residuals(*args)):
                for mono, c in residual.coeffs.items():
                    rows.setdefault((eq, mono), {})[name] = c
            if slot < 3:
                unknowns.append(name)
    return _gauss_solve_exact([rows[k] for k in sorted(rows)], unknowns)


@dataclass
class TableEntry:
    name: str
    derived: dict
    tabulated: dict
    match: bool


@dataclass
class TableReport:
    entries: list
    all_match: bool

    def summary_lines(self):
        lines = []
        for e in self.entries:
            status = "ok" if e.match else "MISMATCH"
            lines.append(f"{e.name}: {status}")
            if not e.match:
                lines.append(f"    derived:   {e.derived}")
                lines.append(f"    tabulated: {e.tabulated}")
        lines.append(
            f"total {len(self.entries)} coefficients, "
            f"{'all match' if self.all_match else 'MISMATCHES PRESENT'}"
        )
        return lines


def verify_coefficient_tables() -> TableReport:
    """Compare the frozen tables against the brute-force derivation."""
    derived = derive_wq_table()
    entries = []
    for name in sorted(derived):
        want = WQ_TABLE.get(name, {})
        got = derived[name]
        entries.append(TableEntry(name, got, want, got == want))
    return TableReport(entries, all(e.match for e in entries))


# -- per-station assembly -----------------------------------------------------

@dataclass
class ExpansionFields:
    """All disc fields of one axis station at one time."""

    u1_0: DiscPoly
    u1_1: DiscPoly
    u1_2: DiscPoly
    U1: tuple
    U2: tuple
    p2: DiscPoly
    p3: DiscPoly
    F: tuple
    g: DiscPoly
    W: tuple = None
    q2: DiscPoly = None
    phi_transversal: DiscPoly = None
    phi_secondary: DiscPoly = None
    psi: DiscPoly = None
    psi2: object = 0
    psi3: object = 0


class VerificationTerms(NamedTuple):
    """The terms of one station that the axial verification reads: the
    axial velocities (flow rates) and the U^2 data (compatibility), with
    the disc integral of g and its scale max(1, max|g|) that
    :func:`check_U2_compatibility` returned."""

    u1_0: DiscPoly
    u1_1: DiscPoly
    u1_2: DiscPoly
    F: tuple
    g: DiscPoly
    g_integral: object
    g_scale: object


def verification_terms(sd: StationData, s1=None) -> VerificationTerms:
    """u1^0, u1^1, u1^2 and (F, g) of a station, g checked compatible.

    This is the part of :func:`evaluate_station` that every axis node
    needs; the transversal fields are left to the stations that are read.
    On node-array data (:func:`stations_from_grids`) it covers every node
    at once; ``s1`` then names the failing node in a compatibility error.
    """
    fluid = sd.fluid
    F, g = build_U2_rhs(sd)
    g_integral, g_scale = check_U2_compatibility(g, s1)
    return VerificationTerms(
        u1_0=eval_u1_0(sd.R, fluid, sd.dp0),
        u1_1=eval_u1_1(sd.R, sd.kappa, fluid, sd.dp0, sd.dp1),
        u1_2=eval_u1_2(sd), F=F, g=g, g_integral=g_integral,
        g_scale=g_scale)


def evaluate_station(sd: StationData) -> ExpansionFields:
    """Evaluate every expansion term at one station, or at every node at once.

    (U^2, p^3) is the Neumann potential plus the stream function plus the
    tabulated disc Stokes solve, on divergence data checked compatible.
    Free functions of (t, s1) in the pressure are fixed to zero.
    """
    fluid = sd.fluid
    t = verification_terms(sd)
    U1 = eval_U1(sd.R, sd.dR, fluid, sd.dp0, sd.d2p0)
    p2 = eval_p2(sd.R, sd.d2p0, sd.p02)
    phi = secondary_potential(sd)
    psi = stream_function(sd)
    psi2, psi3 = stream_coefficients(sd)
    w2, w3, q = stokes_disc_solve(*t.F)
    U2 = (w2 + diff_z2(phi) + diff_z3(psi), w3 + diff_z3(phi) - diff_z2(psi))
    p3 = (q + t.g + _Z2 * (4 * psi3) - _Z3 * (4 * psi2)) \
        * (sd.rho0 * sd.nu / sd.R)
    return ExpansionFields(
        u1_0=t.u1_0, u1_1=t.u1_1, u1_2=t.u1_2, U1=U1, U2=U2, p2=p2, p3=p3,
        F=t.F, g=t.g, W=(w2, w3), q2=q,
        phi_transversal=transversal_potential(sd.R, sd.dR, fluid,
                                              sd.dp0, sd.d2p0),
        phi_secondary=phi, psi=psi, psi2=psi2, psi3=psi3,
    )


class NodeStations(Sequence):
    """The nodes of node-array :class:`StationData`, read like a list.

    Item k is a new scalar StationData whose node entries are node k's
    Python floats: they compute the same values as numpy float64 scalars,
    at a fraction of the cost per operation.  :meth:`fields` gives a
    node's full fields.
    """

    def __init__(self, data: StationData):
        import numpy as np

        self.data = data
        self._node_fields = tuple(
            f.name for f in fields(data)
            if isinstance(getattr(data, f.name), np.ndarray))
        self._fields = {}

    def __len__(self):
        return len(self.data.R)

    def __getitem__(self, i):
        k = range(len(self))[i]   # negatives, IndexError
        return replace(self.data, **{name: getattr(self.data, name).item(k)
                                     for name in self._node_fields})

    def fields(self, k) -> ExpansionFields:
        """The :class:`ExpansionFields` of node k, evaluated by
        :func:`evaluate_station` from ``self[k]`` the first time it is read
        and kept from then on, so a run pays only for the stations that
        something reads."""
        k = range(len(self))[k]
        f = self._fields.get(k)
        if f is None:
            f = self._fields[k] = evaluate_station(self[k])
        return f


def stations_from_grids(wall, pexp, curvature, fluid: FluidParams,
                        body: BodyForce) -> StationData:
    """The StationData of every axis node at once, from solved wall and
    pressure grids: each node entry is a :class:`~tubeflow.nodes.NodeArray`
    over the nodes.

    ``curvature`` holds the center curve's kappa, kappa' and tau at each
    node of ``wall.s1`` (``curve.curvature(wall.s1)``).
    :class:`NodeStations` reads the result one node at a time.
    """
    from .nodes import NodeArray

    kappa, dkappa, tau = curvature
    return StationData(
        rho0=fluid.rho0, nu=fluid.nu,
        R=NodeArray(wall.R), dR=NodeArray(pexp.dR_ds1),
        d2R=NodeArray(pexp.d2R_ds12), Rdot=NodeArray(wall.dR_dt),
        kappa=NodeArray(kappa), dkappa=NodeArray(dkappa), tau=NodeArray(tau),
        dp0=NodeArray(pexp.dp0), d2p0=NodeArray(pexp.d2p0),
        d3p0=NodeArray(pexp.d3p0), dt_dp0=NodeArray(pexp.dt_dp0),
        dp1=NodeArray(pexp.dp1), d2p1=NodeArray(pexp.d2p1),
        p02=NodeArray(pexp.p02), dp02=NodeArray(pexp.dp02),
        b1=body.b1, b2=body.b2, b3=body.b3,
    )


# -- physical assembly --------------------------------------------------------

def truncated_solution(f: ExpansionFields, p0, p1, eps, order: int, z2, z3):
    """Truncated expansion at the disc point (z2, z3) of one station, or
    at every point of a grid given as two :class:`~tubeflow.nodes.NodeArray`.

    Order k keeps the velocity terms through eps^k and the pressure terms
    through eps^(k-2); ``p0``/``p1`` are the axial pressures at the
    station's node.  Returns the Frenet components (u1, u2, u3) and the
    pressure.
    """
    if order not in (0, 1, 2):
        raise TubeflowError(f"unsupported expansion order {order}")
    u1 = f.u1_0.evaluate(z2, z3)
    u2 = u3 = 0
    p = p0 / eps**2
    if order >= 1:
        u1 += eps * f.u1_1.evaluate(z2, z3)
        u2 += eps * f.U1[0].evaluate(z2, z3)
        u3 += eps * f.U1[1].evaluate(z2, z3)
        p += p1 / eps
    if order >= 2:
        u1 += eps**2 * f.u1_2.evaluate(z2, z3)
        u2 += eps**2 * f.U2[0].evaluate(z2, z3)
        u3 += eps**2 * f.U2[1].evaluate(z2, z3)
        p += f.p2.evaluate(z2, z3)
    return (u1, u2, u3), p
