"""Two-point boundary value solvers for the axial pressure hierarchy.

Three 1D problems on the axis coordinate drive the whole expansion:

    (R^4 p0')' = 16 nu rho0 R dR/dt        leading order
    (R^4 p1')' = 0                         first correction
    (R^4 p02')' = d/ds1 [ bracket ]        axisymmetric part of order two

All three are discretized in conservative flux form on a uniform grid

    (a_{i+1/2} (p_{i+1} - p_i) - a_{i-1/2} (p_i - p_{i-1})) / h^2 = f_i

with a = R^4 averaged to midpoints, so the discrete flux a p' is exactly
continuous across interior nodes and the mass-conservation residuals of the
verify module cancel to round-off against the same stencils.  The p02
right side f is :func:`bracket_derivative` of the nodal bracket, the
difference of its midpoint averages, so the p02 flux is exactly
conservative too.  The interior system is symmetric tridiagonal;
:func:`solve_flux_bvp` hands it straight to LAPACK ``dgtsv`` after
checking that it is finite.

Each solver returns the solved grid and its midpoint flux.
:func:`solve_p0` takes bare radius and rate arrays, not a WallState, so
the wall fixed point calls it once per sweep without building one.
:func:`solve_pressures` runs the three in order on one wall and is the one
place where derivatives of the solved grids are taken: p0 up to the
third, p1 up to the second, p02', and the mixed time derivative of p0',
for which it also solves p0 on the previous step's wall.  A run calls it
once, on its final wall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import ConfigurationError, SolverError

if TYPE_CHECKING:  # avoid an import cycle; WallState lives with the wall laws
    from .coupling import WallState
    from .expansion import BodyForce, FluidParams


@dataclass(frozen=True)
class TimeSeries:
    """Piecewise-linear scalar time series with strictly increasing knots."""

    times: tuple
    values: tuple

    def __post_init__(self):
        if len(self.times) != len(self.values) or not self.times:
            raise ConfigurationError("time series needs matching times/values")
        if not all(np.isfinite(self.times)):
            raise ConfigurationError("time series knot times must be finite")
        if any(t1 >= t2 for t1, t2 in zip(self.times, self.times[1:])):
            raise ConfigurationError("time series knots must increase")
        if not all(np.isfinite(self.values)):
            raise ConfigurationError("time series values must be finite")

    def __call__(self, t):
        return float(np.interp(t, self.times, self.values))


def _bc_value(v, t):
    return v(t) if callable(v) else float(v)


@dataclass(frozen=True)
class PressureBC:
    """Dirichlet data for the three pressure problems.

    The leading-order values may be time dependent; the correction problems
    default to homogeneous data (a declared convention, overridable here).
    """

    p0_inlet: object = 0.0
    p0_outlet: object = 0.0
    p1_inlet: float = 0.0
    p1_outlet: float = 0.0
    p02_inlet: float = 0.0
    p02_outlet: float = 0.0

    def p0_at(self, t):
        a, b = _bc_value(self.p0_inlet, t), _bc_value(self.p0_outlet, t)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ConfigurationError("non-finite p0 boundary value")
        return a, b


@dataclass
class PressureExpansion:
    """Solved pressure grids and every derivative the velocity formulas use."""

    s1: np.ndarray
    p0: np.ndarray
    dp0: np.ndarray
    d2p0: np.ndarray
    d3p0: np.ndarray
    dt_dp0: np.ndarray
    p1: np.ndarray
    dp1: np.ndarray
    d2p1: np.ndarray
    p02: np.ndarray
    dp02: np.ndarray
    flux_p0: np.ndarray = field(repr=False, default=None)
    flux_p1: np.ndarray = field(repr=False, default=None)
    flux_p02: np.ndarray = field(repr=False, default=None)

    @property
    def h(self):
        return self.s1[1] - self.s1[0]


# -- finite-difference helpers --------------------------------------------

def fd_derivative(values, h):
    """Second-order first derivative (centered, one-sided at the ends)."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return out


def fd_second_derivative(values, h):
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
    out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / h**2
    out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / h**2
    return out


def fd_third_derivative(values, h):
    """Second-order third derivative; one-sided 5/6-point stencils at ends."""
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 6:
        raise SolverError("third derivative needs at least 6 nodes")
    out = np.empty_like(v)
    out[2:-2] = (v[4:] - 2 * v[3:-1] + 2 * v[1:-3] - v[:-4]) / (2 * h**3)
    fwd = np.array([-2.5, 9.0, -12.0, 7.0, -1.5]) / h**3
    out[0] = fwd @ v[:5]
    out[1] = fwd @ v[1:6]
    out[-1] = -(fwd @ v[-1:-6:-1])
    out[-2] = -(fwd @ v[-2:-7:-1])
    return out


# -- core flux-form solver -------------------------------------------------

def bracket_derivative(bracket, h):
    """Nodal d/ds1 of a bracket: the difference of its midpoint averages.

    Set at the interior nodes, zero at the two Dirichlet ends.
    """
    br = np.asarray(bracket, dtype=float)
    br_mid = 0.5 * (br[:-1] + br[1:])
    out = np.zeros_like(br)
    out[1:-1] = (br_mid[1:] - br_mid[:-1]) / h
    return out


def solve_flux_bvp(coef, h, rhs, p_in, p_out):
    """Solve (coef u')' = rhs with Dirichlet data, conservative flux form.

    coef and rhs are nodal; midpoint coefficients are arithmetic averages
    and the right side is read at the interior nodes.
    """
    coef = np.asarray(coef, dtype=float)
    n = coef.size
    if n < 8:
        raise SolverError("grid too coarse: need at least 8 nodes")
    a_mid = 0.5 * (coef[:-1] + coef[1:])
    if (a_mid <= 0).any():
        raise SolverError("singular flux coefficient (R -> 0?)")
    b = np.asarray(rhs, dtype=float)[1:-1].copy()

    # Dirichlet unknowns eliminated up front: solve the interior system so
    # the boundary data is held exactly.  Symmetric tridiagonal: LAPACK gtsv.
    inv_h2 = 1.0 / h**2
    off = a_mid[1:-1] * inv_h2
    diag = -(a_mid[:-1] + a_mid[1:]) * inv_h2
    b[0] -= a_mid[0] * p_in * inv_h2
    b[-1] -= a_mid[-1] * p_out * inv_h2
    if not (np.isfinite(diag).all() and np.isfinite(b).all()):
        raise SolverError("tridiagonal system contains infs or NaNs")
    *_, interior, info = dgtsv(off, diag, off, b, overwrite_d=True,
                               overwrite_b=True)
    if info:
        raise SolverError("singular matrix" if info > 0 else
                          f"illegal value in argument {-info} of gtsv")
    if not np.isfinite(interior).all():
        raise SolverError("tridiagonal solve produced non-finite values")
    p = np.concatenate([[p_in], interior, [p_out]])
    flux = a_mid * np.diff(p) / h
    return p, flux


def flux_residual(coef, h, p, rhs):
    """Relative flux-form residual of a candidate solution (interior max)."""
    coef = np.asarray(coef, dtype=float)
    a_mid = 0.5 * (coef[:-1] + coef[1:])
    flux = a_mid * np.diff(p) / h
    lhs = (flux[1:] - flux[:-1]) / h
    f = np.asarray(rhs)[1:-1]
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(f)), np.max(np.abs(flux)) / h, 1e-300)
    return float(np.max(np.abs(lhs - f)) / scale)


# -- the three pressure problems -------------------------------------------

def solve_p0(R, dR_dt, h, fluid: "FluidParams", bc: PressureBC,
             t: float = 0.0):
    """Leading-order pressure: (R^4 p0')' = 16 nu rho0 R dR/dt.

    Takes the bare nodal radius and its rate on a grid of spacing h, so
    the wall fixed point can call it without building a WallState.
    Returns (p0, flux).
    """
    if (R <= 0).any():
        raise SolverError("wall radius must stay positive")
    p_in, p_out = bc.p0_at(t)
    rhs = 16.0 * fluid.nu * fluid.rho0 * R * dR_dt
    return solve_flux_bvp(R**4, h, rhs, p_in, p_out)


def solve_p1(wall: "WallState", bc: PressureBC):
    """First pressure correction: (R^4 p1')' = 0.  Returns (p1, flux)."""
    return solve_flux_bvp(wall.R**4, wall.h, np.zeros_like(wall.R),
                          bc.p1_inlet, bc.p1_outlet)


def p02_bracket(wall: "WallState", fluid: "FluidParams", kappa, p0_data,
                body: "BodyForce"):
    """Nodal bracket whose s1-derivative drives the p02 problem.

    Assembled term by term; every term is (Pa * m^4)-valued so the bracket
    is dimensionally a flux R^4 p'.
    """
    dp0, d2p0, d3p0, dt_dp0 = p0_data
    r, dr, d2r, rdot = wall.R, wall.dR_ds1, wall.d2R_ds12, wall.dR_dt
    rho0, nu = fluid.rho0, fluid.nu
    kappa = np.asarray(kappa, dtype=float)
    return (
        -3.0 * r**8 / (64.0 * rho0 * nu**2) * dp0 * d2p0
        - r**6 / 12.0 * d3p0
        - kappa**2 * r**6 / 48.0 * dp0
        + r**5 / (2.0 * nu) * rdot * dp0
        - r**7 / (8.0 * rho0 * nu**2) * dr * dp0**2
        - r**4 / 2.0 * dr**2 * dp0
        - r**5 / 2.0 * d2r * dp0
        - r**5 * dr * d2p0
        + r**6 / (6.0 * nu) * dt_dp0
        + r**4 * rho0 * body.b1
    )


def solve_p02(wall: "WallState", fluid: "FluidParams", kappa, p0_data,
              body: "BodyForce", bc: PressureBC):
    """Axisymmetric second-order pressure: (R^4 p02')' = d/ds1 [bracket].

    ``p0_data`` is (dp0, d2p0, d3p0, dt_dp0).  Returns (p02, flux).
    """
    bracket = p02_bracket(wall, fluid, kappa, p0_data, body)
    return solve_flux_bvp(wall.R**4, wall.h,
                          bracket_derivative(bracket, wall.h),
                          bc.p02_inlet, bc.p02_outlet)


def solve_pressures(wall: "WallState", fluid: "FluidParams", bc: PressureBC,
                    kappa, body: "BodyForce", prev: "WallState | None" = None,
                    dt: float | None = None) -> PressureExpansion:
    """Solve the full pressure hierarchy on the wall's grid at ``wall.t``.

    The only place the derivatives of the solved grids are taken.  The
    mixed time derivative dt_dp0 is the backward difference of dp0 against
    dp0 of the previous step's wall ``prev``, solved at ``prev.t`` (zero
    without ``prev``, on the first step, and in steady mode).
    """
    h = wall.h
    p0, flux0 = solve_p0(wall.R, wall.dR_dt, h, fluid, bc, t=wall.t)
    dp0 = fd_derivative(p0, h)
    d2p0 = fd_second_derivative(p0, h)
    d3p0 = fd_third_derivative(p0, h)
    if prev is not None and dt:
        prev_p0 = solve_p0(prev.R, prev.dR_dt, h, fluid, bc, t=prev.t)[0]
        dt_dp0 = (dp0 - fd_derivative(prev_p0, h)) / dt
    else:
        dt_dp0 = np.zeros_like(p0)
    p1, flux1 = solve_p1(wall, bc)
    p02, flux2 = solve_p02(wall, fluid, kappa, (dp0, d2p0, d3p0, dt_dp0),
                           body, bc)
    return PressureExpansion(
        s1=wall.s1, p0=p0, dp0=dp0, d2p0=d2p0, d3p0=d3p0, dt_dp0=dt_dp0,
        p1=p1, dp1=fd_derivative(p1, h), d2p1=fd_second_derivative(p1, h),
        p02=p02, dp02=fd_derivative(p02, h),
        flux_p0=flux0, flux_p1=flux1, flux_p02=flux2,
    )
