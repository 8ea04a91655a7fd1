"""Wall behavior laws and the quasi-static pressure/radius coupling.

The wall is either rigid (the radius profile is data) or follows the
algebraic elastic law

    p0 - p_e = (E h0 / R0^2) (R - R0),

in which case the leading-order pressure and the law are solved together
by one under-relaxed fixed point, :func:`solve_wall`.

Every run advances through :func:`advance_time_step`: one implicit step
with the wall velocity (R - R_old)/dt, or, with ``dt`` None, the steady
equilibrium with dR/dt = 0.  Rigid and elastic walls share that step and
end in the same single solve of the pressure hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CouplingDivergenceError, TubeflowError, WallCollapseError
from .pressure import (
    PressureBC,
    fd_derivative,
    fd_second_derivative,
    solve_p0,
    solve_pressures,
)


@dataclass(frozen=True)
class WallState:
    """Radius profile R(t, s1) on the axis grid plus its derivatives."""

    s1: np.ndarray
    R: np.ndarray
    dR_ds1: np.ndarray
    d2R_ds12: np.ndarray
    dR_dt: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if np.any(self.R <= 0):
            raise TubeflowError("wall radius must be positive everywhere")

    @classmethod
    def from_radius(cls, s1, R, dR_dt=None, t=0.0):
        """Build a state from a radius profile; s1-derivatives by centered FD."""
        s1 = np.asarray(s1, dtype=float)
        R = np.broadcast_to(np.asarray(R, dtype=float), s1.shape).copy()
        h = s1[1] - s1[0]
        rate = np.zeros_like(R) if dR_dt is None else \
            np.broadcast_to(np.asarray(dR_dt, dtype=float), s1.shape).copy()
        return cls(s1=s1, R=R, dR_ds1=fd_derivative(R, h),
                   d2R_ds12=fd_second_derivative(R, h), dR_dt=rate, t=t)

    @property
    def h(self):
        return float(self.s1[1] - self.s1[0])


@dataclass(frozen=True)
class RigidWall:
    """dR/dt = 0; the initial radius profile never changes."""


@dataclass(frozen=True)
class ElasticWall:
    """Algebraic elastic law parameters.

    E: Young modulus (Pa), h0: wall thickness (m), R0: rest radius (m,
    scalar or per-node profile), p_e: external pressure (Pa).
    """

    E: float
    h0: float
    R0: object
    p_e: float = 0.0

    def __post_init__(self):
        if self.E <= 0 or self.h0 <= 0 or np.any(np.asarray(self.R0) <= 0):
            raise TubeflowError("elastic wall needs positive E, h0, R0")

    def rest_radius(self, n):
        return np.broadcast_to(np.asarray(self.R0, dtype=float), (n,)).copy()


def apply_wall_law(law: ElasticWall, p0):
    """Radius from the elastic law: R = R0 + (R0^2 / E h0)(p0 - p_e)."""
    if not isinstance(law, ElasticWall):
        raise TubeflowError("apply_wall_law needs the elastic variant")
    p0 = np.asarray(p0, dtype=float)
    r0 = law.rest_radius(p0.size)
    r = r0 + r0**2 / (law.E * law.h0) * (p0 - law.p_e)
    if np.any(r <= 0):
        raise WallCollapseError(
            f"elastic law collapsed the wall (min R = {r.min():.3g})"
        )
    return r


def wall_law_residual(law: ElasticWall, p0, R):
    """Pointwise residual of the elastic law, relative to its stiffness scale."""
    r0 = law.rest_radius(np.asarray(p0).size)
    stiff = law.E * law.h0 / r0**2
    scale = np.maximum(np.abs(np.asarray(p0) - law.p_e), stiff * r0)
    return np.abs((np.asarray(p0) - law.p_e) - stiff * (np.asarray(R) - r0)) \
        / np.maximum(scale, 1e-300)


def solve_wall(state: WallState, law: ElasticWall, fluid, bc: PressureBC, t,
               dt=None, max_iter: int = 100) -> WallState:
    """Elastic wall and leading-order pressure at time t, solved together.

    Starting from ``state.R``, iterates {solve p0 with dR/dt = (R - R_old)/dt,
    or dR/dt = 0 when ``dt`` is None; update R from the law} with
    relaxation factor 0.5 until max |change| <= tol * max R, halving the
    factor whenever the residual stops decreasing after the first three
    sweeps.  tol is 1e-12 for the steady equilibrium and 1e-10 per time
    step.  Raises CouplingDivergenceError, with the residual history,
    after ``max_iter`` sweeps.
    """
    r_old = state.R
    tol = 1e-12 if dt is None else 1e-10

    def wall(r):
        rate = None if dt is None else (r - r_old) / dt
        return WallState.from_radius(state.s1, r, dR_dt=rate, t=t)

    r_cur = r_old.copy()
    omega = 0.5
    history = []
    for _ in range(max_iter):
        p0 = solve_p0(wall(r_cur), fluid, bc, t=t)[0]
        r_target = apply_wall_law(law, p0)
        resid = float(np.max(np.abs(r_target - r_cur)))
        history.append(resid)
        if resid <= tol * float(np.max(r_cur)):
            return wall(r_cur + omega * (r_target - r_cur))
        if len(history) > 3 and history[-1] > history[-2]:
            omega *= 0.5
        r_cur = r_cur + omega * (r_target - r_cur)
    raise CouplingDivergenceError(
        f"wall coupling did not converge in {max_iter} iterations "
        f"(last residual {history[-1]:.3e})", history,
    )


def advance_time_step(state: WallState, law, fluid, bc: PressureBC, dt=None,
                      kappa=None, body=None, prev_dp0=None,
                      max_iter: int = 100) -> tuple:
    """Advance the coupled wall/pressure system by one implicit step.

    With ``dt`` None the step is the steady equilibrium at ``state.t``
    (dR/dt = 0); otherwise it ends at ``state.t + dt``.  A rigid wall keeps
    its radius; an elastic wall runs :func:`solve_wall`.  The pressure
    hierarchy is then solved once on the new wall.  Returns
    (new WallState, PressureExpansion).
    """
    from .expansion import BodyForce

    if dt is not None and dt <= 0:
        raise TubeflowError("time step must be positive")
    body = body or BodyForce()
    kappa = np.zeros_like(state.R) if kappa is None else np.asarray(kappa)
    t = state.t if dt is None else state.t + dt

    if isinstance(law, RigidWall):
        new_state = WallState.from_radius(state.s1, state.R, t=t)
    elif isinstance(law, ElasticWall):
        new_state = solve_wall(state, law, fluid, bc, t, dt=dt,
                               max_iter=max_iter)
    else:
        raise TubeflowError(f"unknown wall law {law!r}")
    pexp = solve_pressures(new_state, fluid, bc, kappa, body, t=t,
                           prev_dp0=prev_dp0, dt=dt)
    return new_state, pexp
