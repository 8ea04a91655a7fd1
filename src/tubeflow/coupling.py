"""Wall behavior laws and the quasi-static pressure/radius coupling.

The wall is either rigid (the radius profile is data) or follows the
algebraic elastic law

    p0 - p_e = (E h0 / R0^2) (R - R0),

in which case the leading-order pressure and the law are solved together
by one under-relaxed fixed point.  Each step reads the p0 boundary values
of :class:`~tubeflow.pressure.PressureBC` once, at its end time, and
hands them to every :func:`~tubeflow.pressure.solve_p0` sweep.

The model is quasi-static: the wall radius R(t, s1) is the only state
carried from one time step to the next.  :func:`advance_time_step` takes
one implicit step of the wall with the wall velocity (R - R_old)/dt, or,
with ``dt`` None, the steady equilibrium with dR/dt = 0, and returns the
new WallState.  The pressure hierarchy is read off the final wall by
:func:`tubeflow.pressure.solve_pressures`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CouplingDivergenceError, TubeflowError, WallCollapseError
from .pressure import PressureBC, fd_derivative, fd_second_derivative, solve_p0


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
        positive = np.append([self.E, self.h0], self.R0)
        if not ((positive > 0).all() and np.isfinite(positive).all()
                and np.isfinite(self.p_e)):
            raise TubeflowError("elastic wall needs finite positive E, h0, "
                                "R0 and a finite p_e")

    def rest_radius(self, n):
        return np.full(n, self.R0, dtype=float)


def apply_wall_law(law: ElasticWall, p0):
    """Radius from the elastic law: R = R0 + (R0^2 / E h0)(p0 - p_e)."""
    if not isinstance(law, ElasticWall):
        raise TubeflowError("apply_wall_law needs the elastic variant")
    p0 = np.asarray(p0, dtype=float)
    r0 = law.rest_radius(p0.size)
    r = r0 + r0**2 / (law.E * law.h0) * (p0 - law.p_e)
    if (r <= 0).any():
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


def advance_time_step(state: WallState, law, fluid, bc: PressureBC, dt=None,
                      max_iter: int = 100) -> WallState:
    """Advance the wall by one implicit step and return the new WallState.

    With ``dt`` None the step is the steady equilibrium at ``state.t``
    (dR/dt = 0); otherwise it ends at ``state.t + dt``.  A rigid wall keeps
    its radius.  An elastic wall and the leading-order pressure are solved
    together: starting from ``state.R``, iterate {solve p0 with
    dR/dt = (R - R_old)/dt, or dR/dt = 0 when ``dt`` is None; update R from
    the law} with relaxation factor 0.5 until max |change| <= tol * max R,
    halving the factor whenever the residual stops decreasing after the
    first three sweeps.  tol is 1e-12 for the steady equilibrium and 1e-10
    per time step.  Raises CouplingDivergenceError, with the residual
    history, after ``max_iter`` sweeps.
    """
    if dt is not None and dt <= 0:
        raise TubeflowError("time step must be positive")
    t = state.t if dt is None else state.t + dt
    if isinstance(law, RigidWall):
        return WallState.from_radius(state.s1, state.R, t=t)
    if not isinstance(law, ElasticWall):
        raise TubeflowError(f"unknown wall law {law!r}")

    r_old, h = state.R, state.h
    tol = 1e-12 if dt is None else 1e-10
    p_in, p_out = bc.p0_at(t)

    def rate(r):
        return np.zeros_like(r) if dt is None else (r - r_old) / dt

    r_cur = r_old.copy()
    omega = 0.5
    history = []
    for _ in range(max_iter):
        p0 = solve_p0(r_cur, rate(r_cur), h, fluid, p_in, p_out)[0]
        r_target = apply_wall_law(law, p0)
        resid = float(np.abs(r_target - r_cur).max())
        history.append(resid)
        if resid <= tol * float(r_cur.max()):
            r_new = r_cur + omega * (r_target - r_cur)
            return WallState.from_radius(state.s1, r_new, rate(r_new), t)
        if len(history) > 3 and history[-1] > history[-2]:
            omega *= 0.5
        r_cur = r_cur + omega * (r_target - r_cur)
    raise CouplingDivergenceError(
        f"wall coupling did not converge in {max_iter} iterations "
        f"(last residual {history[-1]:.3e})", history,
    )
