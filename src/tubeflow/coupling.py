"""Wall behavior laws and the quasi-static pressure/radius coupling.

The wall is either rigid (the radius profile is data) or follows the
algebraic elastic law

    p0 - p_e = (E h0 / R0^2) (R - R0),

in which case the leading-order pressure and the law are solved together
by one under-relaxed fixed point.  Each step reads the p0 boundary values
of :class:`~tubeflow.pressure.PressureBC` once, at its end time, and
hands them to every sweep: one :func:`~tubeflow.pressure.solve_p0`, which
returns the p0 grid alone, and one run of the law's kernel
:func:`_elastic_law`.  The sweeps solve as every axial solve does, with
LAPACK's ``dgtsv`` from numpy's own LAPACK, or with the Python port that
has its bits where numpy exports none (see :mod:`tubeflow.pressure`);
neither loads scipy.  The kernel writes R = (p0 - p_e) c + R0 into an
array it is given and raises :class:`WallCollapseError` if some R is not
positive; its operands are p_e, c = R0^2 / (E h0) and R0 as float
arrays, the last two made once by an :class:`ElasticWall`.  :func:`apply_wall_law` checks the law
and p0's nodes, then runs the kernel; a step makes those checks once,
against its grid, and runs the kernel, with its collapse check, every
sweep.  A step makes its arrays once: a
:class:`~tubeflow.pressure.FluxWorkspace` for the p0 system, the wall
rate, the law's new radius and the residual.  Every sweep writes into
them in place, with the float operations of a sweep in fresh arrays: it
solves, runs the kernel, relaxes the radius in place and writes the rate
of the relaxed radius for the next sweep; the WallState a step returns
owns its R and dR/dt.

The model is quasi-static: the wall radius R(t, s1) is the only state
carried from one time step to the next.  :func:`advance_time_step` takes
one implicit step of the wall with the wall velocity (R - R_old)/dt, or,
with ``dt`` None, the steady equilibrium with dR/dt = 0, and returns the
new WallState of R and dR/dt, nothing derived.  A step makes at most
:data:`MAX_SWEEPS` sweeps, a module constant.  R', R'' and the pressures
are read off the final wall by :func:`tubeflow.pressure.solve_pressures`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CouplingDivergenceError, TubeflowError, WallCollapseError
from .pressure import (FluxWorkspace, PressureBC, _any_nonpositive,
                       solve_p0)

# sweeps of the wall fixed point before a step is reported as divergent
MAX_SWEEPS = 100


@dataclass(frozen=True)
class WallState:
    """Radius profile R(t, s1) and its rate dR/dt on the axis grid, at t."""

    s1: np.ndarray
    R: np.ndarray
    dR_dt: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        n = self.s1.size
        for name, v in (("R", self.R), ("dR_dt", self.dR_dt)):
            if v.size != n:
                raise TubeflowError(f"{name} has {v.size} nodes, the axis "
                                    f"grid has {n}")
        # minimum and maximum propagate NaN, which fails both comparisons
        if not (np.minimum.reduce(self.R, axis=None) > 0
                and np.maximum.reduce(self.R, axis=None) < np.inf):
            raise TubeflowError(
                "wall radius must be finite and positive everywhere")
        # a scalar test: the Picard loop builds one state per step
        if not math.isfinite(self.t):
            raise TubeflowError(f"wall time t must be finite, got {self.t}")
        # counting finite entries costs less than an all() reduction
        if np.count_nonzero(np.isfinite(self.dR_dt)) < self.dR_dt.size:
            raise TubeflowError("wall rate dR/dt must be finite everywhere")

    @classmethod
    def from_radius(cls, s1, R, dR_dt=None, t=0.0):
        """Build a state from a radius profile and its rate (zero if None),
        each a scalar or one value per node, on a 1-D axis grid of equal
        steps; the one-sided R'' of solve_pressures needs 4 nodes."""
        s1 = np.asarray(s1, dtype=float)
        if s1.ndim != 1:
            raise TubeflowError(
                f"the axis grid must be 1-D, got shape {s1.shape}")
        if s1.size < 4:
            raise TubeflowError(
                f"a wall needs at least 4 axis nodes, got {s1.size}")
        # every stencil reads h = s1[1] - s1[0]; NaN fails the test too
        step = np.diff(s1)
        h = step[0]
        if not (h > 0 and np.abs(step - h).max() <= 1e-8 * h):
            raise TubeflowError("the axis grid must increase in equal steps")

        def on_grid(name, v):
            v = np.asarray(v, dtype=float)
            try:
                return np.broadcast_to(v, s1.shape).copy()
            except ValueError:
                raise TubeflowError(f"{name} has {v.size} nodes, the axis "
                                    f"grid has {s1.size}") from None

        R = on_grid("R", R)
        rate = np.zeros_like(R) if dR_dt is None else on_grid("dR_dt", dR_dt)
        return cls(s1=s1, R=R, dR_dt=rate, t=t)

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

    @cached_property
    def constants(self):
        """(R0, R0^2 / (E h0)) as float arrays, 0-d for a scalar R0 and
        one value per node for a per-node R0; R0^2 is R0 * R0, the bits of
        numpy's array square."""
        r0 = np.asarray(self.R0, dtype=float)
        return r0, np.asarray(r0 * r0 / (self.E * self.h0))


def _law_operands(law: ElasticWall, n):
    """The operands (p_e, R0^2 / (E h0), R0) of ``law``'s kernel, as float
    arrays, which a ufunc reads without converting, for a p0 of ``n``
    nodes, after checking that a per-node R0 has ``n`` rest radii."""
    r0, compliance = law.constants
    if r0.ndim and n != r0.size:
        raise TubeflowError(f"p0 has {n} nodes, elastic law has "
                            f"{r0.size} rest radii")
    return np.asarray(law.p_e, dtype=float), compliance, r0


def _elastic_law(p0, p_e, compliance, r0, out):
    """The law kernel, on checked operands: R = (p0 - p_e) c + R0, written
    into ``out`` (None: a new array); raises if some R is not positive."""
    r = np.subtract(p0, p_e, out=out)
    r *= compliance
    r += r0
    if r.size and _any_nonpositive(r):
        raise WallCollapseError(
            f"elastic law collapsed the wall (min R = {r.min():.3g})"
        )
    return r


def apply_wall_law(law: ElasticWall, p0, out=None):
    """Radius from the elastic law: R = R0 + (R0^2 / E h0)(p0 - p_e),
    written into ``out`` when it is given (an array of p0's length).
    Checks the law and p0's nodes, then runs the law's kernel."""
    if not isinstance(law, ElasticWall):
        raise TubeflowError("apply_wall_law needs the elastic variant")
    p0 = np.asarray(p0, dtype=float)
    return _elastic_law(p0, *_law_operands(law, p0.size), out)


def wall_law_residual(law: ElasticWall, p0, R):
    """Pointwise residual of the elastic law, relative to its stiffness scale."""
    r0 = law.constants[0]
    stiff = law.E * law.h0 / r0**2
    scale = np.maximum(np.abs(np.asarray(p0) - law.p_e), stiff * r0)
    return np.abs((np.asarray(p0) - law.p_e) - stiff * (np.asarray(R) - r0)) \
        / np.maximum(scale, 1e-300)


def advance_time_step(state: WallState, law, fluid, bc: PressureBC,
                      dt=None) -> WallState:
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
    history and the step's end time, after :data:`MAX_SWEEPS` sweeps.
    """
    if dt is not None and not 0 < dt < np.inf:   # NaN fails it too
        raise TubeflowError(f"time step must be finite and positive, "
                            f"got {dt}")
    t = state.t if dt is None else state.t + dt
    if isinstance(law, RigidWall):
        return WallState(state.s1, state.R, np.zeros_like(state.R), t)
    if not isinstance(law, ElasticWall):
        raise TubeflowError(f"unknown wall law {law!r}")
    r_old, h = state.R, state.h
    tol = 1e-12 if dt is None else 1e-10
    p_in, p_out = bc.p0_at(t)

    # the step's workspace, written over by every sweep: the p0 system,
    # the wall rate (0 when steady), the law's radius less the current one
    # and its magnitude; building it checks the grid, and the law is
    # checked against the grid once, here
    work = FluxWorkspace(r_old.size, h)
    operands = _law_operands(law, r_old.size)
    rate = np.zeros_like(r_old)
    change, gap = np.empty_like(r_old), np.empty_like(r_old)

    # the rate of r_cur = r_old is (r_old - r_old)/dt, +0.0 at every node;
    # omega and dt are 0-d arrays, which a ufunc reads without converting
    r_cur = r_old.copy()
    omega = np.array(0.5)
    step = None if dt is None else np.array(dt, dtype=float)
    history = []
    for _ in range(MAX_SWEEPS):
        p0 = solve_p0(r_cur, rate, h, fluid, p_in, p_out, work)
        _elastic_law(p0, *operands, change)
        change -= r_cur
        # x[x.argmax()] is the bits of x.max(), a NaN included, at a third
        # of the cost of a reduction over a few hundred nodes
        np.abs(change, out=gap)
        resid = float(gap[gap.argmax()])
        history.append(resid)
        converged = resid <= tol * float(r_cur[r_cur.argmax()])
        if not converged and len(history) > 3 and history[-1] > history[-2]:
            omega *= 0.5
        change *= omega
        r_cur += change
        if step is not None:
            np.subtract(r_cur, r_old, out=rate)
            rate /= step
        if converged:
            return WallState(state.s1, r_cur, rate, t)
    raise CouplingDivergenceError(
        f"wall coupling did not converge in {MAX_SWEEPS} iterations "
        f"(last residual {history[-1]:.3e})", history, t,
    )
