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
conservative too.  The interior system is symmetric tridiagonal.
:func:`solve_flux_bvp` lays it out in the one buffer of a
:class:`FluxWorkspace`: the grid (p_in, the interior right side, p_out)
followed by the diagonal.  It tests the whole buffer for finiteness
once, solves the interior in place and returns the head of the
buffer, so a solve copies neither its right side nor the solved
interior, and never writes into its inputs.

Every solve, the rigid run's three or four and the elastic wall's
thousands alike, calls LAPACK's ``dgtsv`` from the library numpy's own
``numpy.linalg`` already links, bound once with ctypes when this module
is imported: only a name that takes 64-bit ints (ILP64) is accepted,
``scipy_dgtsv_64_`` in numpy's wheels.  Where numpy's LAPACK exports no
such name, every solve runs :func:`_gtsv`, a Python port of ``dgtsv``
with LAPACK's bits, so the two back ends write the same bytes; neither
loads scipy.  The port is about 14 times slower a solve, which an
elastic wall's thousands of sweeps feel.  A :class:`FluxWorkspace`
binds, when it is built, everything a solve reads: an R^4 array and
views of its halves, the midpoint coefficients and views of theirs,
1/2, 1/h^2 and -1/h^2 as 0-d arrays, the buffer, the finiteness mask,
and the off-diagonal as the two rows of one array, the DL and DU that
dgtsv overwrites.  The assembly writes the off-diagonal into both rows,
so the bound call passes them as they are, and passes no pointer it has
to make; the port reads the first.  The wall's fixed point passes one
workspace for all the sweeps of a step, and :func:`solve_p0` writes R^4
into its array and its source straight into the buffer's right-side
slots, which :func:`solve_flux_bvp` then copies from nowhere.  Every
solve writes them with the float operations, in the order, of a solve
in fresh arrays, so a reused workspace gives the bits of a fresh one; a
solve called without one makes a fresh one, and what it returns is its
own.

:func:`solve_flux_bvp` and :func:`solve_p0` return the solved grid alone;
:func:`midpoint_flux` forms its flux.  :func:`solve_p0` takes bare radius
and rate arrays, not a WallState, and the two boundary values, not the
:class:`PressureBC`: the wall fixed point reads the boundary data once per
time step and calls it once per sweep without building a WallState.
:func:`solve_pressures` is the one way in to the hierarchy: it states
each right side once, solves the three on one wall, forms each solve's
midpoint flux once and keeps its flux-form residual against that right
side.  It is also the one place where derivatives are taken: the wall's
R' and R'', p0 up to the third, p1' (p1'' = -4 R' p1' / R from the p1
equation, not differenced), p02', and the mixed time derivative of p0',
for which it also solves p0 on the previous step's wall.  A run calls it
once, on its final wall.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

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
    """Solved grids, every derivative the velocity formulas use (R' and R''
    too), and each solve's relative flux-form residual ("p0", "p1", "p02")."""

    dR_ds1: np.ndarray
    d2R_ds12: np.ndarray
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
    flux_p0: np.ndarray = field(repr=False)
    flux_p1: np.ndarray = field(repr=False)
    residuals: dict


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

def _gtsv(off, diag, b):
    """LAPACK's dgtsv on the symmetric system (off, diag, off); returns INFO.

    Gaussian elimination with partial pivoting, operation for operation
    as in the reference dgtsv.f (indices from 0, INFO from 1), on
    ``tolist()`` floats: each float operation is LAPACK's, in LAPACK's
    order, so the solution it writes into ``b`` has LAPACK's bits.  INFO
    is the row of a zero pivot, where ``b`` is left as it was, or 0.  The
    input must be finite, as :func:`solve_flux_bvp` ensures: a NaN pivot
    could make Python divide by zero where LAPACK goes on.  The last pass
    skips the interchange's fill-in, which would reach past the last row.
    """
    dl, d, du, x = off.tolist(), diag.tolist(), off.tolist(), b.tolist()
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            # no row interchange required
            if d[i] != 0.0:
                fact = dl[i] / d[i]
                d[i + 1] = d[i + 1] - fact * du[i]
                x[i + 1] = x[i + 1] - fact * x[i]
            else:
                return i + 1
            dl[i] = 0.0
        else:
            # interchange rows i and i + 1
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = x[i]
            x[i] = x[i + 1]
            x[i + 1] = temp - fact * x[i + 1]
    if d[n - 1] == 0.0:
        return n
    # back solve with the matrix U from the factorization
    x[n - 1] = x[n - 1] / d[n - 1]
    if n > 1:
        x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - dl[i] * x[i + 2]) / d[i]
    b[:] = x
    return 0


# dgtsv under the names that take 64-bit ints: numpy's scipy-openblas64
# prefixes and suffixes its symbols, an ILP64 OpenBLAS suffixes them.  A
# plain dgtsv_ may take 32-bit ints, so it is never used.
_ILP64_DGTSV = ("scipy_dgtsv_64_", "dgtsv_64_")


def _resolve_dgtsv():
    """LAPACK's ILP64 dgtsv from the library numpy.linalg links, or None.

    dlsym on the handle of numpy's ``_umath_linalg`` searches the
    libraries it depends on too, numpy's LAPACK among them; loading it
    again only takes another reference.  No ``argtypes``: every argument
    is a pointer :func:`_bind_gtsv` makes with ``byref``, which ctypes
    passes as it is, where declared argtypes would convert each of the
    eight on every call: 0.8 us a call, against about 5 us for a whole
    solve at n = 257.
    """
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for name in _ILP64_DGTSV:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = None
            return fn
    return None


# the dgtsv every FluxWorkspace binds; None: the port _gtsv
_DGTSV = _resolve_dgtsv()


def _bind_gtsv(work):
    """The solve of ``work``'s interior system (off, diag, off) x = b, with
    its arguments bound now: a call writes x into ``b`` and returns INFO.

    LAPACK's dgtsv overwrites the off-diagonals it is given, so
    :func:`solve_flux_bvp` writes the off-diagonal into both rows of
    ``work.off``, ``dl`` and ``du``, which dgtsv reads as DL and DU, and
    the call copies nothing; N, NRHS, LDB and INFO sit in one block of
    64-bit ints, and ``b`` and ``diag`` are read where they sit in
    ``buf``, from node 1 and node n.  A ``byref`` pointer keeps its memory
    alive, so the call stays valid for as long as it is held.  Without
    that dgtsv, the port :func:`_gtsv`, which reads ``dl`` alone.
    """
    if _DGTSV is None:
        return partial(_gtsv, work.dl, work.diag, work.b)
    n, byref = work.n, ctypes.byref
    ints = (ctypes.c_int64 * 4)(n - 2, 1, n - 2, 0)
    buf, off = (ctypes.c_double.from_buffer(a) for a in (work.buf, work.off))
    f8, i8 = work.buf.itemsize, ctypes.sizeof(ctypes.c_int64)
    # dgtsv(N, NRHS, DL, D, DU, B, LDB, INFO)
    args = (byref(ints), byref(ints, i8), byref(off), byref(buf, f8 * n),
            byref(off, f8 * (n - 3)), byref(buf, f8), byref(ints, 2 * i8),
            byref(ints, 3 * i8))
    dgtsv = _DGTSV

    def gtsv():
        dgtsv(*args)
        return ints[3]

    return gtsv


def bracket_derivative(bracket, h):
    """Nodal d/ds1 of a bracket: the difference of its midpoint averages.

    Set at the interior nodes, zero at the two Dirichlet ends.
    """
    br = np.asarray(bracket, dtype=float)
    br_mid = 0.5 * (br[:-1] + br[1:])
    out = np.zeros_like(br)
    out[1:-1] = (br_mid[1:] - br_mid[:-1]) / h
    return out


class FluxWorkspace:
    """The arrays of one flux-form system on ``n`` nodes of step ``h``.

    Built once, it serves every solve of that system, and binds all a
    solve reads: the coefficient array ``coef`` (R^4 for :func:`solve_p0`)
    and views of its two halves, the midpoint coefficients and views of
    their halves and interior, the off-diagonal ``off``, whose two rows
    ``dl`` and ``du`` are the DL and DU that dgtsv overwrites, the
    (grid | diagonal) buffer, whose grid head a solve returns, and the
    finiteness mask and a view of it for the solved interior.  1/h^2 is taken once, here, and 1/2, 1/h^2 and
    -1/h^2 are kept as 0-d arrays too, which a ufunc reads without
    converting a Python float.  ``gtsv`` is the interior solve, bound to
    these arrays (:func:`_bind_gtsv`).  Building it checks the grid: h
    finite and positive, at least 8 nodes.  A solve overwrites every
    array, so what it returned holds only until the next solve in the
    same workspace.
    """

    def __init__(self, n, h):
        if not 0 < h < np.inf:   # NaN fails it too
            raise SolverError(f"grid step h must be finite and positive, "
                              f"got {h}")
        if n < 8:
            raise SolverError("grid too coarse: need at least 8 nodes")
        self.n, self.h, self.inv_h2 = n, h, 1.0 / h**2
        self.half, self.inv_h2_op, self.neg_inv_h2_op = (
            np.array(v) for v in (0.5, self.inv_h2, -self.inv_h2))
        self.coef = np.empty(n)
        self.coef_lo, self.coef_hi = self.coef[:-1], self.coef[1:]
        self.a_mid = np.empty(n - 1)
        self.a_lo, self.a_hi = self.a_mid[:-1], self.a_mid[1:]
        self.a_in = self.a_mid[1:-1]
        self.off = np.empty((2, n - 3))
        self.dl, self.du = self.off
        self.buf = np.empty(2 * n - 2)
        self.p, self.diag = self.buf[:n], self.buf[n:]
        self.b = self.p[1:-1]
        self.finite = np.empty(2 * n - 2, dtype=bool)
        self.finite_b = self.finite[:n - 2]
        self.gtsv = _bind_gtsv(self)


def _workspace(work, n, h):
    """``work``, or a fresh FluxWorkspace(n, h) when it is None."""
    if work is None:
        return FluxWorkspace(n, h)
    if n != work.n or h != work.h:
        raise SolverError(f"workspace is for {work.n} nodes at h = "
                          f"{work.h}, not {n} at h = {h}")
    return work


def solve_flux_bvp(coef, h, rhs, p_in, p_out, work=None):
    """Solve (coef u')' = rhs with Dirichlet data, conservative flux form.

    coef and rhs are nodal; midpoint coefficients are arithmetic averages
    and the right side is read at the interior nodes.  Returns the grid.

    The solve runs in ``work`` (a :class:`FluxWorkspace` for coef's nodes
    and h; a fresh one when None): coef is copied into the workspace's
    coefficient array, and the right side into its grid, each unless it
    already is that array; the buffer holds the grid (p_in, the interior
    right side, p_out) followed by the diagonal, is tested for finiteness
    once, and the workspace's ``gtsv`` solves the interior in place and
    returns LAPACK's INFO.  coef and rhs are only read; the solve writes
    into the workspace alone.
    """
    coef = np.asarray(coef, dtype=float)
    work = _workspace(work, coef.size, h)
    n = work.n
    rhs = np.asarray(rhs, dtype=float)
    if rhs.size != n:
        raise SolverError(f"right side has {rhs.size} nodes, "
                          f"coefficient has {n}")
    if coef is not work.coef:
        work.coef[:] = coef
    a_mid = np.add(work.coef_lo, work.coef_hi, out=work.a_mid)
    a_mid *= work.half
    if _any_nonpositive(a_mid):
        raise SolverError("singular flux coefficient (R -> 0?)")
    p, b = work.p, work.b
    if rhs is not p:
        b[:] = rhs[1:-1]
    p[0], p[-1] = p_in, p_out

    # Dirichlet unknowns eliminated up front: solve the interior system so
    # the boundary data is held exactly.  Symmetric tridiagonal: dgtsv,
    # which overwrites both off-diagonals, so both rows are written; a
    # multiply into row 0 and a copy cost less than one multiply broadcast
    # into both rows
    np.multiply(work.a_in, work.inv_h2_op, out=work.dl)
    work.du[:] = work.dl
    diag = np.add(work.a_lo, work.a_hi, out=work.diag)
    diag *= work.neg_inv_h2_op
    inv_h2 = work.inv_h2
    b[0] -= a_mid[0] * p_in * inv_h2
    b[-1] -= a_mid[-1] * p_out * inv_h2
    # a mask's least entry, m[m.argmin()], is False iff some entry is: a
    # third less than counting its True entries, a third of an all()
    finite = np.isfinite(work.buf, out=work.finite)
    if not finite[finite.argmin()]:
        raise SolverError("tridiagonal system contains infs or NaNs")
    info = work.gtsv()
    if info:
        raise SolverError("singular matrix" if info > 0 else
                          f"illegal value in argument {-info} of gtsv")
    finite = np.isfinite(b, out=work.finite_b)
    if not finite[finite.argmin()]:
        raise SolverError("tridiagonal solve produced non-finite values")
    return p


def _any_nonpositive(x):
    """(x <= 0).any() of a non-empty 1-D array, NaN skipped as the mask
    does.  x[x.argmin()] is the least entry at a third of the cost of a
    reduction; argmin stops at a NaN, and then fmin, which skips it,
    decides."""
    low = x[x.argmin()]
    return (low if low == low else np.fmin.reduce(x, axis=None)) <= 0


def midpoint_flux(coef, h, p):
    """Discrete flux a_{i+1/2} (p_{i+1} - p_i) / h of a solved grid."""
    coef = np.asarray(coef, dtype=float)
    return 0.5 * (coef[:-1] + coef[1:]) * np.diff(p) / h


def flux_residual(flux, h, rhs):
    """Relative flux-form residual of a solved grid's midpoint flux
    (:func:`midpoint_flux`) against its nodal right side (interior max)."""
    lhs = (flux[1:] - flux[:-1]) / h
    f = np.asarray(rhs)[1:-1]
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(f)), np.max(np.abs(flux)) / h, 1e-300)
    return float(np.max(np.abs(lhs - f)) / scale)


# -- the three pressure problems -------------------------------------------

def _p0_source(R, dR_dt, fluid: "FluidParams", out=None):
    """Right side of the leading-order problem: 16 nu rho0 R dR/dt."""
    src = np.multiply(16.0 * fluid.nu * fluid.rho0, R, out=out)
    src *= dR_dt
    return src


def solve_p0(R, dR_dt, h, fluid: "FluidParams", p_in, p_out, work=None):
    """Leading-order pressure: (R^4 p0')' = 16 nu rho0 R dR/dt.

    Takes the bare nodal radius and its rate on a grid of spacing h, and
    the boundary values ``PressureBC.p0_at`` gives at the solve's time, so
    the wall fixed point can call it without building a WallState or
    reading the boundary data again.  Returns the solved p0; ``work`` is
    :func:`solve_flux_bvp`'s, and R^4 and the source are
    written into the workspace, the source straight into the interior of
    its grid.  R and dR_dt may be any sequences of floats.
    """
    R = np.asarray(R, dtype=float)
    dR_dt = np.asarray(dR_dt, dtype=float)
    if dR_dt.size != R.size:
        raise SolverError(f"rate has {dR_dt.size} nodes, radius has "
                          f"{R.size}")
    if R.size and _any_nonpositive(R):   # empty: the workspace's error
        raise SolverError("wall radius must stay positive")
    work = _workspace(work, R.size, h)
    np.power(R, 4, out=work.coef)
    _p0_source(R[1:-1], dR_dt[1:-1], fluid, work.b)
    return solve_flux_bvp(work.coef, h, work.p, p_in, p_out, work)


def p02_bracket(wall: "WallState", r_data, fluid: "FluidParams", kappa,
                p0_data, body: "BodyForce"):
    """Nodal bracket whose s1-derivative drives the p02 problem.

    Assembled term by term; every term is (Pa * m^4)-valued so the bracket
    is dimensionally a flux R^4 p'.
    """
    dr, d2r = r_data
    dp0, d2p0, d3p0, dt_dp0 = p0_data
    r, rdot = wall.R, wall.dR_dt
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


def solve_pressures(wall: "WallState", fluid: "FluidParams", bc: PressureBC,
                    kappa, body: "BodyForce", prev: "WallState | None" = None,
                    dt: float | None = None) -> PressureExpansion:
    """Solve the full pressure hierarchy on the wall's grid at ``wall.t``.

    The only place derivatives are taken, the wall's R' and R'' too.  The
    mixed time derivative dt_dp0 is the backward difference of dp0 against
    dp0 of the previous step's wall ``prev``, solved at ``prev.t`` (zero
    without ``prev``, on the first step, and in steady mode).
    """
    h = wall.h
    dR, d2R = fd_derivative(wall.R, h), fd_second_derivative(wall.R, h)
    p0 = solve_p0(wall.R, wall.dR_dt, h, fluid, *bc.p0_at(wall.t))
    dp0 = fd_derivative(p0, h)
    d2p0 = fd_second_derivative(p0, h)
    d3p0 = fd_third_derivative(p0, h)
    if prev is not None and dt:
        prev_p0 = solve_p0(prev.R, prev.dR_dt, h, fluid, *bc.p0_at(prev.t))
        dt_dp0 = (dp0 - fd_derivative(prev_p0, h)) / dt
    else:
        dt_dp0 = np.zeros_like(p0)
    r4 = wall.R**4
    rhs1 = np.zeros_like(wall.R)
    p1 = solve_flux_bvp(r4, h, rhs1, bc.p1_inlet, bc.p1_outlet)
    dp1 = fd_derivative(p1, h)
    d2p1 = -4.0 * dR * dp1 / wall.R + 0.0   # +0.0 where p1' = 0
    bracket = p02_bracket(wall, (dR, d2R), fluid, kappa,
                          (dp0, d2p0, d3p0, dt_dp0), body)
    rhs02 = bracket_derivative(bracket, h)
    p02 = solve_flux_bvp(r4, h, rhs02, bc.p02_inlet, bc.p02_outlet)
    rhs0 = _p0_source(wall.R, wall.dR_dt, fluid)
    flux0, flux1 = midpoint_flux(r4, h, p0), midpoint_flux(r4, h, p1)
    return PressureExpansion(
        p0=p0, dp0=dp0, d2p0=d2p0, d3p0=d3p0, dt_dp0=dt_dp0,
        dR_ds1=dR, d2R_ds12=d2R, p1=p1, dp1=dp1, d2p1=d2p1,
        p02=p02, dp02=fd_derivative(p02, h), flux_p0=flux0, flux_p1=flux1,
        residuals={"p0": flux_residual(flux0, h, rhs0),
                   "p1": flux_residual(flux1, h, rhs1),
                   "p02": flux_residual(midpoint_flux(r4, h, p02), h,
                                        rhs02)},
    )
