"""Exact calculus for bivariate polynomials on the unit disc.

Every cross-section field (axial velocity terms, transversal velocity
components, pressure corrections) is a polynomial in the local cartesian
coordinates (z2, z3) of the cross section.  This module supplies the
polynomial ring, exact differentiation, exact disc integration, and the
polar/Fourier conversions that the residual checks are built on.

Coefficients may be ``fractions.Fraction`` (exact verification domain) or
``float`` (runtime fields scaled by pressure data), or :class:`NodeArray`
(one float per axis node, every node at once); all operations preserve
whichever domain they are given.  :meth:`DiscPoly.evaluate` takes a point,
or a whole grid of points as two :class:`NodeArray`, such as the polar
grids of :func:`polar_grid` that the export and the plots sample.

Two rules hold in every domain, and keep one code path cheap in all three:

- *Zero means falsy.*  A coefficient is dropped when ``not c``, never by
  ``c != 0``: the truth value is the same test for ``Fraction``, int and
  float (NaN counts as nonzero, +-0.0 as zero), and for a
  :class:`NodeArray` it is "nonzero at some point" without building a
  boolean array first.
- *A float coefficient times an exact table uses the table's float.*  The
  disc moments and the Fourier modes of ``cos^m sin^n`` are exact
  ``Fraction`` tables; a float or node-array coefficient is multiplied by
  a cached float of each entry.  The bits are those of ``c * Fraction``,
  which Python computes as ``float(c) * float(Fraction)``, and a node
  array stays a float array.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import pi

import numpy as np


class DiscPoly:
    """Sparse bivariate polynomial sum_{m,n} c[m,n] z2^m z3^n.

    Canonical form: zero coefficients are never stored.  Instances are
    immutable in use (no mutating API) and safe to share.
    """

    __slots__ = ("coeffs",)

    # numpy defers ``array * poly`` (and +, -) to the polynomial's own
    # reflected operator, which scales each coefficient by the array
    __array_ufunc__ = None

    def __init__(self, coeffs=None):
        clean = {}
        for (m, n), c in (coeffs or {}).items():
            if m < 0 or n < 0:
                raise ValueError(f"negative exponent in monomial ({m},{n})")
            if c:
                clean[(int(m), int(n))] = c
        self.coeffs = clean

    @classmethod
    def _canonical(cls, items):
        """Instance from (monomial, coefficient) pairs whose monomials are
        known to be valid: the exponents are not re-checked, only the zero
        coefficients are dropped.  Every ring operation builds through it.
        """
        poly = object.__new__(cls)
        poly.coeffs = {k: c for k, c in items if c}
        return poly

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls._canonical([((0, 0), c)])

    @classmethod
    def monomial(cls, m, n, c=1):
        return cls({(m, n): c})

    @classmethod
    def z2(cls):
        return cls({(1, 0): 1})

    @classmethod
    def z3(cls):
        return cls({(0, 1): 1})

    @classmethod
    def radius_sq(cls):
        """z2^2 + z3^2."""
        return cls({(2, 0): 1, (0, 2): 1})

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = _as_poly(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return DiscPoly._canonical(out.items())

    __radd__ = __add__

    def __sub__(self, other):
        out = dict(self.coeffs)
        for key, c in _as_poly(other).coeffs.items():
            out[key] = out.get(key, 0) - c
        return DiscPoly._canonical(out.items())

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __neg__(self):
        return DiscPoly._canonical((k, -c) for k, c in self.coeffs.items())

    def __mul__(self, other):
        if isinstance(other, DiscPoly):
            out = {}
            for (m1, n1), c1 in self.coeffs.items():
                for (m2, n2), c2 in other.coeffs.items():
                    key = (m1 + m2, n1 + n2)
                    out[key] = out.get(key, 0) + c1 * c2
            return DiscPoly._canonical(out.items())
        return DiscPoly._canonical((k, c * other)
                                   for k, c in self.coeffs.items())

    def __rmul__(self, other):
        return DiscPoly._canonical((k, other * c)
                                   for k, c in self.coeffs.items())

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = None   # no product with the constant 1
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:    # no square past the last bit
                base = base * base
        return DiscPoly.constant(1) if out is None else out

    def __eq__(self, other):
        if isinstance(other, DiscPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, float, Fraction)):
            return self.coeffs == DiscPoly.constant(other).coeffs
        return NotImplemented

    # -- queries --------------------------------------------------------
    def is_zero(self):
        return not self.coeffs

    def coeff(self, m, n):
        return self.coeffs.get((m, n), 0)

    def max_abs(self):
        """Largest |coefficient|; per node for node-array coefficients."""
        mags = [abs(c) for c in self.coeffs.values()]
        if any(isinstance(m, np.ndarray) for m in mags):
            return reduce(np.maximum, mags)
        return max(mags, default=0)

    def evaluate(self, z2, z3):
        total = 0
        for (m, n), c in self.coeffs.items():
            total = total + c * z2**m * z3**n
        return total

    def to_float(self):
        return DiscPoly._canonical((k, float(c))
                                   for k, c in self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (m, n) in sorted(self.coeffs, key=lambda k: (k[0] + k[1], k)):
            c = self.coeffs[(m, n)]
            mono = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in (("z2", m), ("z3", n))
                if e
            )
            parts.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


class NodeArray(np.ndarray):
    """One quantity at many points, for a formula to run on all at once:
    every axis node of a closed form, or every disc point of a grid that
    :meth:`DiscPoly.evaluate` tabulates.

    Arithmetic is numpy's elementwise IEEE arithmetic, which gives each
    point the bits of the same formula on Python floats, except for
    ``**``: here it is each point's Python-float power (an array
    ``x ** k`` may differ from the scalar one in the last bit).  An array
    made by ``NodeArray(values)`` is read-only and keeps each power it
    returns, read-only too, so ``x ** k`` is the same object on every
    call; the results of arithmetic are computed afresh.

    Zero means falsy: the truth value is "some point is nonzero" (NaN
    counts, +-0.0 does not), a Python ``bool`` at the cost of one
    ``count_nonzero``.  So :class:`DiscPoly` keeps a coefficient that is
    nonzero anywhere, and it is 0.0 at the points where a scalar
    polynomial would drop it.  Times an exact table (disc moments, Fourier
    modes), a node array takes the table's float, so it stays a float
    array with each point's scalar bits.  A zero polynomial evaluates to
    the int 0; :meth:`broadcast` spreads such a scalar over the points.
    """

    def __new__(cls, values):
        out = np.array(values, dtype=float).view(cls)
        out.flags.writeable = False
        out._powers = {}
        return out

    def __pow__(self, k):
        # an arithmetic result may be written to, so it keeps no powers
        powers = getattr(self, "_powers", {})
        out = powers.get(k)
        if out is None:
            out = powers[k] = NodeArray([x**k for x in self.tolist()])
        return out

    def __bool__(self):
        # a Python bool: `if` raises TypeError on a numpy.bool from here
        return bool(np.count_nonzero(self))

    def broadcast(self, value):
        """``value``, an array over the points or a scalar, as one float
        per point (read-only)."""
        return np.broadcast_to(np.asarray(value, dtype=float), self.shape)


@lru_cache(maxsize=None)
def polar_grid(n_r, n_theta):
    """(s2, s3, z2, z3) at the centre of each cell of a polar grid on the
    unit disc with ``n_r`` rings and ``n_theta`` sectors, ring by ring.

    Radii are half-offset ((i + 1/2) / n_r) so the axis point, where the
    angle is ambiguous, is never sampled.  s2 and s3 are read-only float
    arrays, z2 and z3 :class:`NodeArray`, so one :meth:`DiscPoly.evaluate`
    tabulates a polynomial on the whole grid.
    """
    points = []
    for i in range(n_r):
        s3 = (i + 0.5) / n_r
        for j in range(n_theta):
            s2 = 2 * pi * j / n_theta
            points.append((s2, s3, float(s3 * np.cos(s2)),
                           float(s3 * np.sin(s2))))
    s2, s3, z2, z3 = zip(*points)
    s2, s3 = np.array(s2), np.array(s3)
    s2.flags.writeable = s3.flags.writeable = False
    return s2, s3, NodeArray(z2), NodeArray(z3)


def _as_poly(x):
    if isinstance(x, DiscPoly):
        return x
    return DiscPoly.constant(x)


def _is_float(c):
    """True for a float coefficient (one per node for a node array), which
    takes the float of an exact table entry; False for an exact one."""
    return isinstance(c, (float, np.ndarray))


# -- differential operators ---------------------------------------------

def diff_z2(p: DiscPoly) -> DiscPoly:
    """Exact partial derivative with respect to z2."""
    return DiscPoly._canonical(
        ((m - 1, n), m * c) for (m, n), c in p.coeffs.items() if m)


def diff_z3(p: DiscPoly) -> DiscPoly:
    """Exact partial derivative with respect to z3."""
    return DiscPoly._canonical(
        ((m, n - 1), n * c) for (m, n), c in p.coeffs.items() if n)


def laplacian(p: DiscPoly) -> DiscPoly:
    return diff_z2(diff_z2(p)) + diff_z3(diff_z3(p))


def gradient(p: DiscPoly):
    return diff_z2(p), diff_z3(p)


def divergence(v2: DiscPoly, v3: DiscPoly) -> DiscPoly:
    return diff_z2(v2) + diff_z3(v3)


def angular_derivative(p: DiscPoly) -> DiscPoly:
    """d/ds2 along circles: z2 * dp/dz3 - z3 * dp/dz2."""
    return DiscPoly.z2() * diff_z3(p) - DiscPoly.z3() * diff_z2(p)


def scaled_radial_derivative(p: DiscPoly) -> DiscPoly:
    """s3 * dp/ds3 in polar form: z2 * dp/dz2 + z3 * dp/dz3."""
    return DiscPoly.z2() * diff_z2(p) + DiscPoly.z3() * diff_z3(p)


# -- disc integration -----------------------------------------------------

def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@lru_cache(maxsize=None)
def disc_moment_over_pi(m: int, n: int) -> Fraction:
    """Exact (1/pi) * integral of z2^m z3^n over the unit disc.

    Zero whenever m or n is odd.
    """
    if m % 2 or n % 2:
        return Fraction(0)
    num = _double_factorial(m - 1) * _double_factorial(n - 1)
    return Fraction(2, m + n + 2) * Fraction(num, _double_factorial(m + n))


@lru_cache(maxsize=None)
def _moment_pair(m: int, n: int):
    """The exact disc moment and its float, for float coefficients."""
    mom = disc_moment_over_pi(m, n)
    return mom, float(mom)


def disc_integral_over_pi(p: DiscPoly):
    """Integral of p over the unit disc, divided by pi.

    Exact (a Fraction) when the coefficients are exact; a float otherwise,
    or one per node for node-array coefficients.
    """
    total = 0
    for (m, n), c in p.coeffs.items():
        mom, fmom = _moment_pair(m, n)
        if mom:
            # float * Fraction is float * float(Fraction)
            total = total + c * (fmom if _is_float(c) else mom)
    return total


def disc_integral(p: DiscPoly):
    """Integral of p over the unit disc, as a float (an array of them for
    node-array coefficients)."""
    total = disc_integral_over_pi(p)
    if isinstance(total, np.ndarray):
        return np.asarray(total) * pi
    return float(total) * pi


# -- trigonometric series on the boundary circle --------------------------

class TrigSeries:
    """Finite Fourier series a_0 + sum_k (a_k cos k s2 + b_k sin k s2).

    Stored as {k: [a_k, b_k]} with zero entries dropped; b_0 is unused.
    """

    __slots__ = ("modes",)

    def __init__(self, modes=None):
        clean = {}
        for k, (a, b) in (modes or {}).items():
            if k == 0:
                b = 0
            if a or b:
                clean[int(k)] = [a, b]
        self.modes = clean

    def cos_coeff(self, k):
        return self.modes.get(k, [0, 0])[0]

    def sin_coeff(self, k):
        return self.modes.get(k, [0, 0])[1]

    def is_zero(self):
        return not self.modes

    def evaluate(self, s2):
        from math import cos, sin

        total = 0
        for k, (a, b) in self.modes.items():
            total = total + a * cos(k * s2) + b * sin(k * s2)
        return total

    def __eq__(self, other):
        """Equal when every mode's difference is zero, so an exact series
        equals the float series it rounds to."""
        if not isinstance(other, TrigSeries):
            return NotImplemented
        return not any((self.cos_coeff(k) - other.cos_coeff(k))
                       or (self.sin_coeff(k) - other.sin_coeff(k))
                       for k in self.modes.keys() | other.modes.keys())

    def __repr__(self):
        if not self.modes:
            return "0"
        parts = []
        for k in sorted(self.modes):
            a, b = self.modes[k]
            if a:
                parts.append(f"{a}" if k == 0 else f"{a}*cos({k}s2)")
            if b:
                parts.append(f"{b}*sin({k}s2)")
        return " + ".join(parts).replace("+ -", "- ")


def _bump(out, k, da, db):
    # reflect negative modes: cos(-k) = cos(k), sin(-k) = -sin(k), sin(0) = 0
    if k < 0:
        k, db = -k, -db
    cur = out.setdefault(k, [Fraction(0), Fraction(0)])
    cur[0] += da
    if k > 0:
        cur[1] += db


@lru_cache(maxsize=None)
def _trig_expand(m: int, n: int):
    """Fourier modes of cos^m(s2) sin^n(s2) with exact coefficients.

    Returns a tuple of (k, a_k, b_k) entries.
    """
    modes = {0: [Fraction(1), Fraction(0)]}

    def times_cos(src):
        out = {}
        for k, (a, b) in src.items():
            _bump(out, k + 1, a / 2, b / 2)
            _bump(out, k - 1, a / 2, b / 2)
        return out

    def times_sin(src):
        out = {}
        for k, (a, b) in src.items():
            _bump(out, k + 1, -b / 2, a / 2)
            _bump(out, k - 1, b / 2, -a / 2)
        return out

    for _ in range(m):
        modes = times_cos(modes)
    for _ in range(n):
        modes = times_sin(modes)
    return tuple(
        (k, a, b) for k, (a, b) in sorted(modes.items()) if a or b
    )


@lru_cache(maxsize=None)
def _trig_tables(m: int, n: int):
    """The exact modes of :func:`_trig_expand` and their floats, for float
    coefficients."""
    exact = _trig_expand(m, n)
    return exact, tuple((k, float(a), float(b)) for k, a, b in exact)


def polar_fourier(p: DiscPoly):
    """Fourier/radial decomposition of p(z2, z3) in polar coordinates.

    Substituting z2 = s3 cos s2, z3 = s3 sin s2 gives
    sum_k [A_k(s3) cos(k s2) + B_k(s3) sin(k s2)]; the return value maps
    ("cos", k) and ("sin", k) to {radial power j: coefficient}.
    """
    out = {}
    for (m, n), c in p.coeffs.items():
        j = m + n
        for k, a, b in _trig_tables(m, n)[_is_float(c)]:
            if a:
                rad = out.setdefault(("cos", k), {})
                rad[j] = rad.get(j, 0) + c * a
            if b:
                rad = out.setdefault(("sin", k), {})
                rad[j] = rad.get(j, 0) + c * b
    for key in list(out):
        out[key] = {j: c for j, c in out[key].items() if c}
        if not out[key]:
            del out[key]
    return out


def restrict_to_boundary(p: DiscPoly) -> TrigSeries:
    """Trace of p on the unit circle as a finite Fourier series.

    The substitution z2 = cos s2, z3 = sin s2 is reduced through
    cos^2 + sin^2 = 1, so e.g. (z2^2 + z3^2 - 1) * q restricts to zero.
    """
    modes = {}
    for (kind, k), radial in polar_fourier(p).items():
        total = sum(radial.values())
        if total:
            modes.setdefault(k, [0, 0])[kind == "sin"] = total   # [cos, sin]
    return TrigSeries(modes)
