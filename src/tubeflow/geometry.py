"""Center-curve geometry, Frenet apparatus, and the tube-map bound.

The pipe interior is the image of the reference domain
[0, L] x [0, 2 pi] x [0, 1] under

    x(t, s1, s2, s3) = c(s1) + eps * s3 * R(t, s1) * (cos s2 N + sin s2 B),

where (T, N, B) is the Frenet frame of the center curve c.  The pipeline
solves on the reference domain, where the curve enters only through
kappa, kappa' and tau along the axis; this module provides those as
arrays over arc lengths, the frame at one arc length (to map a cross
section back to the world), and the bound eps * max(kappa R) < 1 under
which the map is invertible.  Nothing reads the position c(s1) itself,
so a :class:`CenterCurve` does not offer it.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import GeometryError, MapError


def _unit(v):
    """v / |v|.  v is first scaled by a power of two that brings its largest
    component into [1/2, 1), so |v| neither overflows nor underflows.  The
    scaling is exact: where the unscaled |v| is representable, the result
    has the bits of v / |v|."""
    big = np.max(np.abs(v))
    if big == 0:
        raise GeometryError("zero-length vector in frame construction")
    v = np.ldexp(v, -np.frexp(big)[1])
    return v / np.linalg.norm(v)


def _any_perpendicular(d):
    trial = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(trial, d)) > 0.9:
        trial = np.array([0.0, 1.0, 0.0])
    return _unit(trial - np.dot(trial, d) * d)


def _constant_curvature(kappa, tau):
    """Curvature function of a curve with constant kappa and tau."""
    def curvature(s):
        return np.full(s.shape, kappa), np.zeros(s.shape), np.full(s.shape, tau)
    return curvature


class CenterCurve:
    """Pipe axis with analytic or sampled parametrization by arc length.

    It offers its length, max kappa, :meth:`curvature` and :meth:`frame`,
    built from ``curvature_fn`` (kappa, kappa', tau at each arc length of
    a float array) and ``basis_fn`` ((T, N, B) at one arc length).
    """

    def __init__(self, length, basis_fn, curvature_fn, max_curvature):
        self.length = float(length)
        self._basis = basis_fn
        self._curvature = curvature_fn
        self.max_curvature = float(max_curvature)

    # -- constructors ---------------------------------------------------
    @classmethod
    def straight(cls, length, direction=(0.0, 0.0, 1.0)):
        """Straight axis along ``direction``; kappa = 0, so N, B are a fixed
        frame perpendicular to it."""
        d = _unit(np.asarray(direction, dtype=float))
        n = _any_perpendicular(d)
        basis = (d, n, np.cross(d, n))
        return cls(length, lambda s: basis, _constant_curvature(0.0, 0.0),
                   0.0)

    @classmethod
    def circular_arc(cls, radius, length):
        """Planar arc of radius a: c(s) = a (cos s/a, sin s/a, 0)."""
        a = float(radius)
        if not 0 < a < np.inf:  # chained, so NaN fails too
            raise GeometryError(
                f"arc radius must be finite and positive, got {a!r}")

        def basis(s):
            th = s / a
            return (np.array([-np.sin(th), np.cos(th), 0.0]),
                    np.array([-np.cos(th), -np.sin(th), 0.0]),
                    np.array([0.0, 0.0, 1.0]))

        return cls(length, basis, _constant_curvature(1.0 / a, 0.0), 1.0 / a)

    @classmethod
    def helix(cls, a, b, length):
        """Helix (a cos th, a sin th, b th), th = s / sqrt(a^2 + b^2)."""
        a, b = float(a), float(b)
        if not 0 < a < np.inf:  # chained, so NaN fails too
            raise GeometryError(
                f"helix radius a must be finite and positive, got {a!r}")
        if not np.isfinite(b):
            raise GeometryError(f"helix rise b must be finite, got {b!r}")
        c = np.hypot(a, b)
        kappa = a / c**2
        tau = b / c**2

        def basis(s):
            th = s / c
            return (np.array([-a * np.sin(th), a * np.cos(th), b]) / c,
                    np.array([-np.cos(th), -np.sin(th), 0.0]),
                    np.array([b * np.sin(th), -b * np.cos(th), a]) / c)

        return cls(length, basis, _constant_curvature(kappa, tau), kappa)

    @classmethod
    def from_samples(cls, s, points):
        """Cubic-spline curve through sampled points, parametrized by s.

        The s column is taken as arc length measured from the first sample,
        so it is rebased to start at 0 (tangents are renormalized but the
        parameter itself is not re-fit).  Curvature must stay away from
        zero: sampled curves with straight segments or inflections are not
        supported.
        """
        s = np.asarray(s, dtype=float)
        pts = np.asarray(points, dtype=float)
        if s.ndim != 1 or pts.shape != (s.size, 3):
            raise GeometryError("samples must be (n,) s values and (n, 3) points")
        if s.size < 4:
            raise GeometryError("need at least 4 samples for a cubic spline")
        if not (np.isfinite(s).all() and np.isfinite(pts).all()):
            raise GeometryError("samples must be finite")
        s = s - s[0]
        if np.any(np.diff(s) <= 0):
            raise GeometryError("sample arc lengths must be strictly increasing")
        if np.any(np.linalg.norm(np.diff(pts, axis=0), axis=1) < 1e-14):
            raise GeometryError("degenerate sampled curve: repeated points")

        from scipy.interpolate import CubicSpline  # slow import, used only here
        spline = CubicSpline(s, pts, axis=0)
        d1, d2, d3 = spline.derivative(1), spline.derivative(2), spline.derivative(3)

        def vanishing(si):
            return GeometryError(f"curvature vanishes near s1 = {si:.6g}; "
                                 "use a straight/analytic curve instead")

        def kappa_tau_binormal(si):
            c1, c2, c3 = d1(si), d2(si), d3(si)
            cross = np.cross(c1, c2)
            ncross = np.linalg.norm(cross)
            nc1 = np.linalg.norm(c1)
            if ncross < 1e-12 * nc1**2:
                raise vanishing(si)
            kappa = ncross / nc1**3
            tau = float(np.dot(cross, c3)) / ncross**2
            return kappa, tau, cross / ncross

        # kappa', tau from splines through densely sampled kappa, tau
        dense = np.linspace(s[0], s[-1], max(200, 4 * s.size))
        kappa, tau, binormal = map(np.array, zip(
            *(kappa_tau_binormal(si) for si in dense)))
        # an inflection between dense points turns the binormal over
        flips = np.flatnonzero(np.sum(binormal[1:] * binormal[:-1], axis=1) < 0)
        if flips.size:
            raise vanishing(dense[flips[0] + 1])
        # c'' is linear between samples, so a dip of the curvature too
        # narrow for the dense grid is deepest at a sample: look there too
        at = np.concatenate([dense, s])
        order = np.argsort(at, kind="stable")
        turned = np.concatenate(
            [binormal, [kappa_tau_binormal(si)[2] for si in s]])[order]
        flips = np.flatnonzero(np.sum(turned[1:] * turned[:-1], axis=1) < 0)
        if flips.size:
            raise vanishing(at[order][flips[0] + 1])
        kappa_spl = CubicSpline(dense, kappa)
        tau_spl = CubicSpline(dense, tau)
        dkappa_spl = kappa_spl.derivative()

        def curvature(si):
            # the normal is c'' less its tangential part; it must not vanish
            c1, c2 = d1(si), d2(si)
            t = c1 / np.linalg.norm(c1, axis=-1, keepdims=True)
            n_raw = c2 - np.sum(c2 * t, axis=-1, keepdims=True) * t
            flat = (np.linalg.norm(n_raw, axis=-1)
                    < 1e-12 * np.maximum(np.linalg.norm(c2, axis=-1), 1.0))
            if flat.any():
                raise vanishing(si[flat][0])
            return kappa_spl(si), dkappa_spl(si), tau_spl(si)

        def basis(si):
            c1, c2 = d1(si), d2(si)
            t = _unit(c1)
            n = _unit(c2 - np.dot(c2, t) * t)
            return t, n, np.cross(t, n)

        return cls(s[-1], basis, curvature, float(kappa.max()))

    @classmethod
    def from_file(cls, path):
        """Read a sampled curve from comma-separated text, header s,x,y,z."""
        try:   # a ValueError here is undecodable or non-numeric text
            with open(path) as fh:
                header = fh.readline()
            cols = [c.strip().lower() for c in header.split(",")]
            if cols[:4] != ["s", "x", "y", "z"]:
                raise GeometryError(f"curve file {path}: expected header "
                                    f"'s,x,y,z', got {header!r}")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise GeometryError(f"curve file {path}: {exc}") from exc
        if data.shape[1] < 4:
            raise GeometryError(f"curve file {path}: need 4 columns")
        return cls.from_samples(data[:, 0], data[:, 1:4])

    # -- evaluation -------------------------------------------------------
    def _on_curve(self, s1):
        """``s1`` as a float array, every arc length checked to lie on the
        curve."""
        s1 = np.asarray(s1, dtype=float)
        outside = ~((s1 >= 0.0) & (s1 <= self.length + 1e-12))
        if outside.any():
            raise GeometryError(f"s1 = {s1[outside][0]} outside "
                                f"[0, {self.length}]")
        return s1

    def curvature(self, s1):
        """kappa, kappa' and tau at each arc length of ``s1``, as float
        arrays: all the axis problem reads of the curve."""
        return self._curvature(self._on_curve(s1))

    def frame(self, s1):
        """(3, 3) array whose rows are the Frenet vectors T, N, B at one arc
        length, in world components."""
        return np.vstack(self._basis(float(self._on_curve(s1))))


def check_invertibility(eps: float, curve: CenterCurve, wall) -> float:
    """Bound eps * max(kappa) * max(R) of the tube map; must stay below 1.

    ``wall`` needs the grid ``s1`` and the radius ``R`` on it.  Warns above
    0.5, where the asymptotic regime becomes questionable.
    """
    if not 0 < eps < np.inf:  # chained, so NaN fails too
        raise MapError(f"eps must be finite and positive, got {eps!r}")
    bound = eps * curve.max_curvature * float(np.max(wall.R))
    if not bound < 1.0:  # a NaN bound fails too
        worst = float(wall.s1[int(np.argmax(wall.R))])
        raise MapError(
            f"tube map not invertible: eps*max(kappa R) = {bound:.3g} "
            f"is not below 1 (widest station s1 = {worst:.6g})"
        )
    if bound > 0.5:
        warnings.warn(
            f"eps*max(kappa R) = {bound:.3g} > 0.5: asymptotic regime "
            "questionable", stacklevel=2,
        )
    return bound
