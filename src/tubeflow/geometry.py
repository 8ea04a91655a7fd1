"""Center-curve geometry, Frenet apparatus, and the tube-map bound.

The pipe interior is the image of the reference domain
[0, L] x [0, 2 pi] x [0, 1] under

    x(t, s1, s2, s3) = c(s1) + eps * s3 * R(t, s1) * (cos s2 N + sin s2 B),

where (T, N, B) is the Frenet frame of the center curve c.  The pipeline
solves on the reference domain, so this module provides only the frame
(with curvature/torsion and their rates) and the bound
eps * max(kappa R) < 1 under which the map is invertible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import GeometryError, MapError


@dataclass(frozen=True)
class FrenetFrame:
    """Orthonormal frame and curvature data at one arc-length station."""

    tangent: np.ndarray
    normal: np.ndarray
    binormal: np.ndarray
    curvature: float
    curvature_rate: float
    torsion: float
    torsion_rate: float

    def basis_matrix(self) -> np.ndarray:
        """Rows are (T, N, B) components in the world basis (v_ki)."""
        return np.vstack([self.tangent, self.normal, self.binormal])


def _unit(v):
    n = np.linalg.norm(v)
    if n == 0:
        raise GeometryError("zero-length vector in frame construction")
    return v / n


def _any_perpendicular(d):
    trial = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(trial, d)) > 0.9:
        trial = np.array([0.0, 1.0, 0.0])
    return _unit(trial - np.dot(trial, d) * d)


class CenterCurve:
    """Pipe axis with analytic or sampled parametrization by arc length."""

    def __init__(self, length, point_fn, frame_fn, max_curvature):
        self.length = float(length)
        self._point = point_fn
        self._frame = frame_fn
        self.max_curvature = float(max_curvature)

    # -- constructors ---------------------------------------------------
    @classmethod
    def straight(cls, length, direction=(0.0, 0.0, 1.0)):
        """Straight axis through the origin; kappa = 0, so N, B are a fixed
        frame perpendicular to the direction."""
        d = _unit(np.asarray(direction, dtype=float))
        n = _any_perpendicular(d)
        b = np.cross(d, n)
        frame = FrenetFrame(d, n, b, 0.0, 0.0, 0.0, 0.0)
        return cls(length, lambda s: s * d, lambda s: frame, 0.0)

    @classmethod
    def circular_arc(cls, radius, length):
        """Planar arc of radius a: c(s) = a (cos s/a, sin s/a, 0)."""
        a = float(radius)
        if a <= 0:
            raise GeometryError("arc radius must be positive")

        def point(s):
            th = s / a
            return np.array([a * np.cos(th), a * np.sin(th), 0.0])

        def frame(s):
            th = s / a
            t = np.array([-np.sin(th), np.cos(th), 0.0])
            n = np.array([-np.cos(th), -np.sin(th), 0.0])
            b = np.array([0.0, 0.0, 1.0])
            return FrenetFrame(t, n, b, 1.0 / a, 0.0, 0.0, 0.0)

        return cls(length, point, frame, 1.0 / a)

    @classmethod
    def helix(cls, a, b, length):
        """Helix (a cos th, a sin th, b th), th = s / sqrt(a^2 + b^2)."""
        a, b = float(a), float(b)
        if a <= 0:
            raise GeometryError("helix radius a must be positive")
        c = np.hypot(a, b)
        kappa = a / c**2
        tau = b / c**2

        def point(s):
            th = s / c
            return np.array([a * np.cos(th), a * np.sin(th), b * th])

        def frame(s):
            th = s / c
            t = np.array([-a * np.sin(th), a * np.cos(th), b]) / c
            n = np.array([-np.cos(th), -np.sin(th), 0.0])
            bb = np.array([b * np.sin(th), -b * np.cos(th), a]) / c
            return FrenetFrame(t, n, bb, kappa, 0.0, tau, 0.0)

        return cls(length, point, frame, kappa)

    @classmethod
    def from_samples(cls, s, points):
        """Cubic-spline curve through sampled points, parametrized by s.

        The s column is taken as arc length measured from the first sample,
        so it is rebased to start at 0 (tangents are renormalized but the
        parameter itself is not re-fit).  Curvature must stay away from
        zero: sampled curves with straight segments are not supported.
        """
        s = np.asarray(s, dtype=float)
        pts = np.asarray(points, dtype=float)
        if s.ndim != 1 or pts.shape != (s.size, 3):
            raise GeometryError("samples must be (n,) s values and (n, 3) points")
        if s.size < 4:
            raise GeometryError("need at least 4 samples for a cubic spline")
        s = s - s[0]
        if np.any(np.diff(s) <= 0):
            raise GeometryError("sample arc lengths must be strictly increasing")
        if np.any(np.linalg.norm(np.diff(pts, axis=0), axis=1) < 1e-14):
            raise GeometryError("degenerate sampled curve: repeated points")

        spline = CubicSpline(s, pts, axis=0)
        d1, d2, d3 = spline.derivative(1), spline.derivative(2), spline.derivative(3)

        def kappa_tau(si):
            c1, c2, c3 = d1(si), d2(si), d3(si)
            cross = np.cross(c1, c2)
            ncross = np.linalg.norm(cross)
            nc1 = np.linalg.norm(c1)
            if ncross < 1e-12 * nc1**2:
                raise GeometryError(
                    f"curvature vanishes near s1 = {si:.6g}; "
                    "use a straight/analytic curve instead"
                )
            kappa = ncross / nc1**3
            tau = float(np.dot(cross, c3)) / ncross**2
            return kappa, tau

        # kappa', tau' from a spline through densely sampled kappa, tau
        dense = np.linspace(s[0], s[-1], max(200, 4 * s.size))
        kt = np.array([kappa_tau(si) for si in dense])
        kappa_spl = CubicSpline(dense, kt[:, 0])
        tau_spl = CubicSpline(dense, kt[:, 1])
        dkappa_spl = kappa_spl.derivative()
        dtau_spl = tau_spl.derivative()

        def frame(si):
            c1, c2 = d1(si), d2(si)
            t = _unit(c1)
            n_raw = c2 - np.dot(c2, t) * t
            if np.linalg.norm(n_raw) < 1e-12 * max(np.linalg.norm(c2), 1.0):
                raise GeometryError(
                    f"curvature vanishes near s1 = {si:.6g}; "
                    "use a straight/analytic curve instead"
                )
            n = _unit(n_raw)
            b = np.cross(t, n)
            return FrenetFrame(
                t, n, b,
                float(kappa_spl(si)), float(dkappa_spl(si)),
                float(tau_spl(si)), float(dtau_spl(si)),
            )

        return cls(s[-1], lambda si: np.asarray(spline(si)), frame,
                   float(kt[:, 0].max()))

    @classmethod
    def from_file(cls, path):
        """Read a sampled curve from delimited text with header s, x, y, z."""
        with open(path) as fh:
            header = fh.readline()
        cols = [c.strip().lower() for c in header.replace(";", ",").split(",")]
        if cols[:4] != ["s", "x", "y", "z"]:
            raise GeometryError(
                f"curve file {path}: expected header 's,x,y,z', got {header!r}"
            )
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        if data.ndim != 2 or data.shape[1] < 4:
            raise GeometryError(f"curve file {path}: need 4 columns")
        return cls.from_samples(data[:, 0], data[:, 1:4])

    # -- evaluation -------------------------------------------------------
    def point(self, s1):
        return self._point(float(s1))

    def frame(self, s1):
        if not (0.0 <= s1 <= self.length + 1e-12):
            raise GeometryError(f"s1 = {s1} outside [0, {self.length}]")
        return self._frame(float(s1))

    def frames(self, s1):
        """The frame at each arc length of ``s1``, as a list."""
        return [self.frame(x) for x in s1]


def frenet_frame(curve: CenterCurve, s1: float) -> FrenetFrame:
    """Frame at s1 with orthonormality enforced to round-off."""
    fr = curve.frame(s1)
    m = fr.basis_matrix()
    err = np.abs(m @ m.T - np.eye(3)).max()
    if err > 1e-9:
        raise GeometryError(f"frame not orthonormal at s1 = {s1} (err {err:.2e})")
    return fr


def check_invertibility(eps: float, curve: CenterCurve, wall) -> float:
    """Bound eps * max(kappa) * max(R) of the tube map; must stay below 1.

    ``wall`` needs the grid ``s1`` and the radius ``R`` on it.  Warns above
    0.5, where the asymptotic regime becomes questionable.
    """
    if eps <= 0:
        raise MapError("eps must be positive")
    bound = eps * curve.max_curvature * float(np.max(wall.R))
    if bound >= 1.0:
        worst = float(wall.s1[int(np.argmax(wall.R))])
        raise MapError(
            f"tube map not invertible: eps*max(kappa R) = {bound:.3g} "
            f">= 1 (widest station s1 = {worst:.6g})"
        )
    if bound > 0.5:
        warnings.warn(
            f"eps*max(kappa R) = {bound:.3g} > 0.5: asymptotic regime "
            "questionable", stacklevel=2,
        )
    return bound
