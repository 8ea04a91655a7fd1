"""Center-curve frames and the tube-map invertibility bound."""

import numpy as np
import pytest
from scipy.integrate import quad

from tubeflow.cli import RunConfig, run_pipeline
from tubeflow.coupling import WallState
from tubeflow.errors import GeometryError, MapError
from tubeflow.geometry import CenterCurve, check_invertibility

from oracles import fd_frenet


def unit_wall(n=32, R=1.0, dR_dt=0.0, length=1.0):
    s = np.linspace(0.0, length, n)
    return WallState.from_radius(s, R, dR_dt=dR_dt)


def parabola():
    """Sampled y = x^2 / 2 on [0, 1], whose curvature varies; and its s."""
    x = np.linspace(0.0, 1.0, 400)
    y = x**2 / 2
    ds = np.hypot(np.gradient(x), np.gradient(y))
    s = np.cumsum(ds) - ds[0]
    pts = np.column_stack([x, y, np.zeros_like(x)])
    return CenterCurve.from_samples(s, pts), s


def helix_point(s, a=3.0, b=4.0):
    """Position on the helix (a cos th, a sin th, b th), th = s / |(a, b)|:
    the curve's definition, for the finite-difference oracle."""
    th = s / np.hypot(a, b)
    return np.array([a * np.cos(th), a * np.sin(th), b * th])


CURVES = {
    "straight": lambda: CenterCurve.straight(1.5, direction=(1.0, 2.0, 2.0)),
    "arc": lambda: CenterCurve.circular_arc(2.0, 1.0),
    "helix": lambda: CenterCurve.helix(3.0, 4.0, 5.0),
    "sampled": lambda: parabola()[0],
}


@pytest.mark.parametrize("name", sorted(CURVES))
def test_curvature_arrays_match_the_frames(name):
    # a read at one arc length, such as a frame's station, takes it alone:
    # the splines of a sampled curve must give it the bits it gets inside
    # the whole array
    curve = CURVES[name]()
    s1 = np.linspace(0.0, curve.length, 33)
    points = [curve.curvature([v]) for v in s1.tolist()]
    for i, got in enumerate(curve.curvature(s1)):
        assert got.dtype == float and got.shape == s1.shape
        want = np.concatenate([p[i] for p in points])
        assert got.tobytes() == want.tobytes(), i


def test_curvature_rejects_arc_lengths_off_the_curve():
    curve = CenterCurve.helix(3.0, 4.0, 5.0)
    for bad in (-0.1, 5.1, float("nan")):
        with pytest.raises(GeometryError, match="outside"):
            curve.curvature([0.0, bad])
        with pytest.raises(GeometryError, match="outside"):
            curve.frame(bad)


class TestFrames:
    def test_circular_arc(self):
        curve = CenterCurve.circular_arc(radius=2.0, length=1.0)
        kappa, _, tau = curve.curvature([0.7])
        assert kappa[0] == pytest.approx(0.5)
        assert tau[0] == 0.0

    def test_straight_line(self):
        curve = CenterCurve.straight(length=2.0, direction=(1.0, 2.0, 2.0))
        kappa, _, tau = curve.curvature([0.0, 1.5])
        assert (kappa == 0.0).all() and (tau == 0.0).all()
        assert np.allclose(curve.frame(0.0)[1:], curve.frame(1.5)[1:])

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200])
    def test_straight_direction_scale_free(self, scale):
        # the norm of (scale, 0, 0) overflows or underflows unless the
        # direction is scaled first; the frame must be that of (1, 0, 0)
        want = CenterCurve.straight(1.0, direction=(1.0, 0.0, 0.0)).frame(0.5)
        got = CenterCurve.straight(1.0, direction=(scale, 0.0, 0.0)).frame(0.5)
        assert np.array_equal(got, want)
        assert np.array_equal(got[0], [1.0, 0.0, 0.0])

    def test_straight_direction_keeps_bits_under_power_of_two_scaling(self):
        d = np.array([1.0, 2.0, 2.0]) / 3.0
        want = CenterCurve.straight(1.0, direction=d).frame(0.0)
        for k in (-600, -1, 1, 600):
            got = CenterCurve.straight(1.0, direction=np.ldexp(d, k)).frame(0.0)
            assert np.array_equal(got, want)

    def test_helix_against_fd_oracle(self):
        # (3 cos th, 3 sin th, 4 th): kappa = 3/25, tau = 4/25
        curve = CenterCurve.helix(a=3.0, b=4.0, length=5.0)
        (kappa,), _, (tau,) = curve.curvature([2.0])
        assert kappa == pytest.approx(0.12, abs=1e-12)
        assert tau == pytest.approx(0.16, abs=1e-12)
        kappa_fd, tau_fd = fd_frenet(helix_point, 2.0)
        assert kappa == pytest.approx(kappa_fd, abs=1e-8)
        assert tau == pytest.approx(tau_fd, abs=1e-5)

    @pytest.mark.parametrize("make", [
        lambda: CenterCurve.circular_arc(2.0, 1.0),
        lambda: CenterCurve.helix(3.0, 4.0, 5.0),
        lambda: CenterCurve.straight(1.0),
    ])
    def test_orthonormality_everywhere(self, make):
        curve = make()
        for s in np.linspace(0.0, curve.length, 9):
            m = curve.frame(s)
            assert np.abs(m @ m.T - np.eye(3)).max() < 1e-12

    @pytest.mark.parametrize("make_curve", [
        lambda: CenterCurve.helix(a=3.0, b=4.0, length=5.0),
        lambda: CenterCurve.from_samples(
            np.linspace(0.0, 5.0, 160),
            np.column_stack([3 * np.cos(np.linspace(0, 1, 160)),
                             3 * np.sin(np.linspace(0, 1, 160)),
                             4 * np.linspace(0, 1, 160)])),
    ])
    def test_frenet_residuals_fd(self, make_curve):
        # T' = kappa N, N' = -kappa T + tau B, B' = -tau N under h^2 FD
        curve = make_curve()
        h = 1e-4
        for s in (1.0, 2.5):
            tangent, normal, binormal = curve.frame(s)
            dmat = (curve.frame(s + h) - curve.frame(s - h)) / (2 * h)
            (k,), _, (t,) = curve.curvature([s])
            assert np.linalg.norm(dmat[0] - k * normal) < 1e-5
            assert np.linalg.norm(dmat[1] + k * tangent - t * binormal) < 1e-5
            assert np.linalg.norm(dmat[2] + t * normal) < 1e-5


class TestSampledCurves:
    def make_helix_samples(self, n=120):
        c = np.hypot(3.0, 4.0)
        s = np.linspace(0.0, 5.0, n)
        th = s / c
        pts = np.column_stack([3 * np.cos(th), 3 * np.sin(th), 4 * th])
        return s, pts

    def test_sampled_helix_matches_analytic(self):
        s, pts = self.make_helix_samples()
        curve = CenterCurve.from_samples(s, pts)
        (kappa,), (dkappa,), (tau,) = curve.curvature([2.5])
        assert kappa == pytest.approx(0.12, abs=1e-5)
        assert tau == pytest.approx(0.16, abs=1e-5)
        assert abs(dkappa) < 1e-3
        # the frames differ by 4.3e-12 here (numpy 2, x86-64)
        assert np.abs(curve.frame(2.5)
                      - CenterCurve.helix(3, 4, 5).frame(2.5)).max() < 1e-10

    def test_curvature_rate_of_varying_curve(self):
        # planar curve y = x^2 / 2: kappa(s) varies; rate via FD cross-check
        curve, s = parabola()
        smid = s[200]
        h = 1e-3
        kappa, dkappa, _ = curve.curvature([smid - h, smid, smid + h])
        rate_fd = (kappa[2] - kappa[0]) / (2 * h)
        assert dkappa[1] == pytest.approx(rate_fd, rel=1e-3)

    def test_shifted_arc_length_column(self):
        # an s column starting at 2 describes the same curve as one from 0
        s, pts = self.make_helix_samples()
        base = CenterCurve.from_samples(s, pts)
        shifted = CenterCurve.from_samples(s + 2.0, pts)
        assert shifted.length == pytest.approx(base.length, abs=1e-12)
        for si in np.linspace(0.0, base.length, 11):
            assert np.abs(base.frame(si) - shifted.frame(si)).max() < 1e-12
            # torsion takes the spline's third derivative, which amplifies
            # the last-bit change of s + 2 - 2
            for a, b in zip(base.curvature([si]), shifted.curvature([si])):
                assert a[0] == pytest.approx(b[0], abs=1e-9)

    def test_degenerate_samples_rejected(self):
        s = np.array([0.0, 1.0, 2.0, 3.0])
        pts = np.zeros((4, 3))
        pts[:, 0] = [0.0, 1.0, 1.0, 2.0]  # repeated point
        with pytest.raises(GeometryError):
            CenterCurve.from_samples(s, pts)
        with pytest.raises(GeometryError):
            CenterCurve.from_samples([0.0, 1.0, 1.0, 2.0], np.random.rand(4, 3))

    def test_straight_samples_rejected(self):
        s = np.linspace(0.0, 1.0, 10)
        pts = np.column_stack([s, np.zeros(10), np.zeros(10)])
        with pytest.raises(GeometryError):
            CenterCurve.from_samples(s, pts).frame(0.5)

    @staticmethod
    def cubic_config(tmp_path, n_s1):
        """y = x^3 on [-1, 1] from 41 samples: it inflects at its
        arc-length midpoint, which the dense construction grid misses."""
        x = np.linspace(-1.0, 1.0, 41).tolist()
        s = [quad(lambda v: np.sqrt(1 + 9 * v**4), -1.0, xi,
                  epsabs=1e-12, epsrel=1e-12)[0] for xi in x]
        path = tmp_path / "cubic.csv"
        path.write_text("s,x,y,z\n" + "".join(
            f"{a!r},{b!r},{b**3!r},0.0\n" for a, b in zip(s, x)))
        return path, RunConfig.from_mapping({
            "geometry.kind": "sampled", "geometry.file": str(path),
            "geometry.length": repr(s[-1]), "grid.n_s1": str(n_s1)})

    # the binormal turns over between the dense points that straddle the
    # inflection; the error names the first point past it
    INFLECTION = "curvature vanishes near s1 = 1.55564"

    def test_inflection_at_an_axis_node_raises(self, tmp_path):
        # the 65-node axis grid hits the inflection; construction already
        # rejects the curve
        path, cfg = self.cubic_config(tmp_path, 65)
        with pytest.raises(GeometryError, match=self.INFLECTION):
            CenterCurve.from_file(path)
        with pytest.raises(GeometryError, match=self.INFLECTION):
            run_pipeline(cfg)

    def test_inflection_between_axis_nodes_raises(self, tmp_path):
        # no node of the 64-node axis grid lands on the inflection, where
        # the Frenet normal flips between nodes 31 and 32
        _, cfg = self.cubic_config(tmp_path, 64)
        with pytest.raises(GeometryError, match=self.INFLECTION):
            run_pipeline(cfg)

    def test_curvature_zero_at_a_sample_raises(self):
        # y = |x|^3 is flat at the sample x = 0; the spline's normal turns
        # over in a dip narrower than the dense spacing there, which the
        # frame there used to show as a flipped N
        x = np.linspace(-1.0, 1.0, 41)
        pts = np.column_stack([x, np.abs(x) ** 3, np.zeros_like(x)])
        s = np.append(0.0, np.cumsum(np.linalg.norm(np.diff(pts, axis=0),
                                                    axis=1)))
        with pytest.raises(GeometryError,
                           match="curvature vanishes near s1 = 1.5476"):
            CenterCurve.from_samples(s, pts)

    def test_from_file_roundtrip(self, tmp_path):
        s, pts = self.make_helix_samples()
        path = tmp_path / "curve.csv"
        rows = "\n".join(",".join(f"{v:.12g}" for v in (si, *pi))
                         for si, pi in zip(s, pts))
        path.write_text("s,x,y,z\n" + rows + "\n")
        curve = CenterCurve.from_file(path)
        assert curve.curvature([2.5])[0][0] == pytest.approx(0.12, abs=1e-5)

    def test_from_file_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n0,0,0,0\n")
        with pytest.raises(GeometryError):
            CenterCurve.from_file(path)


class TestTubeMap:
    def test_invertibility_bound(self):
        curve = CenterCurve.circular_arc(1.0, 1.0)  # kappa = 1
        assert check_invertibility(0.1, curve, unit_wall()) == \
            pytest.approx(0.1)

    def test_invertibility_violation(self):
        curve = CenterCurve.circular_arc(0.5, 1.0)  # kappa = 2
        with pytest.raises(MapError):
            check_invertibility(0.6, curve, unit_wall())
        with pytest.raises(MapError):
            check_invertibility(0.0, curve, unit_wall())

    def test_regime_warning(self):
        curve = CenterCurve.circular_arc(1.0, 1.0)
        with pytest.warns(UserWarning):
            check_invertibility(0.6, curve, unit_wall())
