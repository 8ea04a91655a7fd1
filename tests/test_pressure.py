"""Pressure boundary-value solvers and their derivative machinery."""

import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv

import tubeflow.pressure as pressure
from tubeflow.cli import RunConfig, run_pipeline
from tubeflow.coupling import (
    ElasticWall,
    WallState,
    advance_time_step,
    apply_wall_law,
)
from tubeflow.errors import (
    ConfigurationError,
    SolverError,
    TubeflowError,
    WallCollapseError,
)
from tubeflow.expansion import BodyForce, FluidParams
from tubeflow.pressure import (
    FluxWorkspace,
    PressureBC,
    TimeSeries,
    _gtsv,
    bracket_derivative,
    fd_derivative,
    fd_second_derivative,
    fd_third_derivative,
    flux_residual,
    midpoint_flux,
    p02_bracket,
    solve_flux_bvp,
    solve_p0,
    solve_pressures,
)

from oracles import quadrature_bvp

FLUID = FluidParams(1.0, 1.0)
PRESETS = Path(__file__).resolve().parent.parent / "presets"


def make_wall(n=101, radius=None, rate=None, length=1.0):
    s = np.linspace(0.0, length, n)
    R = np.ones(n) if radius is None else radius(s)
    return WallState.from_radius(s, R, dR_dt=rate(s) if rate else None), s


def steady(wall, bc, body=None):
    """Steady pressure solve on a straight axis."""
    return solve_pressures(wall, FLUID, bc, np.zeros(wall.s1.size),
                           body or BodyForce())


def steady_p0_data(wall, bc):
    """(dp0, d2p0, d3p0, dt_dp0) of a steady solve, as p02_bracket takes it."""
    pexp = steady(wall, bc)
    return pexp.dp0, pexp.d2p0, pexp.d3p0, pexp.dt_dp0


class TestP0:
    def test_constant_coefficient_linear(self):
        wall, s = make_wall()
        p0 = solve_p0(wall.R, wall.dR_dt, wall.h, FLUID, 1.0, 0.0)
        dp0 = steady_p0_data(wall, PressureBC(1.0, 0.0))[0]
        assert np.abs(p0 - (1 - s)).max() < 1e-13
        assert np.abs(dp0 + 1.0).max() < 1e-12

    def test_nonuniform_radius_vs_quadrature(self):
        # frozen: p0(0.5) = (2/3)(0.5 + 0.125) = 0.41666...
        wall, s = make_wall(n=201, radius=lambda x: (1 + x) ** -0.25)
        p0 = solve_p0(wall.R, wall.dR_dt, wall.h, FLUID, 0.0, 1.0)
        assert p0[100] == pytest.approx(0.4166666666666667, abs=1e-6)
        oracle = quadrature_bvp(lambda x: (1 + x) ** -0.25, None, 0.0, 1.0, s)
        assert np.abs(p0 - oracle).max() < 1e-6

    def test_moving_wall_parabola(self):
        # R = 1, dR/dt = 1, nu = rho0 = 1: p'' = 16 -> 8 s^2 - 8 s exactly
        wall, s = make_wall(rate=lambda x: np.ones_like(x))
        p0 = solve_p0(wall.R, wall.dR_dt, wall.h, FLUID, 0.0, 0.0)
        assert np.abs(p0 - (8 * s**2 - 8 * s)).max() < 1e-11
        assert p0[50] == pytest.approx(-2.0, abs=1e-8)

    def test_mixed_time_derivative(self):
        # the inlet value falls from 3 at t = 0 to 1 at t = 0.5: dp0 goes
        # from -3 to -1 on the straight wall, so dt_dp0 = 4
        s = np.linspace(0.0, 1.0, 101)
        prev = WallState.from_radius(s, 1.0)
        wall = WallState.from_radius(s, 1.0, t=0.5)
        bc = PressureBC(TimeSeries((0.0, 1.0), (3.0, -1.0)), 0.0)
        pexp = solve_pressures(wall, FLUID, bc, np.zeros(101), BodyForce(),
                               prev=prev, dt=0.5)
        prev_dp0 = solve_pressures(prev, FLUID, bc, np.zeros(101),
                                   BodyForce()).dp0
        assert np.allclose(prev_dp0, -3.0)
        assert np.allclose(pexp.dt_dp0, (pexp.dp0 - prev_dp0) / 0.5)
        assert np.allclose(pexp.dt_dp0, 4.0)
        dt_dp0_steady = steady_p0_data(wall, PressureBC(1.0, 0.0))[3]
        assert np.all(dt_dp0_steady == 0.0)

    def test_vanishing_radius_rejected(self):
        wall, _ = make_wall()
        with pytest.raises(SolverError):
            solve_p0(wall.R * 1e-200, wall.dR_dt, wall.h, FLUID, 1.0, 0.0)
        with pytest.raises(SolverError):
            solve_p0(-wall.R, wall.dR_dt, wall.h, FLUID, 1.0, 0.0)

    def test_coarse_grid_rejected(self):
        with pytest.raises(SolverError):
            solve_flux_bvp(np.ones(5), 0.25, np.zeros(5), 0.0, 1.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SolverError,
                           match="right side has 9 nodes, coefficient has 10"):
            solve_flux_bvp(np.ones(10), 0.1, np.ones(9), 0.0, 1.0)
        with pytest.raises(SolverError,
                           match="rate has 9 nodes, radius has 10"):
            solve_p0(np.ones(10), np.ones(9), 0.1, FLUID, 0.0, 1.0)


class TestFluxSolver:
    @pytest.mark.parametrize("n", [8, 65, 257, 1025])
    @pytest.mark.parametrize("bracket", [False, True])
    def test_bitwise_equal_to_banded_reference(self, n, bracket):
        rng = np.random.default_rng(n)
        h = 1.0 / (n - 1)
        coef = rng.uniform(0.05, 20.0, n)
        rhs = rng.normal(size=n)
        p_in, p_out = (float(v) for v in rng.normal(size=2))
        p = solve_flux_bvp(
            coef, h, bracket_derivative(rhs, h) if bracket else rhs,
            p_in, p_out)
        # the same interior system in scipy's banded layout
        a_mid = 0.5 * (coef[:-1] + coef[1:])
        inv_h2 = 1.0 / h**2
        ab = np.zeros((3, n - 2))
        ab[0, 1:] = a_mid[1:-1] * inv_h2
        ab[1] = -(a_mid[:-1] + a_mid[1:]) * inv_h2
        ab[2, :-1] = a_mid[1:-1] * inv_h2
        if bracket:
            br_mid = 0.5 * (rhs[:-1] + rhs[1:])
            b = (br_mid[1:] - br_mid[:-1]) / h
        else:
            b = rhs[1:-1].copy()
        b[0] -= a_mid[0] * p_in * inv_h2
        b[-1] -= a_mid[-1] * p_out * inv_h2
        ref = np.concatenate([[p_in], solve_banded((1, 1), ab, b), [p_out]])
        assert np.array_equal(p, ref)
        assert np.array_equal(midpoint_flux(coef, h, p),
                              a_mid * np.diff(ref) / h)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["coef", "rhs", "p_in", "p_out"])
    @pytest.mark.parametrize("bracket", [False, True])
    def test_non_finite_input_rejected(self, bad, where, bracket):
        n = 33
        args = {"coef": np.ones(n), "rhs": np.linspace(0.0, 1.0, n),
                "p_in": 1.0, "p_out": 0.0}
        if where in ("p_in", "p_out"):
            args[where] = bad
        else:
            args[where][n // 2] = bad
        # forming the system may warn (inf - inf); it must still be refused
        with (np.errstate(invalid="ignore"),
              pytest.raises(SolverError, match="infs or NaNs")):
            h = 1.0 / (n - 1)
            rhs = bracket_derivative(args["rhs"], h) if bracket \
                else args["rhs"]
            solve_flux_bvp(args["coef"], h, rhs, args["p_in"],
                           args["p_out"])

    @pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
    def test_bad_grid_step_rejected(self, h):
        # h = 0 raised a bare ZeroDivisionError, inf reported a singular
        # matrix and -0.1 solved as 0.1
        with pytest.raises(SolverError,
                           match=f"^grid step h must be finite and positive, "
                                 f"got {h}$"):
            solve_flux_bvp(np.ones(9), h, np.zeros(9), 1.0, 0.0)

    def test_inputs_are_only_read(self):
        # the solve writes into its own buffer: read-only views of the
        # inputs solve as the arrays do, and neither is written to
        n = 65
        rng = np.random.default_rng(5)
        h = 1.0 / (n - 1)
        coef, rhs, R = rng.uniform(0.5, 2.0, (3, n))
        rate = rng.normal(size=n)
        inputs = (coef, rhs, R, rate)
        kept = [a.copy() for a in inputs]
        ro = [np.broadcast_to(a, a.shape) for a in inputs]
        assert not any(a.flags.writeable for a in ro)
        p = solve_flux_bvp(ro[0], h, ro[1], 1.0, -0.5)
        assert np.array_equal(p, solve_flux_bvp(coef, h, rhs, 1.0, -0.5))
        assert not np.shares_memory(p, coef)
        assert not np.shares_memory(p, rhs)
        p0 = solve_p0(ro[2], ro[3], h, FLUID, 1.0, -0.5)
        assert np.array_equal(p0, solve_p0(R, rate, h, FLUID, 1.0, -0.5))
        for a, b in zip(inputs, kept):
            assert a.tobytes() == b.tobytes()

    def test_lists_solve_as_arrays(self):
        # solve_p0 of lists raised a raw AttributeError ('list' object has
        # no attribute 'size'); solve_flux_bvp always took them
        n = 33
        rng = np.random.default_rng(9)
        h = 1.0 / (n - 1)
        coef, rhs, R = rng.uniform(0.5, 2.0, (3, n))
        rate = rng.normal(size=n)
        assert (solve_p0(R.tolist(), rate.tolist(), h, FLUID, 1.0, -0.5)
                .tobytes() == solve_p0(R, rate, h, FLUID, 1.0, -0.5).tobytes())
        assert (solve_flux_bvp(coef.tolist(), h, rhs.tolist(), 1.0, -0.5)
                .tobytes() == solve_flux_bvp(coef, h, rhs, 1.0, -0.5).tobytes())
        p0 = solve_p0([1.0] * 9, [0.0] * 9, 0.125, FLUID, 1.0, 0.0)
        assert np.abs(p0 - np.linspace(1.0, 0.0, 9)).max() < 1e-15


# -- the one dgtsv: LAPACK's, bound from numpy's own library, or the port

NO_ILP64 = "numpy's LAPACK exports no dgtsv that takes 64-bit ints"


def numpy_links_ilp64_openblas():
    """True where numpy's wheel carries scipy-openblas64 on Linux, whose
    scipy_dgtsv_64_ the solves must bind."""
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except TypeError:   # numpy before 1.26 only prints its configuration
        return False
    return (sys.platform.startswith("linux")
            and lapack.get("name") == "scipy-openblas"
            and "USE64BITINT" in lapack.get("openblas configuration", ""))


@pytest.fixture(params=["port", "lapack"])
def back_end(request, monkeypatch):
    """Every FluxWorkspace built in the test solves with this back end."""
    if request.param == "port":
        monkeypatch.setattr(pressure, "_DGTSV", None)
    elif pressure._DGTSV is None:
        pytest.skip(NO_ILP64)
    return request.param


def symmetric_system(rng, n):
    """(off, diag, b) of a random symmetric tridiagonal whose off-diagonal
    outweighs the diagonal in about half the rows, so that rows are
    interchanged."""
    return rng.normal(size=n - 1), rng.normal(size=n), rng.normal(size=n)


def flux_system(rng, n):
    """(off, diag, b) of the flux form's interior system: off-diagonal
    a_{i+1/2} / h^2, diagonal -(a_{i-1/2} + a_{i+1/2}) / h^2."""
    inv_h2 = float(n + 1) ** 2
    a_mid = rng.uniform(0.05, 20.0, n + 1)
    off = a_mid[1:-1] * inv_h2
    diag = -(a_mid[:-1] + a_mid[1:]) * inv_h2
    return off, diag, rng.normal(size=n)


def bound_gtsv(off, diag, b):
    """(x, INFO) of the bound LAPACK call on (off, diag, off) x = b, made
    in a workspace of b's interior size; off, diag and b are only read.
    None where numpy's LAPACK exports no ILP64 dgtsv to bind."""
    if pressure._DGTSV is None:
        return None
    work = FluxWorkspace(b.size + 2, 1.0)
    work.off[:], work.diag[:], work.b[:] = off, diag, b
    info = work.gtsv()
    return work.b.copy(), info


class TestDgtsvPort:
    @pytest.mark.parametrize("n", [6, 63, 255, 1023])
    @pytest.mark.parametrize("make", [symmetric_system, flux_system])
    def test_bits_of_lapack(self, n, make):
        # the port's solution (written into b) and INFO, and the bound
        # call's where there is one, against scipy's LAPACK x and INFO
        rng = np.random.default_rng(n)
        interchanges = 0
        for _ in range(25):
            off, diag, b = make(rng, n)
            kept = off.tobytes(), diag.tobytes()
            du2, *_, x, info = dgtsv(off, diag, off, b)
            assert info == 0
            bound = bound_gtsv(off, diag, b)
            if bound is not None:
                assert bound[1] == info
                assert bound[0].tobytes() == x.tobytes()
            assert _gtsv(off, diag, b) == info
            assert b.tobytes() == x.tobytes()
            assert (off.tobytes(), diag.tobytes()) == kept
            # LAPACK zeroes du2 where it kept the rows and writes U's second
            # superdiagonal there on an interchange; the last row keeps it
            interchanges += np.count_nonzero(du2[:-1])
        if make is symmetric_system:
            assert interchanges > 25 * n // 4
        else:
            assert interchanges == 0

    @pytest.mark.parametrize("row", [0, 3, 6, 7])
    def test_zero_pivot_gives_lapack_info(self, row):
        # a zero row: no interchange can bring a nonzero pivot up
        rng = np.random.default_rng(row)
        off, diag, b = symmetric_system(rng, 8)
        diag[row] = 0.0
        off[max(row - 1, 0):row + 1] = 0.0
        assert dgtsv(off, diag, off, b)[-1] == row + 1
        kept = b.tobytes()
        assert _gtsv(off, diag, b) == row + 1
        assert b.tobytes() == kept
        bound = bound_gtsv(off, diag, b)
        assert bound is None or bound[1] == row + 1

    @pytest.mark.parametrize("row", [0, 3, 6])
    def test_pivot_eliminated_to_zero_gives_lapack_info(self, row):
        # the block [[1, 1], [1, 1]] cut off from its neighbours: the
        # elimination leaves the zero pivot in its second row
        rng = np.random.default_rng(row)
        off, diag, b = symmetric_system(rng, 8)
        diag[row:row + 2] = 1.0
        off[row] = 1.0
        off[row + 1:row + 2] = 0.0
        off[max(row - 1, 0):row] = 0.0
        assert dgtsv(off, diag, off, b)[-1] == row + 2
        assert _gtsv(off, diag, b) == row + 2
        bound = bound_gtsv(off, diag, b)
        assert bound is None or bound[1] == row + 2

    @pytest.mark.parametrize("n", [8, 65, 257, 1025])
    def test_flux_solve_same_bits_with_either_back_end(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        h = 1.0 / (n - 1)
        coef, rhs = rng.uniform(0.05, 20.0, n), rng.normal(size=n)
        bound = solve_flux_bvp(coef, h, rhs, 1.0, -0.5).tobytes()
        monkeypatch.setattr(pressure, "_DGTSV", None)
        assert solve_flux_bvp(coef, h, rhs, 1.0, -0.5).tobytes() == bound

    def test_zero_pivot_is_a_singular_matrix(self, back_end):
        # a_mid / h^2 underflows to zero: the first pivot is 0, INFO = 1
        n = 17
        with pytest.raises(SolverError, match="^singular matrix$"):
            solve_flux_bvp(np.full(n, 1e-300), 1e100, np.zeros(n), 0.0,
                           1.0)

    def test_numpy_wheel_lapack_is_bound(self):
        # numpy's Linux wheels link scipy-openblas64, whose ILP64 dgtsv the
        # solves call; elsewhere the port may be the one routine
        if not numpy_links_ilp64_openblas():
            pytest.skip("numpy links another LAPACK")
        assert pressure._DGTSV is not None
        assert pressure._DGTSV.__name__ == "scipy_dgtsv_64_"
        assert FluxWorkspace(9, 0.125).gtsv.__name__ == "gtsv"


class TestPortFallback:
    """Where numpy's LAPACK exports no ILP64 dgtsv, every solve runs the
    port, and every output has the bits of the LAPACK path."""

    def test_resolver_finds_no_name_gives_none(self, monkeypatch):
        monkeypatch.setattr(pressure, "_ILP64_DGTSV", ("tubeflow_none_64_",))
        assert pressure._resolve_dgtsv() is None

    def test_workspace_binds_the_port(self, monkeypatch):
        monkeypatch.setattr(pressure, "_DGTSV", None)
        assert FluxWorkspace(9, 0.125).gtsv.func is _gtsv

    def test_elastic_pulse_steps_same_bytes(self, monkeypatch):
        cfg = RunConfig.from_file(PRESETS / "elastic_pulse.cfg")
        law, fluid, bc = (cfg.build_wall_law(), cfg.build_fluid(),
                          cfg.build_bc())

        def four_steps():
            state = WallState.from_radius(np.linspace(0.0, cfg.length, 257),
                                          cfg.wall_R0)
            out = []
            for _ in range(4):
                state = advance_time_step(state, law, fluid, bc, 0.0025)
                out.append(state.R.tobytes() + state.dR_dt.tobytes())
            return out

        bound = four_steps()
        monkeypatch.setattr(pressure, "_DGTSV", None)
        assert four_steps() == bound

    def test_rigid_helix_pressures_same_bytes(self, monkeypatch):
        # a rigid wall of varying radius on a helix, with the previous
        # step's wall: all four solves of solve_pressures
        kappa = np.full(65, 1.6 / (1.6**2 + 0.8**2))
        wall, s = make_wall(65, radius=lambda x: 1 + 0.2 * x * (1 - x),
                            rate=lambda x: 0.1 * x)
        prev = WallState.from_radius(s, 1 + 0.19 * s * (1 - s), t=-0.1)

        def solve():
            pexp = solve_pressures(wall, FLUID, PressureBC(1.0, 0.0, 0.3,
                                                           -0.2, 0.1, 0.4),
                                   kappa, BodyForce(0.3, 0.1, 0.0), prev,
                                   0.1)
            return [(f.name, getattr(pexp, f.name)) for f in fields(pexp)]

        bound = solve()
        monkeypatch.setattr(pressure, "_DGTSV", None)
        for (name, a), (_, b) in zip(bound, solve()):
            if name == "residuals":
                assert a == b
            else:
                assert a.tobytes() == b.tobytes(), name


# -- one workspace for many solves: the bits of a fresh solve each time

class TestWorkspace:
    @pytest.mark.parametrize("n", [8, 33, 257, 1025])
    def test_reused_workspace_gives_the_bits_of_a_fresh_one(self, n,
                                                            back_end):
        # solves of different systems, flux and p0 in turn, in one
        # workspace: each has the bytes of the same solve in a fresh
        # workspace, and of the p0 solve in fresh arrays (mask_solve_p0)
        rng = np.random.default_rng(n)
        h = 1.0 / (n - 1)
        work = FluxWorkspace(n, h)
        for _ in range(3):
            coef, rhs = rng.uniform(0.05, 20.0, n), rng.normal(size=n)
            R, rate = rng.uniform(0.5, 2.0, n), rng.normal(size=n)
            p = solve_flux_bvp(coef, h, rhs, 1.0, -0.5, work)
            assert p.tobytes() == solve_flux_bvp(coef, h, rhs, 1.0,
                                                 -0.5).tobytes()
            p0 = solve_p0(R, rate, h, FLUID, 2.0, 0.5, work)
            assert p0.tobytes() == solve_p0(R, rate, h, FLUID, 2.0,
                                            0.5).tobytes()
            assert p0.tobytes() == mask_solve_p0(R, rate, h, FLUID, 2.0,
                                                 0.5).tobytes()
            assert p0 is p   # the workspace's grid, written over

    @pytest.mark.parametrize("byte_offset", [0, 8, 24, 56, 1, 4])
    def test_power_into_a_buffer_has_the_bits_of_the_power(self, byte_offset):
        # an array power and a scalar power can differ in the last bit on
        # AVX-512, so R^4 written into the workspace is held to R**4 of
        # the same array, also into slices off any vector alignment and,
        # at an odd byte offset, off float alignment
        R = np.linspace(0.5, 2.0, 10001)
        raw = np.empty(8 * R.size + 64, dtype=np.uint8)
        out = raw[byte_offset:byte_offset + 8 * R.size].view(np.float64)
        assert out.flags.aligned == (byte_offset % 8 == 0)
        np.power(R, 4, out=out)
        assert out.tobytes() == (R**4).tobytes()

    def test_workspace_of_another_system_rejected(self):
        work = FluxWorkspace(33, 1.0 / 32)
        with pytest.raises(SolverError, match="^workspace is for 33 nodes"):
            solve_flux_bvp(np.ones(17), 1.0 / 16, np.zeros(17), 1.0, 0.0,
                           work=work)
        with pytest.raises(SolverError, match="^workspace is for 33 nodes"):
            solve_p0(np.ones(33), np.zeros(33), 0.5, FLUID, 1.0, 0.0,
                     work=work)

    def test_solve_pressures_grids_are_distinct_arrays(self):
        # each solve runs in a fresh workspace, so no grid the expansion
        # keeps is written over by a later solve
        wall, s = make_wall(33, radius=lambda x: 1 + 0.2 * x,
                            rate=lambda x: 0.1 * x)
        prev = WallState.from_radius(s, 1 + 0.19 * s, t=-0.1)
        pexp = solve_pressures(wall, FLUID, PressureBC(1.0, 0.0),
                               np.full(33, 0.3), BodyForce(), prev, 0.1)
        grids = (pexp.p0, pexp.p1, pexp.p02)
        for i, a in enumerate(grids):
            for b in grids[i + 1:]:
                assert not np.shares_memory(a, b)


class TestP1:
    def test_zero_dirichlet_gives_zero(self):
        wall, _ = make_wall(radius=lambda x: 1 + 0.3 * x)
        p1 = steady(wall, PressureBC()).p1
        assert np.all(p1 == 0.0)

    def test_unit_radius_linear(self):
        wall, s = make_wall()
        p1 = steady(wall, PressureBC(p1_inlet=1.0, p1_outlet=0.0)).p1
        assert np.abs(p1 - (1 - s)).max() < 1e-13

    def test_nonuniform_same_profile_family_as_p0(self):
        wall, s = make_wall(radius=lambda x: (1 + x) ** -0.25)
        p1 = steady(wall, PressureBC(p1_inlet=0.0, p1_outlet=1.0)).p1
        oracle = quadrature_bvp(lambda x: (1 + x) ** -0.25, None, 0.0, 1.0, s)
        assert np.abs(p1 - oracle).max() < 2e-6

    def test_second_derivative_from_the_p1_equation(self):
        wall, _ = make_wall(radius=lambda x: 1 + 0.3 * x)
        pexp = steady(wall, PressureBC(p1_inlet=0.7, p1_outlet=-0.2))
        assert np.array_equal(pexp.d2p1,
                              -4.0 * pexp.dR_ds1 * pexp.dp1 / wall.R)
        # zero data gives +0.0, as the differenced p1 did
        zero = steady(wall, PressureBC()).d2p1
        assert not np.signbit(zero).any() and not zero.any()

    def test_fine_straight_pipe_passes_the_U2_compatibility_check(self):
        # a second difference of p1 left round-off / h^2 in d2p1, which the
        # compatibility integral of g took for a violation at 251 nodes
        cfg = RunConfig.from_mapping({"wall.R0": "4.47", "grid.n_s1": "513",
                                      "bc.p1.inlet": "0.94"})
        res = run_pipeline(cfg)
        assert res.failed_checks() == []


class TestP02:
    def test_straight_rigid_linear_p0_gives_zero(self):
        wall, _ = make_wall()
        p02 = steady(wall, PressureBC(1.0, 0.0)).p02
        assert np.abs(p02).max() < 1e-10

    def test_constant_body_force_still_zero(self):
        # constant R and b01: the bracket is constant, so its gradient is 0
        wall, _ = make_wall()
        p02 = steady(wall, PressureBC(1.0, 0.0), BodyForce(b1=3.0)).p02
        assert np.abs(p02).max() < 1e-9

    def test_bracket_against_independent_assembly(self):
        # manufactured smooth inputs; independent term-by-term evaluation
        n = 101
        s = np.linspace(0.0, 1.0, n)
        R = 1.0 + 0.2 * np.sin(np.pi * s)
        dR = 0.2 * np.pi * np.cos(np.pi * s)
        d2R = -0.2 * np.pi**2 * np.sin(np.pi * s)
        rate = 0.1 * np.ones(n)
        wall = WallState(s1=s, R=R, dR_dt=rate)
        dp0 = np.cos(s)
        d2p0 = -np.sin(s)
        d3p0 = -np.cos(s)
        dt_dp0 = 0.5 * np.ones(n)
        kappa = 0.3 * np.ones(n)
        fluid = FluidParams(1.2, 0.7)
        body = BodyForce(b1=0.25)
        got = p02_bracket(wall, (dR, d2R), fluid, kappa,
                          (dp0, d2p0, d3p0, dt_dp0), body)

        rho0, nu, b1 = 1.2, 0.7, 0.25
        expected = (
            -3 * R**8 / (64 * rho0 * nu**2) * dp0 * d2p0
            - R**6 / 12 * d3p0
            - kappa**2 * R**6 / 48 * dp0
            + R**5 / (2 * nu) * rate * dp0
            - R**7 / (8 * rho0 * nu**2) * dR * dp0**2
            - R**4 / 2 * dR**2 * dp0
            - R**5 / 2 * d2R * dp0
            - R**5 * dR * d2p0
            + R**6 / (6 * nu) * dt_dp0
            + R**4 * rho0 * b1
        )
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_manufactured_rhs_convergence(self):
        # full solve against the quadrature oracle on the divergence form
        def radius(s):
            return 1.0 + 0.2 * np.sin(np.pi * s)

        errs = []
        for n in (51, 101, 201):
            wall, s = make_wall(n, radius=radius)
            pexp = steady(wall, PressureBC(1.0, 0.0))
            # residual in flux form is the authoritative check here
            bracket = p02_bracket(wall, (pexp.dR_ds1, pexp.d2R_ds12),
                                  FLUID, np.zeros(n),
                                  steady_p0_data(wall, PressureBC(1.0, 0.0)),
                                  BodyForce())
            errs.append(flux_residual(
                midpoint_flux(wall.R**4, wall.h, pexp.p02), wall.h,
                bracket_derivative(bracket, wall.h)))
            assert pexp.residuals["p02"] == errs[-1]
        assert max(errs) < 1e-12


class TestInvariantsAndHelpers:
    def test_flux_continuity_homogeneous(self):
        wall, _ = make_wall(radius=lambda x: (1 + x) ** -0.25)
        flux = steady(wall, PressureBC(p1_inlet=0.0, p1_outlet=1.0)).flux_p1
        assert np.abs(np.diff(flux)).max() <= 1e-12 * max(
            1.0, np.abs(flux).max())

    def test_grid_convergence_second_order(self):
        errs = []
        for n in (51, 101, 201, 401):
            wall, s = make_wall(n, radius=lambda x: (1 + x) ** -0.25)
            p0 = solve_p0(wall.R, wall.dR_dt, wall.h, FLUID, 0.0, 1.0)
            exact = (2.0 / 3.0) * (s + s**2 / 2)
            errs.append(np.abs(p0 - exact).max())
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert all(abs(o - 2.0) < 0.2 for o in orders)

    def test_fd_helpers_exact_on_polynomials(self):
        # the second-order stencils are exact on quadratics (d1) and cubics
        # (d2, d3); d1 on a cubic converges at order two
        s = np.linspace(0.0, 1.0, 41)
        h = s[1] - s[0]
        q = 3 * s**2 - s + 4
        assert np.abs(fd_derivative(q, h) - (6 * s - 1)).max() < 1e-12
        v = 2 * s**3 - s**2 + 4
        assert np.abs(fd_second_derivative(v, h) - (12 * s - 2)).max() < 1e-9
        assert np.abs(fd_third_derivative(v, h) - 12.0).max() < 1e-8
        errs = []
        for n in (41, 81):
            x = np.linspace(0.0, 1.0, n)
            errs.append(np.abs(fd_derivative(2 * x**3, x[1] - x[0])
                               - 6 * x**2).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    def test_solve_pressures_bundle(self):
        wall, _ = make_wall(radius=lambda x: 1 + 0.1 * x)
        pexp = steady(wall, PressureBC(1.0, 0.0))
        assert pexp.flux_p0 is not None and pexp.p02.shape == (101,)
        assert flux_residual(pexp.flux_p0, wall.h,
                             16 * wall.R * wall.dR_dt) < 1e-12

        # an unsteady elastic step with its previous wall (dt_dp0 != 0):
        # each kept residual is flux_residual against the right side
        # stated here, bit for bit
        n, dt = 65, 0.05
        s = np.linspace(0.0, 1.0, n)
        fluid = FluidParams(1.2, 0.7)
        law = ElasticWall(E=2e3, h0=0.1, R0=1.0)
        bc = PressureBC(TimeSeries((0.0, 1.0), (6.0, 2.0)), 0.0,
                        p1_inlet=0.5, p02_outlet=-0.25)
        kappa = 0.4 + 0.2 * s
        body = BodyForce(b1=0.3)
        prev = advance_time_step(WallState.from_radius(s, 1.0), law, fluid,
                                 bc, dt)
        wall = advance_time_step(prev, law, fluid, bc, dt)
        pexp = solve_pressures(wall, fluid, bc, kappa, body, prev, dt)
        assert np.abs(pexp.dt_dp0).max() > 0 and np.abs(wall.dR_dt).max() > 0
        r4, h = wall.R**4, wall.h
        rhs0 = 16.0 * 0.7 * 1.2 * wall.R * wall.dR_dt
        bracket = p02_bracket(
            wall, (pexp.dR_ds1, pexp.d2R_ds12), fluid, kappa,
            (pexp.dp0, pexp.d2p0, pexp.d3p0, pexp.dt_dp0), body)
        expected = {
            "p0": flux_residual(midpoint_flux(r4, h, pexp.p0), h, rhs0),
            "p1": flux_residual(midpoint_flux(r4, h, pexp.p1), h,
                                np.zeros(n)),
            "p02": flux_residual(midpoint_flux(r4, h, pexp.p02), h,
                                 bracket_derivative(bracket, h)),
        }
        assert pexp.residuals == expected
        # the kept fluxes are the ones the residuals read
        assert pexp.flux_p0.tobytes() == midpoint_flux(r4, h, pexp.p0).tobytes()
        assert pexp.flux_p1.tobytes() == midpoint_flux(r4, h, pexp.p1).tobytes()
        assert max(expected.values()) < 1e-12

    def test_dirichlet_data_held_exactly(self):
        wall, _ = make_wall(radius=lambda x: (1 + x) ** -0.25)
        bc = PressureBC(3.5, -1.25, p1_inlet=0.5, p1_outlet=2.0,
                        p02_inlet=-0.75, p02_outlet=0.25)
        pexp = solve_pressures(wall, FLUID, bc, np.zeros(101), BodyForce())
        assert (pexp.p0[0], pexp.p0[-1]) == (3.5, -1.25)
        assert (pexp.p1[0], pexp.p1[-1]) == (0.5, 2.0)
        assert (pexp.p02[0], pexp.p02[-1]) == (-0.75, 0.25)


class TestBoundaryData:
    def test_time_series(self):
        ts = TimeSeries((0.0, 1.0, 2.0), (0.0, 10.0, 10.0))
        assert ts(0.5) == 5.0 and ts(1.5) == 10.0
        bc = PressureBC(p0_inlet=ts, p0_outlet=0.0)
        assert bc.p0_at(0.5) == (5.0, 0.0)

    def test_time_series_validation(self):
        with pytest.raises(ConfigurationError):
            TimeSeries((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(ConfigurationError):
            TimeSeries((0.0, 1.0), (np.nan, 2.0))
        # a NaN knot time passed the ordering test and ran with no flow
        for times in ((0.0, np.nan), (np.nan, 1.0), (0.0, np.inf),
                      (-np.inf, 1.0)):
            with pytest.raises(ConfigurationError, match="knot times"):
                TimeSeries(times, (0.0, 1.0))

    def test_non_finite_bc_rejected(self):
        with pytest.raises(ConfigurationError):
            PressureBC(p0_inlet=np.inf).p0_at(0.0)


# -- the guards in mask form, (x <= 0).any(): the reference for the
# fmin-form guards of solve_flux_bvp, solve_p0 and apply_wall_law

def mask_solve_flux_bvp(coef, h, rhs, p_in, p_out):
    coef = np.asarray(coef, dtype=float)
    n = coef.size
    if n < 8:
        raise SolverError("grid too coarse: need at least 8 nodes")
    a_mid = 0.5 * (coef[:-1] + coef[1:])
    if (a_mid <= 0).any():
        raise SolverError("singular flux coefficient (R -> 0?)")
    b = np.asarray(rhs, dtype=float)[1:-1].copy()
    inv_h2 = 1.0 / h**2
    off = a_mid[1:-1] * inv_h2
    diag = -(a_mid[:-1] + a_mid[1:]) * inv_h2
    b[0] -= a_mid[0] * p_in * inv_h2
    b[-1] -= a_mid[-1] * p_out * inv_h2
    if not (np.isfinite(diag).all() and np.isfinite(b).all()):
        raise SolverError("tridiagonal system contains infs or NaNs")
    *_, interior, info = dgtsv(off, diag, off, b)
    if info:
        raise SolverError("singular matrix" if info > 0 else
                          f"illegal value in argument {-info} of gtsv")
    if not np.isfinite(interior).all():
        raise SolverError("tridiagonal solve produced non-finite values")
    return np.concatenate([[p_in], interior, [p_out]])


def mask_solve_p0(R, dR_dt, h, fluid, p_in, p_out):
    if (R <= 0).any():
        raise SolverError("wall radius must stay positive")
    return mask_solve_flux_bvp(R**4, h, 16.0 * fluid.nu * fluid.rho0 * R
                               * dR_dt, p_in, p_out)


def mask_apply_wall_law(law, p0):
    r0, compliance = law.constants
    r = r0 + compliance * (np.asarray(p0, dtype=float) - law.p_e)
    if (r <= 0).any():
        raise WallCollapseError(
            f"elastic law collapsed the wall (min R = {r.min():.3g})")
    return r


def outcome(f, *args):
    """The array f returns, or the class and message of what it raises."""
    with np.errstate(all="ignore"):
        try:
            return f(*args)
        except TubeflowError as err:
            return type(err), str(err)


def spoiled(values, bad):
    """A copy of values with bad at node 16, or at nodes 16 and 20 for a
    pair (a NaN hides the negative from min(), not from the mask)."""
    out = np.array(values, dtype=float)
    out[[16, 20][:np.size(bad)]] = bad
    return out


SPOILERS = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf, "+0.0": 0.0,
            "-0.0": -0.0, "negative": -0.5, "nan_and_negative": (np.nan, -0.5)}
CASES = [*((name, lambda x, b=bad: spoiled(x, b))
           for name, bad in SPOILERS.items()),
         ("tiny", lambda x: x * 1e-200), ("empty", lambda x: x[:0])]


class TestGuards:
    @pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
    def test_solve_p0_and_flux_bvp_raise_as_the_mask_form(self, name, make):
        wall, _ = make_wall(33, radius=lambda x: 1 + 0.2 * x,
                            rate=lambda x: 0.1 * x)
        R = make(wall.R)
        rate, h = wall.dR_dt[:R.size], wall.h
        got = outcome(solve_p0, R, rate, h, FLUID, 1.0, 0.0)
        assert isinstance(got, tuple), name
        assert got == outcome(mask_solve_p0, R, rate, h, FLUID, 1.0, 0.0)
        rhs = np.linspace(0.0, 1.0, R.size)
        got = outcome(solve_flux_bvp, R, h, rhs, 1.0, 0.0)
        want = outcome(mask_solve_flux_bvp, R, h, rhs, 1.0, 0.0)
        if isinstance(want, tuple):
            assert got == want, name
        else:   # 1e-200 is a fine coefficient: both solve, to the bit
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
    def test_wall_law_raises_as_the_mask_form(self, name, make):
        # r = 1 + p0, so p0 = r - 1 puts each spoiled value into r (-0.0
        # becomes +0.0: r0 + x is never -0.0 for r0 > 0)
        law = ElasticWall(E=1.0, h0=1.0, R0=1.0)
        p0 = make(np.full(33, 0.5)) - 1.0
        got = outcome(apply_wall_law, law, p0)
        want = outcome(mask_apply_wall_law, law, p0)
        if isinstance(want, tuple):
            assert got == want, name
        else:
            assert np.array_equal(got, want, equal_nan=True), name

