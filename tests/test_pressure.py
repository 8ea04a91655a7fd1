"""Pressure boundary-value solvers and their derivative machinery."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from tubeflow.cli import RunConfig, run_pipeline
from tubeflow.coupling import ElasticWall, WallState, advance_time_step
from tubeflow.errors import ConfigurationError, SolverError
from tubeflow.expansion import BodyForce, FluidParams
from tubeflow.pressure import (
    PressureBC,
    TimeSeries,
    bracket_derivative,
    fd_derivative,
    fd_second_derivative,
    fd_third_derivative,
    flux_residual,
    p02_bracket,
    solve_flux_bvp,
    solve_p0,
    solve_pressures,
)

from oracles import quadrature_bvp

FLUID = FluidParams(1.0, 1.0)


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
        p0, _ = solve_p0(wall.R, wall.dR_dt, wall.h, FLUID, 1.0, 0.0)
        dp0 = steady_p0_data(wall, PressureBC(1.0, 0.0))[0]
        assert np.abs(p0 - (1 - s)).max() < 1e-13
        assert np.abs(dp0 + 1.0).max() < 1e-12

    def test_nonuniform_radius_vs_quadrature(self):
        # frozen: p0(0.5) = (2/3)(0.5 + 0.125) = 0.41666...
        wall, s = make_wall(n=201, radius=lambda x: (1 + x) ** -0.25)
        p0 = solve_p0(wall.R, wall.dR_dt, wall.h, FLUID, 0.0, 1.0)[0]
        assert p0[100] == pytest.approx(0.4166666666666667, abs=1e-6)
        oracle = quadrature_bvp(lambda x: (1 + x) ** -0.25, None, 0.0, 1.0, s)
        assert np.abs(p0 - oracle).max() < 1e-6

    def test_moving_wall_parabola(self):
        # R = 1, dR/dt = 1, nu = rho0 = 1: p'' = 16 -> 8 s^2 - 8 s exactly
        wall, s = make_wall(rate=lambda x: np.ones_like(x))
        p0 = solve_p0(wall.R, wall.dR_dt, wall.h, FLUID, 0.0, 0.0)[0]
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


class TestFluxSolver:
    @pytest.mark.parametrize("n", [8, 65, 257, 1025])
    @pytest.mark.parametrize("bracket", [False, True])
    def test_bitwise_equal_to_banded_reference(self, n, bracket):
        rng = np.random.default_rng(n)
        h = 1.0 / (n - 1)
        coef = rng.uniform(0.05, 20.0, n)
        rhs = rng.normal(size=n)
        p_in, p_out = (float(v) for v in rng.normal(size=2))
        p, flux = solve_flux_bvp(
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
        assert np.array_equal(flux, a_mid * np.diff(ref) / h)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["coef", "rhs", "p_in"])
    @pytest.mark.parametrize("bracket", [False, True])
    def test_non_finite_input_rejected(self, bad, where, bracket):
        n = 33
        args = {"coef": np.ones(n), "rhs": np.linspace(0.0, 1.0, n),
                "p_in": 1.0}
        if where == "p_in":
            args["p_in"] = bad
        else:
            args[where][n // 2] = bad
        # forming the system may warn (inf - inf); it must still be refused
        with (np.errstate(invalid="ignore"),
              pytest.raises(SolverError, match="infs or NaNs")):
            h = 1.0 / (n - 1)
            rhs = bracket_derivative(args["rhs"], h) if bracket \
                else args["rhs"]
            solve_flux_bvp(args["coef"], h, rhs, args["p_in"], 0.0)


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
                              -4.0 * wall.dR_ds1 * pexp.dp1 / wall.R)
        # zero data gives +0.0, as the differenced p1 did
        zero = steady(wall, PressureBC()).d2p1
        assert not np.signbit(zero).any() and not zero.any()

    def test_fine_straight_pipe_passes_the_U2_compatibility_check(self):
        # a second difference of p1 left round-off / h^2 in d2p1, which the
        # compatibility integral of g took for a violation at 251 nodes
        cfg = RunConfig.from_mapping({"wall.R0": "4.47", "grid.n_s1": "513",
                                      "bc.p1.inlet": "0.94"})
        res = run_pipeline(cfg)
        assert res.compatibility.passed() and res.verification_passed()


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
        wall = WallState(s1=s, R=R, dR_ds1=dR, d2R_ds12=d2R, dR_dt=rate)
        dp0 = np.cos(s)
        d2p0 = -np.sin(s)
        d3p0 = -np.cos(s)
        dt_dp0 = 0.5 * np.ones(n)
        kappa = 0.3 * np.ones(n)
        fluid = FluidParams(1.2, 0.7)
        body = BodyForce(b1=0.25)
        got = p02_bracket(wall, fluid, kappa, (dp0, d2p0, d3p0, dt_dp0), body)

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
            bracket = p02_bracket(wall, FLUID, np.zeros(n),
                                  steady_p0_data(wall, PressureBC(1.0, 0.0)),
                                  BodyForce())
            errs.append(flux_residual(wall.R**4, wall.h, pexp.p02,
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
            p0 = solve_p0(wall.R, wall.dR_dt, wall.h, FLUID, 0.0, 1.0)[0]
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
        assert flux_residual(wall.R**4, wall.h, pexp.p0,
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
            wall, fluid, kappa,
            (pexp.dp0, pexp.d2p0, pexp.d3p0, pexp.dt_dp0), body)
        expected = {
            "p0": flux_residual(r4, h, pexp.p0, rhs0),
            "p1": flux_residual(r4, h, pexp.p1, np.zeros(n)),
            "p02": flux_residual(r4, h, pexp.p02,
                                 bracket_derivative(bracket, h)),
        }
        assert pexp.residuals == expected
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
