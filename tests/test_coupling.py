"""Wall laws and the quasi-static pressure/radius fixed point."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv

from tubeflow.cli import RunConfig, run_pipeline
from tubeflow.coupling import (
    MAX_SWEEPS,
    ElasticWall,
    RigidWall,
    WallState,
    advance_time_step,
    apply_wall_law,
    wall_law_residual,
)
from tubeflow.errors import (
    CouplingDivergenceError,
    SolverError,
    TubeflowError,
    WallCollapseError,
)
from tubeflow.expansion import BodyForce, FluidParams
from tubeflow.pressure import (
    PressureBC,
    TimeSeries,
    fd_second_derivative,
    flux_residual,
    midpoint_flux,
    solve_p0,
    solve_pressures,
)

FLUID = FluidParams(1.0, 1.0)
N = 33


def grid():
    return np.linspace(0.0, 1.0, N)


def p0_on(wall, bc):
    """Leading-order pressure solved on a stepped wall at its time."""
    return solve_p0(wall.R, wall.dR_dt, wall.h, FLUID, *bc.p0_at(wall.t))


class TestWallState:
    def test_wall_derivatives_taken_by_solve_pressures(self):
        s = grid()
        state = WallState.from_radius(s, 1.0 + 0.5 * s**2)
        pexp = solve_pressures(state, FLUID, PressureBC(), np.zeros(N),
                               BodyForce())
        assert np.abs(pexp.dR_ds1 - s).max() < 1e-12
        assert np.abs(pexp.d2R_ds12 - 1.0).max() < 1e-9

    def test_positive_radius_enforced(self):
        with pytest.raises(TubeflowError):
            WallState.from_radius(grid(), -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_radius_rejected(self, bad):
        # a NaN radius passed, as NaN <= 0 is False
        R = np.ones(N)
        R[N // 2] = bad
        with pytest.raises(TubeflowError, match="finite and positive"):
            WallState.from_radius(grid(), R)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, bad):
        # a rigid step from t = nan returned a wall at t = nan
        s = grid()
        with pytest.raises(TubeflowError, match=f"finite, got {bad}$"):
            WallState.from_radius(s, 1.0, t=bad)
        ok = WallState.from_radius(s, 1.0)
        with pytest.raises(TubeflowError, match=f"finite, got {bad}$"):
            WallState(s1=s, R=ok.R, dR_dt=ok.dR_dt, t=bad)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fewer_than_four_nodes_rejected(self, n):
        # these raised numpy's IndexError from the derivative stencils
        with pytest.raises(TubeflowError,
                           match=f"at least 4 axis nodes, got {n}$"):
            WallState.from_radius(np.linspace(0.0, 1.0, n), 1.0)

    @pytest.mark.parametrize("name,kwargs", [
        ("R", {"R": np.ones(5)}),
        ("dR_dt", {"R": 1.0, "dR_dt": np.zeros(12)})])
    def test_profile_of_the_wrong_length_rejected(self, name, kwargs):
        # numpy's broadcast ValueError named neither length
        n = kwargs[name].size
        with pytest.raises(TubeflowError,
                           match=f"^{name} has {n} nodes, the axis grid "
                                 f"has 9$"):
            WallState.from_radius(np.linspace(0.0, 1.0, 9), **kwargs)

    @pytest.mark.parametrize("sizes,message", [
        ((8, 9, 9), "R has 9 nodes, the axis grid has 8"),
        ((9, 8, 9), "R has 8 nodes, the axis grid has 9"),
        ((9, 9, 10), "dR_dt has 10 nodes, the axis grid has 9"),
        ((9, 10, 8), "R has 10 nodes, the axis grid has 9")],
        ids=["short_grid", "short_R", "long_rate", "long_R"])
    def test_bare_state_of_unequal_lengths_rejected(self, sizes, message):
        # the constructor each step uses built these, and solve_pressures
        # solved them without a word
        n_s, n_r, n_rate = sizes
        with pytest.raises(TubeflowError, match=f"^{message}$"):
            WallState(np.linspace(0.0, 1.0, n_s), np.ones(n_r),
                      np.zeros(n_rate))

    def test_unequal_steps_rejected(self):
        # every solve uses h = s1[1] - s1[0]: on this grid a straight
        # pipe's p0 came out linear in the node index, 0.625 at s1 = 0.2
        # against 1 - s1 = 0.8
        s = np.array([0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.85, 1.0])
        with pytest.raises(TubeflowError, match="equal steps"):
            WallState.from_radius(s, 1.0)
        for bad in (s[::-1], np.zeros(9), np.linspace(0.0, np.nan, 9)):
            with pytest.raises(TubeflowError, match="equal steps"):
                WallState.from_radius(bad, 1.0)

    @pytest.mark.parametrize("n", [4, 65, 1025, 65537])
    @pytest.mark.parametrize("length", [1e-3, 0.7, 1e3])
    def test_linspace_grids_accepted(self, n, length):
        s = np.linspace(0.0, length, n)
        assert WallState.from_radius(s, 1.0).h == s[1] - s[0]

    def test_two_dimensional_grid_rejected(self):
        # this ended in an IndexError after RuntimeWarnings
        s = np.linspace(0.0, 1.0, 16).reshape(4, 4)
        with pytest.raises(TubeflowError, match=r"1-D, got shape \(4, 4\)"):
            WallState.from_radius(s, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, bad):
        # this reached the solver as "tridiagonal system contains infs or
        # NaNs", which named neither the wall nor the rate
        s = grid()
        with pytest.raises(TubeflowError, match="rate dR/dt must be finite"):
            WallState.from_radius(s, 1.0, dR_dt=bad)
        rate = np.zeros(N)
        rate[3] = bad
        with pytest.raises(TubeflowError, match="rate dR/dt must be finite"):
            WallState(s, np.ones(N), rate)

    @pytest.mark.parametrize("n", [4, 7])
    def test_four_nodes_suffice(self, n):
        s = np.linspace(0.0, 1.0, n)
        state = WallState.from_radius(s, 1.0 + s**2)
        assert np.allclose(fd_second_derivative(state.R, state.h), 2.0)


class TestWallLaw:
    def test_rest_state(self):
        law = ElasticWall(E=10.0, h0=1.0, R0=1.0, p_e=5.0)
        assert np.allclose(apply_wall_law(law, np.full(N, 5.0)), 1.0)

    def test_direct_formula(self):
        # E h0 / R0^2 = 10, p0 - p_e = 1 -> R = 1.1
        law = ElasticWall(E=1000.0, h0=0.01, R0=1.0)
        assert np.allclose(apply_wall_law(law, np.ones(N)), 1.1)

    def test_stiff_limit_recovers_rest(self):
        law = ElasticWall(E=1e12, h0=1.0, R0=1.0)
        r = apply_wall_law(law, np.full(N, 1.0))
        assert np.abs(r - 1.0).max() < 1e-9

    def test_collapse_error(self):
        law = ElasticWall(E=1.0, h0=1.0, R0=1.0)
        with pytest.raises(WallCollapseError):
            apply_wall_law(law, np.full(N, -2.0))

    @pytest.mark.parametrize("n", [9, 11])
    def test_mismatched_lengths_rejected(self, n):
        law = ElasticWall(1.0, 1.0, np.ones(10))
        with pytest.raises(TubeflowError,
                           match=f"p0 has {n} nodes, elastic law has 10 rest"):
            apply_wall_law(law, np.ones(n))

    def test_rigid_variant_rejected(self):
        with pytest.raises(TubeflowError):
            apply_wall_law(RigidWall(), np.ones(N))

    def test_parameter_validation(self):
        with pytest.raises(TubeflowError):
            ElasticWall(E=-1.0, h0=1.0, R0=1.0)

    @pytest.mark.parametrize("bad", [
        {"E": np.nan}, {"h0": np.nan}, {"R0": np.nan}, {"p_e": np.nan},
        {"R0": np.array([1.0, np.nan])}, {"R0": np.inf}, {"E": np.inf}])
    def test_non_finite_parameters_rejected(self, bad):
        # NaN passed the old `<= 0` tests and surfaced as a SolverError
        with pytest.raises(TubeflowError, match="finite"):
            ElasticWall(**{"E": 1.0, "h0": 1.0, "R0": 1.0, **bad})

    @pytest.mark.parametrize("R0", [
        0.7, 1.0, 4.89, 1 / 3,
        tuple(np.linspace(0.4, 2.3, N).tolist()),
        tuple(np.random.default_rng(13).uniform(0.1, 5.0, N).tolist())])
    @pytest.mark.parametrize("E,h0,p_e", [
        (1000.0, 0.01, 0.0), (1.5e4, 0.065, -0.25), (539.0, 0.164, 2.0),
        (1e5, 1 / 7, 0.1)])
    def test_law_keeps_the_bits_of_the_per_call_formula(self, R0, E, h0,
                                                        p_e):
        # the cached constants give the bits of the formula they replace
        law = ElasticWall(E=E, h0=h0, R0=R0, p_e=p_e)
        p0 = np.random.default_rng(7).uniform(-2.0, 3.0, N)
        p0[:3] = (-0.0, p_e, 0.0)
        r0 = (np.full(N, R0, dtype=float) if np.ndim(R0) == 0
              else np.array(R0, dtype=float))
        want = r0 + r0**2 / (E * h0) * (p0 - p_e)
        got = apply_wall_law(law, p0)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert law.constants is law.constants
        # written into a sweep's buffer, the same bits
        out = np.full(N, np.nan)
        assert apply_wall_law(law, p0, out) is out
        assert out.tobytes() == want.tobytes()

    def test_residual_measure(self):
        law = ElasticWall(E=1000.0, h0=0.01, R0=1.0)
        p0 = np.ones(N)
        r = apply_wall_law(law, p0)
        assert wall_law_residual(law, p0, r).max() < 1e-15


class TestTimeStepping:
    def test_rigid_short_circuit(self):
        state = WallState.from_radius(grid(), 1.0)
        bc = PressureBC(1.0, 0.0)
        new_state = advance_time_step(state, RigidWall(), FLUID, bc, dt=0.1)
        assert np.all(new_state.R == state.R)
        assert np.all(new_state.dR_dt == 0.0)
        assert new_state.t == pytest.approx(0.1)
        assert np.abs(p0_on(new_state, bc) - (1 - grid())).max() < 1e-12

    def test_equilibrium_fixed_point(self):
        # p_in = p_out = p_e: R = R0, p0 = p_e immediately
        law = ElasticWall(E=100.0, h0=0.1, R0=1.0, p_e=2.0)
        state = WallState.from_radius(grid(), 1.0)
        bc = PressureBC(2.0, 2.0)
        new_state = advance_time_step(state, law, FLUID, bc, dt=0.1)
        assert np.abs(new_state.R - 1.0).max() < 1e-12
        assert np.abs(p0_on(new_state, bc) - 2.0).max() < 1e-10

    def test_step_change_consistency(self):
        # after a pressure step, law and BVP residuals hold simultaneously
        law = ElasticWall(E=1e3, h0=0.1, R0=1.0, p_e=0.0)
        state = WallState.from_radius(grid(), 1.0)
        bc = PressureBC(5.0, 0.0)
        new_state = advance_time_step(state, law, FLUID, bc, dt=0.05)
        p0 = p0_on(new_state, bc)
        assert wall_law_residual(law, p0, new_state.R).max() <= 1e-9
        rhs = 16.0 * new_state.R * new_state.dR_dt
        flux = midpoint_flux(new_state.R**4, new_state.h, p0)
        assert flux_residual(flux, new_state.h, rhs) <= 1e-8

    def test_one_boundary_read_per_step(self, monkeypatch):
        # the time series is read once per step, not once per sweep
        reads = []
        p0_at = PressureBC.p0_at

        def counted(bc, t):
            reads.append(t)
            return p0_at(bc, t)

        monkeypatch.setattr(PressureBC, "p0_at", counted)
        law = ElasticWall(E=1e3, h0=0.1, R0=1.0)
        bc = PressureBC(TimeSeries((0.0, 1.0), (0.0, 10.0)), 0.0)
        advance_time_step(WallState.from_radius(grid(), 1.0), law, FLUID, bc,
                          dt=0.05)
        assert reads == [0.05]

    def test_stiff_wall_matches_rigid(self):
        bc = PressureBC(5.0, 0.0)
        rigid_state = advance_time_step(
            WallState.from_radius(grid(), 1.0), RigidWall(), FLUID, bc, dt=0.05)
        law = ElasticWall(E=1e12, h0=0.1, R0=1.0)
        soft_state = advance_time_step(
            WallState.from_radius(grid(), 1.0), law, FLUID, bc, dt=0.05)
        rigid_p0, soft_p0 = p0_on(rigid_state, bc), p0_on(soft_state, bc)
        assert np.abs(soft_state.R - rigid_state.R).max() < 1e-9
        assert np.abs(soft_p0 - rigid_p0).max() \
            <= 1e-9 * np.abs(rigid_p0).max()

    def test_divergence_raises_with_history(self):
        # soft wall, short step: the relaxed fixed point contracts so slowly
        # that its residual is still 1.5e-3 after the last sweep
        law = ElasticWall(E=100.0, h0=0.1, R0=1.0)
        state = WallState.from_radius(grid(), 1.0)
        with pytest.raises(CouplingDivergenceError,
                           match=f"in {MAX_SWEEPS} iterations") as err:
            advance_time_step(state, law, FLUID, PressureBC(1.0, 0.0),
                              dt=0.05)
        assert len(err.value.history) == MAX_SWEEPS
        assert err.value.t == 0.05   # the end time of the failing step

    def test_steady_divergence_raises_with_history(self):
        # dt = None (steady) runs the same loop and reports the same way:
        # with a very soft wall on 1025 nodes the residual is still 5e-3
        # after the last sweep, against a tolerance of about 5e-8
        law = ElasticWall(E=1e-3, h0=0.1, R0=1.0)
        state = WallState.from_radius(np.linspace(0.0, 1.0, 1025), 1.0)
        with pytest.raises(CouplingDivergenceError) as err:
            advance_time_step(state, law, FLUID, PressureBC(5.0, 0.0))
        assert len(err.value.history) == MAX_SWEEPS
        assert err.value.t == 0.0

    def test_steady_rigid_step_is_one_pressure_solve(self):
        # dt = None: the rigid step keeps the wall, so the pressures on it
        # are solve_pressures on the same wall
        s = grid()
        state = WallState.from_radius(s, 1.0 + 0.2 * s, t=0.7)
        kappa = 0.3 * np.ones(N)
        bc = PressureBC(1.0, 0.0)
        new_state = advance_time_step(state, RigidWall(), FLUID, bc)
        pexp = solve_pressures(new_state, FLUID, bc, kappa, BodyForce())
        direct = solve_pressures(state, FLUID, bc, kappa, BodyForce())
        assert new_state.t == 0.7
        for name in ("R", "dR_dt"):
            assert np.array_equal(getattr(new_state, name),
                                  getattr(state, name))
        for name in ("dR_ds1", "d2R_ds12", "p0", "dp0", "d2p0", "d3p0", "dt_dp0", "p1", "dp1",
                     "d2p1", "p02", "dp02", "flux_p0", "flux_p1"):
            assert np.array_equal(getattr(pexp, name), getattr(direct, name))

    def test_steady_elastic_step_reaches_law(self):
        law = ElasticWall(E=1e3, h0=0.1, R0=1.0)
        state = WallState.from_radius(grid(), 1.0)
        bc = PressureBC(5.0, 0.0)
        new_state = advance_time_step(state, law, FLUID, bc)
        assert new_state.t == 0.0
        assert np.all(new_state.dR_dt == 0.0)
        assert new_state.R.max() > 1.0
        assert wall_law_residual(law, p0_on(new_state, bc),
                                 new_state.R).max() <= 1e-12

    def test_bad_dt_rejected(self):
        state = WallState.from_radius(grid(), 1.0)
        with pytest.raises(TubeflowError):
            advance_time_step(state, RigidWall(), FLUID,
                              PressureBC(1.0, 0.0), dt=0.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    @pytest.mark.parametrize("law", [RigidWall(),
                                     ElasticWall(E=1e3, h0=0.1, R0=1.0)],
                             ids=["rigid", "elastic"])
    def test_non_finite_dt_rejected(self, law, dt):
        # both passed dt <= 0: a rigid step (and an elastic one at inf)
        # returned a wall at t = nan or inf
        state = WallState.from_radius(grid(), 1.0)
        with pytest.raises(TubeflowError,
                           match=f"finite and positive, got {dt}$"):
            advance_time_step(state, law, FLUID, PressureBC(1.0, 0.0), dt=dt)

    @pytest.mark.parametrize("dt", [None, 0.1])
    def test_law_of_another_length_rejected(self, dt):
        # the length check of the law is reached through a step, steady
        # or not, before any sweep relaxes the wall
        law = ElasticWall(E=1e3, h0=0.1, R0=np.ones(10))
        state = WallState.from_radius(grid(), 1.0)
        with pytest.raises(TubeflowError,
                           match=f"p0 has {N} nodes, elastic law has 10 rest"):
            advance_time_step(state, law, FLUID, PressureBC(1.0, 0.0), dt=dt)

    def test_unknown_law_rejected(self):
        state = WallState.from_radius(grid(), 1.0)
        with pytest.raises(TubeflowError):
            advance_time_step(state, object(), FLUID,
                              PressureBC(1.0, 0.0), dt=0.1)

    def test_consecutive_states_share_no_memory(self):
        # each step relaxes its wall in arrays of its own: the state it
        # returns keeps neither the previous state's arrays nor its sweep
        # buffers, and a solve_p0 of one wall leaves the other as it was
        law = ElasticWall(E=1e3, h0=0.1, R0=1.0)
        bc = PressureBC(5.0, 0.0)
        states = [WallState.from_radius(grid(), 1.0)]
        for dt in (0.05, 0.05, None):
            states.append(advance_time_step(states[-1], law, FLUID, bc, dt))
        for a, b in zip(states, states[1:]):
            kept = a.R.tobytes(), a.dR_dt.tobytes()
            for x in (a.R, a.dR_dt, b.R):
                for y in (b.R, b.dR_dt):
                    assert x is y or not np.shares_memory(x, y)
            p0_on(b, bc)
            assert (a.R.tobytes(), a.dR_dt.tobytes()) == kept

    def test_too_coarse_grid_rejected_before_any_sweep_ends(self):
        # the step's workspace checks the grid as the first solve did
        law = ElasticWall(E=1e3, h0=0.1, R0=1.0)
        state = WallState.from_radius(np.linspace(0.0, 1.0, 5), 1.0)
        with pytest.raises(SolverError,
                           match="^grid too coarse: need at least 8 nodes$"):
            advance_time_step(state, law, FLUID, PressureBC(1.0, 0.0), 0.1)

    def test_residual_monotone_after_burn_in(self):
        # shipped regression config: moderate stiffness, pressure ramp
        law = ElasticWall(E=1e3, h0=0.1, R0=1.0)
        state = WallState.from_radius(grid(), 1.0)
        history = []

        import tubeflow.coupling as coupling_mod
        original = coupling_mod.apply_wall_law

        def spy(law_, p0, out=None):
            r = original(law_, p0, out)
            history.append(r.copy())
            return r

        coupling_mod.apply_wall_law = spy
        try:
            advance_time_step(state, law, FLUID, PressureBC(5.0, 0.0), dt=0.05)
        finally:
            coupling_mod.apply_wall_law = original
        # all() of an empty list is True: the spy must have seen the sweeps
        assert len(history) > 4
        resids = [np.max(np.abs(history[i + 1] - history[i]))
                  for i in range(len(history) - 1)]
        assert all(r2 <= r1 * (1 + 1e-12)
                   for r1, r2 in zip(resids[2:], resids[3:]))

    def test_elastic_pulse_p0_solves_per_step(self, monkeypatch):
        # a step's bits depend on its iteration path, so the number of
        # sweeps each step of the elastic pulse preset takes is pinned
        import tubeflow.coupling as coupling_mod
        root = Path(__file__).resolve().parent.parent
        cfg = RunConfig.from_file(root / "presets" / "elastic_pulse.cfg")
        law, fluid = cfg.build_wall_law(), cfg.build_fluid()
        bc = cfg.build_bc()
        calls = []
        original = coupling_mod.solve_p0

        def spy(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(coupling_mod, "solve_p0", spy)
        state = WallState.from_radius(np.linspace(0.0, cfg.length, 33),
                                      cfg.wall_R0)
        counts = []
        for _ in range(round(cfg.t_end / cfg.dt)):
            calls.clear()
            state = advance_time_step(state, law, fluid, bc, cfg.dt)
            counts.append(len(calls))
        assert counts == [28] * 8 + [21, 18, 16, 13, 11, 9, 6, 4, 2, 1, 1, 1]

    def test_implicit_euler_is_first_order_in_time(self):
        # the elastic pulse preset to t = 0.4 at halving dt: max |dR|
        # between successive runs halves, as implicit Euler's O(dt) error
        root = Path(__file__).resolve().parent.parent
        cfg = RunConfig.from_file(root / "presets" / "elastic_pulse.cfg")
        law, fluid = cfg.build_wall_law(), cfg.build_fluid()
        bc = cfg.build_bc()
        finals = []
        for dt in (0.04, 0.02, 0.01, 0.005):
            state = WallState.from_radius(np.linspace(0.0, cfg.length, 33),
                                          cfg.wall_R0)
            for _ in range(round(0.4 / dt)):
                state = advance_time_step(state, law, fluid, bc, dt)
            finals.append(state.R)
        diffs = [np.abs(a - b).max() for a, b in zip(finals, finals[1:])]
        orders = np.log2(np.divide(diffs[:-1], diffs[1:]))
        assert np.all((orders >= 0.8) & (orders <= 1.2)), orders

    @pytest.mark.parametrize("E", [2e3, 100.0])
    def test_steady_elastic_wall_is_second_order_in_space(self, E):
        # steady, uniform R0: R^4 p0' is constant and p0' is a multiple of
        # R', so R^5 is linear in s1 between the law's radii at p_in and
        # p_out.  Past n = 257 the stiff wall's error nears the 1e-12
        # coupling tolerance.
        law = ElasticWall(E=E, h0=0.1, R0=1.0)
        bc = PressureBC(8.0, 0.0)
        r_in, r_out = (1.0 + (p - law.p_e) / (E * law.h0)
                       for p in bc.p0_at(0.0))
        errors = []
        for n in (33, 65, 129, 257):
            s = np.linspace(0.0, 1.0, n)
            state = advance_time_step(WallState.from_radius(s, 1.0), law,
                                      FLUID, bc, dt=None)
            exact = (r_in**5 + (r_out**5 - r_in**5) * s) ** 0.2
            errors.append(np.abs(state.R - exact).max())
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert np.all((orders >= 1.9) & (orders <= 2.1)), orders


# -- the wall fixed point as a plain loop: the reference for the one-buffer
# solve and the in-place relaxation of advance_time_step

def plain_step(state, law, fluid, bc, dt=None):
    """(R, dR_dt, t, sweeps) of one step, with new arrays for every
    intermediate and the p0 system solved from copies, as a concatenation."""
    r_old, h = state.R, state.h
    t = state.t if dt is None else state.t + dt
    tol = 1e-12 if dt is None else 1e-10
    p_in, p_out = bc.p0_at(t)
    r0, compliance = law.constants
    inv_h2 = 1.0 / h**2

    def rate(r):
        return np.zeros_like(r) if dt is None else (r - r_old) / dt

    r_cur, omega, history = r_old.copy(), 0.5, []
    for _ in range(MAX_SWEEPS):
        coef = r_cur**4
        a_mid = 0.5 * (coef[:-1] + coef[1:])
        b = (16.0 * fluid.nu * fluid.rho0 * r_cur * rate(r_cur))[1:-1].copy()
        b[0] -= a_mid[0] * p_in * inv_h2
        b[-1] -= a_mid[-1] * p_out * inv_h2
        off = a_mid[1:-1] * inv_h2
        diag = -(a_mid[:-1] + a_mid[1:]) * inv_h2
        p0 = np.concatenate([[p_in], dgtsv(off, diag, off, b)[3], [p_out]])
        change = r0 + compliance * (p0 - law.p_e) - r_cur
        history.append(np.abs(change).max())
        if history[-1] <= tol * r_cur.max():
            r_new = r_cur + omega * change
            return r_new, rate(r_new), t, len(history)
        if len(history) > 3 and history[-1] > history[-2]:
            omega *= 0.5
        r_cur = r_cur + omega * change
    raise AssertionError("the plain loop did not converge")


@pytest.fixture
def p0_calls(monkeypatch):
    """A list that gains one entry per solve_p0 call of the wall step."""
    import tubeflow.coupling as coupling_mod
    calls = []
    original = coupling_mod.solve_p0

    def spy(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(coupling_mod, "solve_p0", spy)
    return calls


def assert_same_step(p0_calls, state, law, fluid, bc, dt):
    p0_calls.clear()
    new = advance_time_step(state, law, fluid, bc, dt)
    R, rate, t, sweeps = plain_step(state, law, fluid, bc, dt)
    assert new.R.tobytes() == R.tobytes()
    assert new.dR_dt.tobytes() == rate.tobytes()
    assert new.t == t
    assert len(p0_calls) == sweeps
    return new


class TestPlainReference:
    def test_elastic_pulse_steps_bitwise_equal(self, p0_calls):
        root = Path(__file__).resolve().parent.parent
        cfg = RunConfig.from_file(root / "presets" / "elastic_pulse.cfg")
        law, fluid = cfg.build_wall_law(), cfg.build_fluid()
        bc = cfg.build_bc()
        state = WallState.from_radius(np.linspace(0.0, cfg.length, 257),
                                      cfg.wall_R0)
        for _ in range(4):
            state = assert_same_step(p0_calls, state, law, fluid, bc, 0.0025)
        assert state.R.max() > cfg.wall_R0

    def test_steady_step_bitwise_equal(self, p0_calls):
        law = ElasticWall(E=1e3, h0=0.1, R0=1.0, p_e=0.5)
        state = WallState.from_radius(np.linspace(0.0, 1.0, 257), 1.0)
        assert_same_step(p0_calls, state, law, FLUID, PressureBC(5.0, 0.0),
                         None)

    def test_sweeps_solve_with_lapack(self, monkeypatch, p0_calls):
        # every sweep's solve is one call of the dgtsv bound from numpy's
        # LAPACK
        import tubeflow.pressure as pressure_mod
        bound = pressure_mod._DGTSV
        if bound is None:
            pytest.skip("numpy's LAPACK exports no ILP64 dgtsv")
        solves = []

        def spy(*args):
            solves.append(1)
            return bound(*args)

        monkeypatch.setattr(pressure_mod, "_DGTSV", spy)
        law = ElasticWall(E=1e3, h0=0.1, R0=1.0, p_e=0.5)
        state = WallState.from_radius(np.linspace(0.0, 1.0, 33), 1.0)
        advance_time_step(state, law, FLUID, PressureBC(5.0, 0.0), 0.01)
        assert p0_calls and len(solves) == len(p0_calls)


def stencil_calls(run):
    """Calls of the four s1-stencils made while ``run()`` runs, counted by
    code object so that a name bound by ``from .pressure import`` counts
    too."""
    import tubeflow.pressure as pressure_mod
    codes = {fn.__code__ for fn in (
        pressure_mod.fd_derivative, pressure_mod.fd_second_derivative,
        pressure_mod.fd_third_derivative, pressure_mod.bracket_derivative)}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return len(calls)


class TestStencilsTakenOnce:
    def test_stencil_count_does_not_grow_with_the_steps(self):
        # the steps carry R and dR/dt only; R', R'' and the pressure
        # derivatives are taken once, on the final wall (a state built per
        # step used to difference R twice: 13, 17 and 25 calls here)
        root = Path(__file__).resolve().parent.parent
        cfg = RunConfig.from_file(root / "presets" / "elastic_pulse.cfg")
        counts = [stencil_calls(lambda: run_pipeline(
            replace(cfg, t_end=steps * cfg.dt))) for steps in (2, 4, 8)]
        assert counts == [9, 9, 9]
