"""Wall laws and the quasi-static pressure/radius fixed point."""

from pathlib import Path

import numpy as np
import pytest

from tubeflow.cli import RunConfig
from tubeflow.coupling import (
    ElasticWall,
    RigidWall,
    WallState,
    advance_time_step,
    apply_wall_law,
    wall_law_residual,
)
from tubeflow.errors import (
    CouplingDivergenceError,
    TubeflowError,
    WallCollapseError,
)
from tubeflow.expansion import BodyForce, FluidParams
from tubeflow.pressure import (
    PressureBC,
    TimeSeries,
    flux_residual,
    solve_p0,
    solve_pressures,
)

FLUID = FluidParams(1.0, 1.0)
N = 33


def grid():
    return np.linspace(0.0, 1.0, N)


def p0_on(wall, bc):
    """Leading-order pressure solved on a stepped wall at its time."""
    return solve_p0(wall.R, wall.dR_dt, wall.h, FLUID,
                    *bc.p0_at(wall.t))[0]


class TestWallState:
    def test_from_radius_derivatives(self):
        s = grid()
        state = WallState.from_radius(s, 1.0 + 0.5 * s**2)
        assert np.abs(state.dR_ds1 - s).max() < 1e-12
        assert np.abs(state.d2R_ds12 - 1.0).max() < 1e-9

    def test_positive_radius_enforced(self):
        with pytest.raises(TubeflowError):
            WallState.from_radius(grid(), -1.0)


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
        assert flux_residual(new_state.R**4, new_state.h, p0, rhs) <= 1e-8

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
        # absurdly soft wall: the fixed point blows up and is reported
        law = ElasticWall(E=1e-6, h0=1e-3, R0=1.0)
        state = WallState.from_radius(grid(), 1.0)
        with pytest.raises(CouplingDivergenceError) as err:
            advance_time_step(state, law, FLUID, PressureBC(10.0, 0.0),
                              dt=0.1, max_iter=20)
        assert len(err.value.history) == 20

    def test_steady_divergence_raises_with_history(self):
        # dt = None (steady) runs the same loop and reports the same way
        law = ElasticWall(E=1e3, h0=0.1, R0=1.0)
        state = WallState.from_radius(grid(), 1.0)
        with pytest.raises(CouplingDivergenceError) as err:
            advance_time_step(state, law, FLUID, PressureBC(5.0, 0.0),
                              max_iter=3)
        assert len(err.value.history) == 3

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
        for name in ("R", "dR_ds1", "d2R_ds12", "dR_dt"):
            assert np.array_equal(getattr(new_state, name),
                                  getattr(state, name))
        for name in ("p0", "dp0", "d2p0", "d3p0", "dt_dp0", "p1", "dp1",
                     "d2p1", "p02", "dp02", "flux_p0", "flux_p1",
                     "flux_p02"):
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

    def test_unknown_law_rejected(self):
        state = WallState.from_radius(grid(), 1.0)
        with pytest.raises(TubeflowError):
            advance_time_step(state, object(), FLUID,
                              PressureBC(1.0, 0.0), dt=0.1)

    def test_residual_monotone_after_burn_in(self):
        # shipped regression config: moderate stiffness, pressure ramp
        law = ElasticWall(E=1e3, h0=0.1, R0=1.0)
        state = WallState.from_radius(grid(), 1.0)
        history = []

        import tubeflow.coupling as coupling_mod
        original = coupling_mod.apply_wall_law

        def spy(law_, p0):
            r = original(law_, p0)
            history.append(r.copy())
            return r

        coupling_mod.apply_wall_law = spy
        try:
            advance_time_step(state, law, FLUID, PressureBC(5.0, 0.0), dt=0.05)
        finally:
            coupling_mod.apply_wall_law = original
        resids = [np.max(np.abs(history[i + 1] - history[i]))
                  for i in range(len(history) - 1)]
        assert all(r2 <= r1 * (1 + 1e-12)
                   for r1, r2 in zip(resids[2:], resids[3:]))

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
