"""Flow rates, conservation residuals, compatibility, convergence studies."""

import numpy as np
import pytest

from tubeflow.coupling import WallState
from tubeflow.expansion import (
    BodyForce,
    FluidParams,
    NodeStations,
    evaluate_station,
    stations_from_grids,
    verification_terms,
)
from tubeflow.geometry import CenterCurve
from tubeflow.polydisc import DiscPoly, restrict_to_boundary
from tubeflow.pressure import PressureBC, solve_pressures
from tubeflow.verify import (
    azimuthal_polynomial,
    check_compatibility,
    check_mass_conservation,
    cos_mode_content,
    figure_shape_checks,
    flow_rates,
    fourier_mode_magnitudes,
    pressure_residuals,
    quadrature_reference,
    run_convergence_study,
)

from oracles import polar_quadrature_integral, quadrature_bvp

FLUID = FluidParams(1.0, 1.0)


def solved_case(n=65, radius=1.0, rate=None, kappa_val=0.0,
                bc=None, curve=None):
    s = np.linspace(0.0, 1.0, n)
    wall = WallState.from_radius(
        s, radius, dR_dt=None if rate is None else np.full(n, rate))
    curve = curve or (CenterCurve.straight(1.0) if kappa_val == 0.0
                      else CenterCurve.circular_arc(1.0 / kappa_val, 1.0))
    curvature = curve.curvature(s)
    bc = bc or PressureBC(1.0, 0.0)
    pexp = solve_pressures(wall, FLUID, bc, curvature[0], BodyForce())
    data = stations_from_grids(wall, pexp, curvature, FLUID, BodyForce())
    stations = NodeStations(data)
    fields = [evaluate_station(sd) for sd in stations]
    return wall, pexp, stations, fields, verification_terms(data)


class TestFlowRates:
    def test_poiseuille_value(self):
        wall, pexp, stations, fields, terms = solved_case()
        flow = flow_rates(terms, wall.R)
        # frozen: 2D quadrature of u1^0 gives pi/8
        assert np.abs(flow.q0 - np.pi / 8).max() < 1e-10
        assert flow.q0[0] == pytest.approx(
            polar_quadrature_integral(fields[0].u1_0), abs=1e-9)

    def test_q1_zero_under_default_p1(self):
        # the cos-mode of u1^1 integrates to zero; default p1 is zero
        wall, pexp, stations, fields, terms = solved_case(kappa_val=0.5)
        flow = flow_rates(terms, wall.R)
        assert np.abs(flow.q1).max() < 1e-14
        assert not fields[32].u1_1.is_zero()
        assert flow.q1[32] == pytest.approx(
            polar_quadrature_integral(fields[32].u1_1), abs=1e-9)

    def test_zero_field_zero_flow(self):
        wall, pexp, stations, fields, terms = solved_case(
            bc=PressureBC(0.0, 0.0))
        flow = flow_rates(terms, wall.R)
        assert np.abs(flow.q0).max() < 1e-12
        assert flow.area[0] == pytest.approx(np.pi)


class TestMassConservation:
    def test_rigid_wall(self):
        wall, pexp, stations, fields, terms = solved_case(
            n=65, radius=(1 + np.linspace(0, 1, 65)) ** -0.25)
        flow = flow_rates(terms, wall.R)
        report = check_mass_conservation(flow, wall, pexp, FLUID)
        assert np.abs(report.residual_q0).max() <= 1e-8
        assert np.abs(report.residual_q1).max() <= 1e-10

    def test_moving_wall_analytic_rate(self):
        # R = 1, dR/dt = 1: dQ0/ds1 must equal -2 pi R dR/dt pointwise
        wall, pexp, stations, fields, terms = solved_case(
            rate=1.0, bc=PressureBC(0.0, 0.0))
        flow = flow_rates(terms, wall.R)
        report = check_mass_conservation(flow, wall, pexp, FLUID)
        h = pexp.h
        dq0 = -np.pi / 8 * np.diff(pexp.flux_p0) / h
        assert np.abs(dq0 + 2 * np.pi).max() < 1e-8
        assert np.abs(report.residual_q0).max() <= 1e-8
        assert report.passed()

    def test_q0_closed_form_equivalence(self):
        # Q0 = -(pi R^4 / 8 rho0 nu) p0' identically
        wall, pexp, stations, fields, terms = solved_case(
            n=65, radius=(1 + np.linspace(0, 1, 65)) ** -0.25)
        flow = flow_rates(terms, wall.R)
        closed = -np.pi * wall.R**4 / 8.0 * pexp.dp0
        assert np.abs(flow.q0 - closed).max() < 1e-12


class TestCompatibility:
    def test_rigid_straight_exact_zero(self):
        wall, pexp, stations, fields, terms = solved_case()
        report = check_compatibility(wall, FLUID, pexp, terms)
        assert report.max_u1_residual < 1e-12
        assert report.max_g_integral == 0.0

    def test_moving_parabola_hand_value(self):
        # p0 = 8 s^2 - 8 s, R = 1, dR/dt = 1: lhs/2pi = (1/16)(32 - 16) = 1
        wall, pexp, stations, fields, terms = solved_case(
            rate=1.0, bc=PressureBC(0.0, 0.0))
        report = check_compatibility(wall, FLUID, pexp, terms)
        assert np.abs(report.u1_lhs / (2 * np.pi) - 1.0).max() < 1e-9
        assert np.allclose(report.u1_rhs, 2 * np.pi)
        assert report.max_u1_residual < 1e-9

    def test_u1_lhs_is_the_closed_form_wall_trace(self):
        # the nodal u1 identity restates 2 pi times the cos(s2) mode of
        # the U1 closed form on the wall, at every node
        n = 65
        s = np.linspace(0.0, 1.0, n)
        fluid = FluidParams(1.2, 0.7)
        wall = WallState.from_radius(s, 1.0 + 0.2 * np.sin(np.pi * s),
                                     dR_dt=np.ones(n))
        curve = CenterCurve.circular_arc(2.0, 1.0)
        curvature = curve.curvature(s)
        pexp = solve_pressures(wall, fluid, PressureBC(1.0, 0.0),
                               curvature[0], BodyForce())
        data = stations_from_grids(wall, pexp, curvature, fluid, BodyForce())
        fields = [evaluate_station(sd) for sd in NodeStations(data)]
        lhs = check_compatibility(wall, fluid, pexp,
                                  verification_terms(data)).u1_lhs
        trace = 2 * np.pi * np.array(
            [restrict_to_boundary(f.U1[0]).cos_coeff(1) for f in fields])
        assert np.abs(lhs - trace).max() <= 1e-12 * np.abs(lhs).max()

    def test_g_integral_zero_when_p1_solved(self):
        # constant R with nonzero p1 data: p1 is linear, g integrates to 0
        wall, pexp, stations, fields, terms = solved_case(
            bc=PressureBC(1.0, 0.0, p1_inlet=2.0, p1_outlet=-1.0),
            kappa_val=0.5)
        report = check_compatibility(wall, FLUID, pexp, terms)
        assert report.max_g_integral <= 1e-10


class TestConvergenceStudy:
    def test_nonuniform_second_order(self):
        study = run_convergence_study(
            lambda s: (1 + s) ** -0.25, None, 0.0, 1.0, (50, 100, 200, 400))
        orders = study.orders()
        assert orders and all(abs(o - 2.0) <= 0.2 for o in orders)

    def test_constant_coefficient_hits_round_off(self):
        study = run_convergence_study(
            lambda s: 1.0, None, 1.0, 0.0, (50, 100))
        assert all(r.at_round_off for r in study.rows)
        assert study.orders() == []

    def test_reference_against_independent_oracle(self):
        s = np.linspace(0.0, 1.0, 11)
        mine = quadrature_reference(
            lambda x: (1 + x) ** -0.25, lambda x: 16.0, 0.0, 1.0, s)
        other = quadrature_bvp(
            lambda x: (1 + x) ** -0.25, lambda x: 16.0, 0.0, 1.0, s)
        assert np.abs(mine - other).max() < 1e-9


class TestPressureResiduals:
    def test_solved_state_is_small(self):
        wall, pexp, stations, fields, terms = solved_case(
            n=65, radius=(1 + np.linspace(0, 1, 65)) ** -0.25, kappa_val=0.5)
        res = pressure_residuals(wall, FLUID, pexp, np.full(65, 0.5),
                                 BodyForce())
        assert max(res.values()) < 1e-12


class TestFigureShape:
    def test_curved_rigid_structure(self):
        wall, pexp, stations, fields, terms = solved_case(kappa_val=0.5)
        checks = figure_shape_checks(fields[32], stations[32],
                                     wall_rate_tol=1e-9)
        assert checks["u1_0_axisymmetric"]
        assert checks["u1_1_modes_cos01_only"]
        # kappa > 0 and dp0 < 0: group coefficient negative, N side faster
        assert checks["u1_1_skew_group"] < 0
        assert checks["u1_1_skew_sign_matches_kappa_dp0"]
        assert checks["u1_1_faster_on_normal_side"]
        assert checks["U1_purely_radial"]
        assert checks["U2_circulation_iff_kappa_tau"]
        assert checks["U2_circulation_content"] == 0.0

    def test_moving_wall_boundary_magnitude(self):
        wall, pexp, stations, fields, terms = solved_case(
            rate=1.0, bc=PressureBC(0.0, 0.0))
        checks = figure_shape_checks(fields[32], stations[32],
                                     wall_rate_tol=1e-9)
        assert checks["U1_boundary_magnitude"] == pytest.approx(1.0, abs=1e-9)
        assert checks["U1_boundary_matches_wall_rate"]

    def test_torsion_switches_circulation_on(self):
        curve = CenterCurve.helix(0.5, 0.25, 1.0)
        wall, pexp, stations, fields, terms = solved_case(curve=curve)
        checks = figure_shape_checks(fields[32], stations[32],
                                     wall_rate_tol=1e-9)
        assert stations[32].tau != 0.0
        assert checks["U2_circulation_content"] > 0.0
        assert checks["U2_circulation_iff_kappa_tau"]

    def test_mode_helpers(self):
        p = DiscPoly({(1, 0): 2.0, (0, 1): 1.0})
        mags = fourier_mode_magnitudes(p)
        assert mags == {("cos", 1): 2.0, ("sin", 1): 1.0}
        assert cos_mode_content(p) == 2.0
        swirl = azimuthal_polynomial(DiscPoly.z2(), DiscPoly.z3())
        assert swirl.is_zero()
