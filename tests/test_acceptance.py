"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the status lines.
Every tolerance here is part of the contract; none is tuned to the
implementation.
"""

from fractions import Fraction as F

import numpy as np

from tubeflow.coupling import (
    ElasticWall,
    RigidWall,
    WallState,
    advance_time_step,
    wall_law_residual,
)
from tubeflow.expansion import (
    BodyForce,
    FluidParams,
    NodeStations,
    build_U2_rhs,
    derive_wq_table,
    eval_U1,
    eval_p2,
    eval_u1_0,
    eval_u1_1,
    eval_u1_2,
    evaluate_station,
    stations_from_grids,
    u1_1_problem_rhs,
    u1_2_problem_rhs,
    U1_divergence_data,
    verification_terms,
    WQ_TABLE,
)
from tubeflow.geometry import CenterCurve
from tubeflow.polydisc import (
    DiscPoly,
    disc_integral_over_pi,
    divergence,
    gradient,
    laplacian,
    polar_fourier,
    restrict_to_boundary,
)
from tubeflow.pressure import PressureBC, flux_residual, solve_p0, solve_pressures
from tubeflow.verify import (
    azimuthal_polynomial,
    check_compatibility,
    check_mass_conservation,
    cos_mode_content,
    flow_rates,
    run_convergence_study,
)

from conftest import make_exact_station

FLUID = FluidParams(1.0, 1.0)


def report(num, label, ok):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num}: {label}"


def straight_rigid_case(n=101):
    s = np.linspace(0.0, 1.0, n)
    wall = WallState.from_radius(s, 1.0)
    pexp = solve_pressures(wall, FLUID, PressureBC(1.0, 0.0), np.zeros(n),
                           BodyForce())
    curve = CenterCurve.straight(1.0)
    data = stations_from_grids(wall, pexp, curve.curvature(s), FLUID,
                               BodyForce())
    stations = NodeStations(data)
    fields = [evaluate_station(sd) for sd in stations]
    return wall, pexp, stations, fields, verification_terms(data)


def test_criterion_1_poiseuille_recovery():
    wall, pexp, stations, fields, terms = straight_rigid_case()
    mid = 50
    center = float(fields[mid].u1_0.to_float().evaluate(0.0, 0.0))
    flow = flow_rates(terms, wall.R)
    s = wall.s1
    p_exact = 1.0 - s
    ok = (
        abs(center - 0.25) <= 1e-10
        and abs(flow.q0[mid] - np.pi / 8) <= 1e-10
        and np.abs(pexp.p0 - p_exact).max() <= 1e-12
    )
    report(1, "Poiseuille recovery (u1_0 = 1/4, Q0 = pi/8, p0 exact)", ok)


def test_criterion_2_pressure_convergence():
    study = run_convergence_study(lambda s: (1.0 + s) ** -0.25, None,
                                  0.0, 1.0, (50, 100, 200, 400))
    orders = study.orders()
    ok = len(orders) == 3 and all(abs(o - 2.0) <= 0.2 for o in orders)
    report(2, f"pressure BVP observed orders {[f'{o:.2f}' for o in orders]}",
           ok)


def test_criterion_3_mass_conservation():
    n = 101
    s = np.linspace(0.0, 1.0, n)
    wall = WallState.from_radius(s, 1.0, dR_dt=np.ones(n))
    pexp = solve_pressures(wall, FLUID, PressureBC(0.0, 0.0), np.zeros(n),
                           BodyForce())
    curve = CenterCurve.straight(1.0)
    data = stations_from_grids(wall, pexp, curve.curvature(s), FLUID,
                               BodyForce())
    flow = flow_rates(verification_terms(data), wall.R)
    rep = check_mass_conservation(flow, wall, pexp, FLUID)
    ok = (np.abs(rep.residual_q0).max() <= 1e-8
          and np.abs(rep.residual_q1).max() <= 1e-10)
    report(3, "mass conservation (dQ0/ds1 + dA0/dt, dQ1/ds1)", ok)


def test_criterion_4_compatibility_identities():
    # (a) solved p0 grids satisfy the compatibility identity
    checks = []
    for rate, bc in ((None, PressureBC(1.0, 0.0)),
                     (1.0, PressureBC(0.0, 0.0))):
        n = 101
        s = np.linspace(0.0, 1.0, n)
        wall = WallState.from_radius(
            s, 1.0, dR_dt=None if rate is None else np.full(n, rate))
        pexp = solve_pressures(wall, FLUID, bc, np.zeros(n), BodyForce())
        curve = CenterCurve.straight(1.0)
        data = stations_from_grids(wall, pexp, curve.curvature(s), FLUID,
                                   BodyForce())
        rep = check_compatibility(wall, FLUID, pexp, verification_terms(data))
        checks.append(rep.max_u1_residual <= 1e-9)       # exact cases
        checks.append(rep.max_g_integral <= 1e-10)
    # nonuniform radius: discretization tolerance, second-order decay
    resids = []
    for n in (101, 201):
        s = np.linspace(0.0, 1.0, n)
        wall = WallState.from_radius(s, (1.0 + s) ** -0.25)
        pexp = solve_pressures(wall, FLUID, PressureBC(1.0, 0.0),
                               np.zeros(n), BodyForce())
        curve = CenterCurve.straight(1.0)
        data = stations_from_grids(wall, pexp, curve.curvature(s), FLUID,
                                   BodyForce())
        rep = check_compatibility(wall, FLUID, pexp, verification_terms(data))
        resids.append(rep.max_u1_residual)
        checks.append(rep.max_u1_residual <= 100.0 * wall.h**2)
    checks.append(resids[0] / resids[1] > 2.5)           # ~4x per halving

    # (b) exact rational domain: int g = 0 whenever p1 solves its equation
    sd = make_exact_station()
    _, g = build_U2_rhs(sd)
    checks.append(disc_integral_over_pi(g) == 0)
    ok = all(checks)
    report(4, "compatibility identities (p0 identity, disc integral of g)", ok)


def test_criterion_5_grouped_order_residuals_exact():
    sd = make_exact_station()
    fluid = sd.fluid
    scale = sd.R / (sd.rho0 * sd.nu)
    failures = []

    u10 = eval_u1_0(sd.R, fluid, sd.dp0)
    if laplacian(u10) != DiscPoly.constant(sd.R**2 * sd.dp0 / (sd.rho0 * sd.nu)):
        failures.append("u1_0 interior")
    if not restrict_to_boundary(u10).is_zero():
        failures.append("u1_0 trace")

    u11 = eval_u1_1(sd.R, sd.kappa, fluid, sd.dp0, sd.dp1)
    if laplacian(u11) != u1_1_problem_rhs(sd.R, sd.kappa, fluid, sd.dp0,
                                          sd.dp1):
        failures.append("u1_1 interior")
    if not restrict_to_boundary(u11).is_zero():
        failures.append("u1_1 trace")

    U1 = eval_U1(sd.R, sd.dR, fluid, sd.dp0, sd.d2p0)
    p2 = eval_p2(sd.R, sd.d2p0, sd.p02)
    gp2 = gradient(p2)
    if laplacian(U1[0]) != gp2[0] * scale or laplacian(U1[1]) != gp2[1] * scale:
        failures.append("U1 momentum")
    if divergence(*U1) != U1_divergence_data(sd.R, sd.dR, fluid, sd.dp0,
                                             sd.d2p0):
        failures.append("U1 divergence")
    tr2, tr3 = restrict_to_boundary(U1[0]), restrict_to_boundary(U1[1])
    if tr2.cos_coeff(1) != sd.Rdot or tr3.sin_coeff(1) != sd.Rdot \
            or len(tr2.modes) != 1 or len(tr3.modes) != 1:
        failures.append("U1 trace")

    u12 = eval_u1_2(sd)
    if laplacian(u12) != u1_2_problem_rhs(sd):
        failures.append("u1_2 interior")
    if not restrict_to_boundary(u12).is_zero():
        failures.append("u1_2 trace")

    F_pair, g = build_U2_rhs(sd)
    station = evaluate_station(sd)
    U2, p3 = station.U2, station.p3
    gp3 = gradient(p3)
    if (laplacian(U2[0]) - gp3[0] * scale - F_pair[0] != DiscPoly.zero()
            or laplacian(U2[1]) - gp3[1] * scale - F_pair[1] != DiscPoly.zero()):
        failures.append("U2 momentum")
    if divergence(*U2) != g:
        failures.append("U2 divergence")
    if not (restrict_to_boundary(U2[0]).is_zero()
            and restrict_to_boundary(U2[1]).is_zero()):
        failures.append("U2 trace")

    report(5, f"grouped-order residuals identically zero {failures or ''}",
           not failures)


def test_criterion_6_secondary_flow_tables():
    derived = derive_wq_table()
    mismatches = [name for name in derived
                  if derived[name] != WQ_TABLE.get(name, {})]
    spot = (
        derived["w2_11"] == {"f3_20": F(-1, 24)}
        and derived["q_50"] == {"f2_22": F(11, 480), "f2_04": F(-1, 80),
                                "f2_40": F(-1, 5)}
    )
    ok = not mismatches and spot and len(derived) == 50
    report(6, f"secondary-flow coefficient tables (mismatches: {mismatches})",
           ok)


def test_criterion_7_elastic_coupling():
    n = 65
    s = np.linspace(0.0, 1.0, n)
    checks = []

    # equilibrium: p_in = p_out = p_e keeps R = R0
    law = ElasticWall(E=100.0, h0=0.1, R0=1.0, p_e=2.0)
    state = advance_time_step(WallState.from_radius(s, 1.0), law,
                              FLUID, PressureBC(2.0, 2.0), dt=0.1)
    checks.append(np.abs(state.R - 1.0).max() <= 1e-12)

    def p0_on(wall, bc):  # leading-order pressure on a stepped wall
        return solve_p0(wall.R, wall.dR_dt, wall.h, FLUID,
                        *bc.p0_at(wall.t))[0]

    # stiff limit vs rigid
    bc = PressureBC(5.0, 0.0)
    rigid_state = advance_time_step(
        WallState.from_radius(s, 1.0), RigidWall(), FLUID, bc, dt=0.05)
    stiff = ElasticWall(E=1e12, h0=0.1, R0=1.0)
    stiff_state = advance_time_step(
        WallState.from_radius(s, 1.0), stiff, FLUID, bc, dt=0.05)
    rigid_p0, stiff_p0 = p0_on(rigid_state, bc), p0_on(stiff_state, bc)
    checks.append(np.abs(stiff_state.R - rigid_state.R).max() <= 1e-9)
    checks.append(np.abs(stiff_p0 - rigid_p0).max()
                  <= 1e-9 * np.abs(rigid_p0).max())

    # every converged step satisfies the law and the BVP simultaneously
    law = ElasticWall(E=1e3, h0=0.1, R0=1.0)
    state = WallState.from_radius(s, 1.0)
    ramp = PressureBC(lambda t: min(10.0 * t, 5.0), 0.0)
    for _ in range(4):
        state = advance_time_step(state, law, FLUID, ramp, dt=0.05)
        p0 = p0_on(state, ramp)
        checks.append(wall_law_residual(law, p0, state.R).max() <= 1e-9)
        rhs = 16.0 * state.R * state.dR_dt
        checks.append(flux_residual(state.R**4, state.h, p0, rhs) <= 1e-8)
    report(7, "elastic coupling (equilibrium, stiff limit, step residuals)",
           all(checks))


def test_criterion_8_figure_shape_properties():
    checks = []

    # u1_0 axisymmetric: every non-constant s2 mode exactly absent
    u10 = eval_u1_0(F(1), FluidParams(F(1), F(1)), F(-1))
    checks.append(set(polar_fourier(u10)) == {("cos", 0)})

    # u1_1 skew: single cos mode, group sign = sign(kappa dp0)
    for kappa, dp0 in ((F(1, 2), F(-1)), (F(1, 3), F(2))):
        u11 = eval_u1_1(F(1), kappa, FluidParams(F(1), F(1)), dp0, F(1, 7))
        modes = set(polar_fourier(u11))
        checks.append(modes <= {("cos", 0), ("cos", 1)})
        group = u11.coeff(3, 0)
        checks.append((group > 0) == (kappa * dp0 > 0))

    # U1 purely radial with boundary magnitude dR/dt
    sd = make_exact_station()
    U1 = eval_U1(sd.R, sd.dR, sd.fluid, sd.dp0, sd.d2p0)
    checks.append(azimuthal_polynomial(*U1).is_zero())
    checks.append(restrict_to_boundary(U1[0]).cos_coeff(1) == sd.Rdot)

    # U2 circulation: cos-Fourier content of the azimuthal part appears
    # exactly when kappa * tau != 0
    sd_tau = make_exact_station()
    U2_tau = evaluate_station(sd_tau).U2
    checks.append(cos_mode_content(azimuthal_polynomial(*U2_tau)) > 0)
    sd_plane = make_exact_station(tau=F(0), b3=F(0))
    U2_plane = evaluate_station(sd_plane).U2
    checks.append(cos_mode_content(azimuthal_polynomial(*U2_plane)) == 0)

    report(8, "figure-shape Fourier structure (u1_0, u1_1, U1, U2)",
           all(checks))


def test_criterion_9_rigid_steady_reduction():
    n = 65
    s = np.linspace(0.0, 1.0, n)
    radius = 1.0 + 0.2 * np.sin(np.pi * s)
    curve = CenterCurve.circular_arc(2.0, 1.0)
    kappa = np.full(n, 0.5)
    bc = PressureBC(1.0, 0.0)
    # steady mode
    wall_s = WallState.from_radius(s, radius)
    pexp_s = solve_pressures(wall_s, FLUID, bc, kappa, BodyForce())
    stations_s = NodeStations(stations_from_grids(
        wall_s, pexp_s, curve.curvature(s), FLUID, BodyForce()))
    fields_s = [evaluate_station(sd) for sd in stations_s]

    # rigid unsteady stepping reproduces it exactly
    wall_1 = advance_time_step(WallState.from_radius(s, radius),
                               RigidWall(), FLUID, bc, dt=0.1)
    wall_u = advance_time_step(wall_1, RigidWall(), FLUID, bc, dt=0.1)
    pexp_u = solve_pressures(wall_u, FLUID, bc, kappa, BodyForce(),
                             prev=wall_1, dt=0.1)

    checks = [
        np.array_equal(pexp_s.p0, pexp_u.p0),
        np.array_equal(pexp_s.p02, pexp_u.p02),
        np.all(pexp_u.dt_dp0 == 0.0),
        np.all(wall_u.dR_dt == 0.0),
    ]
    # every dR/dt- and d/dt-dependent term is exactly zero
    for sd in stations_s:
        checks.append(sd.Rdot == 0.0 and sd.dt_dp0 == 0.0
                      and sd.dt_R2dp0 == 0.0)
    # orders 0-1 equal the steady rigid formulas evaluated independently
    mid = 32
    sd = stations_s[mid]
    u10_direct = eval_u1_0(sd.R, FLUID, sd.dp0)
    u11_direct = eval_u1_1(sd.R, sd.kappa, FLUID, sd.dp0, sd.dp1)
    U1_direct = eval_U1(sd.R, sd.dR, FLUID, sd.dp0, sd.d2p0)
    checks.append(fields_s[mid].u1_0 == u10_direct)
    checks.append(fields_s[mid].u1_1 == u11_direct)
    checks.append(fields_s[mid].U1[0] == U1_direct[0])
    # with dR/dt = 0 the U1 boundary trace vanishes at solver accuracy
    trace = restrict_to_boundary(fields_s[mid].U1[0])
    checks.append(abs(float(trace.cos_coeff(1))) <= 1e-6)

    report(9, "rigid-steady reduction (time terms exactly zero)", all(checks))
