"""Closed-form expansion terms against their defining grouped-order problems.

The exact (rational) residual checks here are the source of truth for the
whole disc layer: each closed form must satisfy its Poisson/Stokes problem
with identically zero polynomial residual and exact boundary traces.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubeflow.errors import ModelInconsistencyError, TubeflowError
from tubeflow.expansion import (
    BodyForce,
    FluidParams,
    NodeStations,
    StationData,
    WQ_TABLE,
    _F2_MONOMIALS,
    _F3_MONOMIALS,
    build_U2_rhs,
    check_U2_compatibility,
    derive_wq_table,
    eval_U1,
    eval_p2,
    eval_u1_0,
    eval_u1_1,
    eval_u1_2,
    evaluate_station,
    secondary_potential,
    stations_from_grids,
    stokes_disc_solve,
    stokes_residuals,
    stream_function,
    transversal_potential,
    truncated_solution,
    u1_1_problem_rhs,
    u1_2_problem_rhs,
    U1_divergence_data,
    verify_coefficient_tables,
    _gauss_solve_exact,
)
from tubeflow.polydisc import (
    DiscPoly,
    NodeArray,
    angular_derivative,
    diff_z2,
    diff_z3,
    disc_integral_over_pi,
    divergence,
    gradient,
    laplacian,
    restrict_to_boundary,
    scaled_radial_derivative,
)

from conftest import make_exact_station

ONE = DiscPoly.constant(1)
RHO2 = DiscPoly.radius_sq()


class TestAxialTerms:
    def test_poiseuille_values(self):
        fluid = FluidParams(1, 1)
        u = eval_u1_0(1, fluid, -1)
        assert u.evaluate(0, 0) == F(1, 4)
        assert restrict_to_boundary(u).is_zero()
        assert eval_u1_0(2, fluid, -1).evaluate(0, 0) == 1

    def test_u1_1_examples(self):
        fluid = FluidParams(1, 1)
        assert eval_u1_1(1, 0, fluid, -1, 0).is_zero()
        u = eval_u1_1(1, 1, fluid, -1, 0)
        # frozen hand evaluation at s3 = 1/2, s2 = 0
        assert u.evaluate(F(1, 2), 0) == F(4608, 65536) == 0.0703125
        # kappa rides the cos mode, p1 the mean
        u_mixed = eval_u1_1(1, 1, fluid, -1, F(1, 3))
        from tubeflow.polydisc import polar_fourier
        modes = polar_fourier(u_mixed)
        assert set(modes) == {("cos", 0), ("cos", 1)}

    def test_u1_2_trivial_zero(self):
        sd = StationData(rho0=1, nu=1, R=1, dp0=-1)
        assert eval_u1_2(sd).is_zero()

    def test_u1_2_no_slip_for_arbitrary_inputs(self, exact_station):
        assert restrict_to_boundary(eval_u1_2(exact_station)).is_zero()

    def test_u1_2_laplacian_oracle(self, exact_station):
        # authoritative check: the closed form against its own problem
        assert laplacian(eval_u1_2(exact_station)) \
            == u1_2_problem_rhs(exact_station)

    def test_u1_0_and_u1_1_problem_residuals(self, exact_station):
        sd = exact_station
        fluid = sd.fluid
        u10 = eval_u1_0(sd.R, fluid, sd.dp0)
        assert laplacian(u10) == DiscPoly.constant(
            sd.R**2 * sd.dp0 / (sd.rho0 * sd.nu))
        u11 = eval_u1_1(sd.R, sd.kappa, fluid, sd.dp0, sd.dp1)
        assert laplacian(u11) == u1_1_problem_rhs(sd.R, sd.kappa, fluid,
                                                  sd.dp0, sd.dp1)


class TestFirstTransversal:
    def test_zero_for_constant_flux(self):
        # R constant, p0 linear: both bracket terms vanish
        fluid = FluidParams(1, 1)
        u2, u3 = eval_U1(1, 0, fluid, -1, 0)
        assert u2.is_zero() and u3.is_zero()

    def test_parabola_hand_value(self):
        # R = 1, p0 = 8s^2 - 8s: U1 = (2 - rho^2)(z2, z3)
        fluid = FluidParams(1, 1)
        u2, u3 = eval_U1(1, 0, fluid, 0, 16)
        assert u2.evaluate(F(1, 2), 0) == F(7, 8)
        assert u3.evaluate(F(1, 2), 0) == 0
        assert u2 == (DiscPoly.constant(2) - RHO2) * DiscPoly.z2()

    def test_boundary_trace_is_wall_rate(self, exact_station):
        sd = exact_station
        u2, u3 = eval_U1(sd.R, sd.dR, sd.fluid, sd.dp0, sd.d2p0)
        assert restrict_to_boundary(u2).cos_coeff(1) == sd.Rdot
        assert restrict_to_boundary(u3).sin_coeff(1) == sd.Rdot

    def test_stokes_problem_residuals(self, exact_station):
        sd = exact_station
        fluid = sd.fluid
        U1 = eval_U1(sd.R, sd.dR, fluid, sd.dp0, sd.d2p0)
        p2 = eval_p2(sd.R, sd.d2p0, sd.p02)
        gp = gradient(p2)
        scale = sd.R / (sd.rho0 * sd.nu)
        assert laplacian(U1[0]) == gp[0] * scale
        assert laplacian(U1[1]) == gp[1] * scale
        assert divergence(*U1) == U1_divergence_data(sd.R, sd.dR, fluid,
                                                     sd.dp0, sd.d2p0)

    def test_gradient_of_potential_reproduces_U1(self, exact_station):
        sd = exact_station
        phi = transversal_potential(sd.R, sd.dR, sd.fluid, sd.dp0, sd.d2p0)
        U1 = eval_U1(sd.R, sd.dR, sd.fluid, sd.dp0, sd.d2p0)
        g = gradient(phi)
        assert g[0] == U1[0] and g[1] == U1[1]

    def test_p2_examples(self):
        assert eval_p2(1, 0, F(3, 7)) == DiscPoly.constant(F(3, 7))
        p2 = eval_p2(1, 16, 0)
        assert p2.evaluate(1, 0) == -4
        from tubeflow.polydisc import polar_fourier
        assert set(polar_fourier(p2)) == {("cos", 0)}


class TestSecondaryFlowData:
    def test_straight_rest_case_vanishes(self):
        sd = StationData(rho0=1, nu=1, R=1, dp0=-1)
        (f2, f3), g = build_U2_rhs(sd)
        assert f2.is_zero() and f3.is_zero() and g.is_zero()

    def test_pure_body_force(self):
        sd = StationData(rho0=1, nu=F(1, 2), R=F(3, 2), dp0=-1,
                         b2=F(2, 7), b3=F(1, 5))
        (f2, f3), g = build_U2_rhs(sd)
        assert f2 == DiscPoly.constant(-sd.R**2 * sd.b2 / sd.nu)
        assert f3 == DiscPoly.constant(-sd.R**2 * sd.b3 / sd.nu)
        assert g.is_zero()

    def test_compatibility_integral_exact(self, exact_station):
        _, g = build_U2_rhs(exact_station)
        assert disc_integral_over_pi(g) == 0

    def test_compatibility_domains(self):
        # exact integrals are checked exactly, the int 0 of a zero g too;
        # float and node-array integrals against the tolerance
        check_U2_compatibility(DiscPoly.zero())
        with pytest.raises(ModelInconsistencyError, match=r"= 1/4\*pi"):
            check_U2_compatibility(DiscPoly.monomial(2, 0, F(1)))
        check_U2_compatibility(DiscPoly.constant(1e-12))
        with pytest.raises(ModelInconsistencyError, match="tol 1e-10"):
            check_U2_compatibility(DiscPoly.constant(1e-9))
        with pytest.raises(ModelInconsistencyError, match="at 1 of 2 nodes"):
            check_U2_compatibility(
                DiscPoly.constant(NodeArray([1e-12, 1e-9])))

    def test_compatibility_violation_detected(self):
        # break the p1 relation: the g integral is nonzero and rejected
        sd = make_exact_station(d2p1=F(1, 3))
        _, g = build_U2_rhs(sd)
        assert disc_integral_over_pi(g) != 0
        with pytest.raises(ModelInconsistencyError):
            evaluate_station(sd)

    def test_float_compatibility_tolerance(self):
        sd = make_exact_station()
        sd_float = StationData(**{k: float(getattr(sd, k))
                                  for k in StationData.__dataclass_fields__})
        g = evaluate_station(sd_float).g  # ~1e-16 integral passes
        assert float(abs(disc_integral_over_pi(g))) < 1e-14


class TestSecondaryFlowSolution:
    def test_full_stokes_residual_exact(self, exact_station):
        sd = exact_station
        F_pair, g = build_U2_rhs(sd)
        f = evaluate_station(sd)
        U2, p3 = f.U2, f.p3
        gp3 = gradient(p3)
        scale = sd.R / (sd.rho0 * sd.nu)
        assert laplacian(U2[0]) - gp3[0] * scale - F_pair[0] == DiscPoly.zero()
        assert laplacian(U2[1]) - gp3[1] * scale - F_pair[1] == DiscPoly.zero()
        assert divergence(*U2) == g
        assert restrict_to_boundary(U2[0]).is_zero()
        assert restrict_to_boundary(U2[1]).is_zero()

    def test_secondary_potential_solves_neumann_problem(self, exact_station):
        sd = exact_station
        _, g = build_U2_rhs(sd)
        phi = secondary_potential(sd)
        assert laplacian(phi) == g
        assert restrict_to_boundary(scaled_radial_derivative(phi)).is_zero()

    def test_stream_function_boundary_conditions(self, exact_station):
        sd = exact_station
        psi = stream_function(sd)
        phi = secondary_potential(sd)
        assert restrict_to_boundary(angular_derivative(psi)).is_zero()
        assert restrict_to_boundary(
            scaled_radial_derivative(psi) - angular_derivative(phi)).is_zero()

    def test_zero_forcing_gives_zero_solution(self):
        sd = StationData(rho0=1, nu=1, R=1, dp0=-1)
        f = evaluate_station(sd)
        assert f.F[0].is_zero() and f.F[1].is_zero() and f.g.is_zero()
        assert f.U2[0].is_zero() and f.U2[1].is_zero() and f.p3.is_zero()

    def test_table_spot_values_single_forcing(self):
        # forcing with only f3^20 = 24
        f3 = DiscPoly.monomial(2, 0, F(24))
        w2, w3, q = stokes_disc_solve(DiscPoly.zero(), f3)
        wall = RHO2 - ONE
        assert w2 == DiscPoly.monomial(1, 1, F(-1)) * wall
        assert w3 == (DiscPoly.constant(F(-1, 4))
                      + DiscPoly.monomial(0, 2, F(1, 4))
                      + DiscPoly.monomial(2, 0, F(5, 4))) * wall
        assert q == DiscPoly({(2, 1): F(-6), (0, 3): F(2), (0, 1): F(-4)})

    def test_forcing_outside_family_rejected(self):
        with pytest.raises(ModelInconsistencyError):
            stokes_disc_solve(DiscPoly.monomial(1, 0, F(1)), DiscPoly.zero())

    @pytest.mark.parametrize("component, mono", [
        pytest.param(k, mn, id=f"f{k + 2}_{mn[0]}{mn[1]}")
        for k, monos in enumerate((_F2_MONOMIALS, _F3_MONOMIALS))
        for mn in monos])
    def test_tabulated_solve_satisfies_the_stokes_problem(self, component,
                                                          mono):
        # the runtime plans of WQ_TABLE against the PDE itself, one unit
        # forcing direction at a time
        forcing = [DiscPoly.zero(), DiscPoly.zero()]
        forcing[component] = DiscPoly.monomial(*mono, F(1))
        w2, w3, q = stokes_disc_solve(*forcing)
        assert all(r.is_zero() for r in stokes_residuals(w2, w3, q, *forcing))
        assert restrict_to_boundary(w2).is_zero()
        assert restrict_to_boundary(w3).is_zero()
        assert q.coeff(0, 0) == 0

    @pytest.mark.parametrize("rho0, nu, R, kappa, dp0", [
        (1, 1, 1, F(1, 2), -1),
        (F(3, 2), F(2, 7), F(5, 3), F(2, 5), F(-7, 3)),
    ])
    def test_dean_limit(self, rho0, nu, R, kappa, dp0):
        """Dean (1928), Phil. Mag. 5:673: on a torus station (constant
        kappa, no torsion, constant R, linear p0, no body force) the
        secondary flow is driven by (kappa R^2 / nu) (u1^0)^2 alone and
        U^2 = -(A/288) (dpsi/dz3, -dpsi/dz2) with
        psi = z3 (1 - rho^2)^2 (4 - rho^2)."""
        sd = StationData(rho0=F(rho0), nu=F(nu), R=F(R), kappa=F(kappa),
                         dp0=F(dp0))
        f = evaluate_station(sd)
        A = sd.kappa * sd.R**6 * sd.dp0**2 / (16 * sd.rho0**2 * sd.nu**3)
        wall = RHO2 - ONE
        assert f.F[0] == f.u1_0**2 * (sd.kappa * sd.R**2 / sd.nu)
        assert f.F == (wall**2 * A, DiscPoly.zero())
        assert f.g.is_zero()
        psi = DiscPoly.z3() * wall**2 * (4 - RHO2)
        assert f.U2 == (diff_z3(psi) * (-A / 288), diff_z2(psi) * (A / 288))


class TestCoefficientTables:
    def test_brute_force_matches_frozen_table(self):
        report = verify_coefficient_tables()
        assert report.all_match, [e.name for e in report.entries if not e.match]
        assert len(report.entries) == 50

    def test_named_spot_coefficients(self):
        derived = derive_wq_table()
        assert derived["w2_11"] == {"f3_20": F(-1, 24)}
        assert derived["w2_04"] == {"f2_04": F(7, 240), "f2_22": F(-7, 2880)}
        assert derived["q_50"] == {"f2_22": F(11, 480), "f2_04": F(-1, 80),
                                   "f2_40": F(-1, 5)}

    def test_structural_zeros(self):
        derived = derive_wq_table()
        for name in ("w2_01", "w2_03", "w2_10", "w2_12", "w2_13", "w2_21",
                     "w2_30", "w2_31", "w3_01", "w3_03", "w3_04", "w3_10",
                     "w3_12", "w3_21", "w3_22", "w3_30", "w3_40",
                     "q_02", "q_04", "q_05", "q_11", "q_13", "q_20", "q_22",
                     "q_23", "q_31", "q_40", "q_41"):
            assert derived[name] == {}, name
            assert name not in WQ_TABLE

    def test_report_lines(self):
        report = verify_coefficient_tables()
        lines = report.summary_lines()
        assert any("all match" in line for line in lines)

    def test_mismatch_is_reported(self, monkeypatch, capsys):
        from tubeflow.cli import main

        monkeypatch.setitem(WQ_TABLE, "w2_11", {"f3_20": F(1, 24)})
        report = verify_coefficient_tables()
        assert not report.all_match
        lines = report.summary_lines()
        assert [line for line in lines if "MISMATCH" in line] == [
            "w2_11: MISMATCH", "total 50 coefficients, MISMATCHES PRESENT"]
        i = lines.index("w2_11: MISMATCH")
        assert lines[i + 1:i + 3] == [
            "    derived:   {'f3_20': Fraction(-1, 24)}",
            "    tabulated: {'f3_20': Fraction(1, 24)}"]
        assert main(["tables"]) == 2
        assert "MISMATCHES PRESENT" in capsys.readouterr().out


class TestExactElimination:
    """The sparse Gauss-Jordan behind :func:`derive_wq_table`: a row
    {name: coeff} means sum coeff * name = 0, names outside the unknowns
    being right-hand-side symbols."""

    def test_free_unknowns_named_in_unknowns_order(self):
        rows = [{"b": 1, "c": 1}, {"b": 2, "c": 2, "d": 1, "f": 3}]
        with pytest.raises(ModelInconsistencyError,
                           match=r"underdetermined; free unknowns: "
                                 r"\['a', 'c'\]$"):
            _gauss_solve_exact(rows, ["a", "b", "c", "d"])
        with pytest.raises(ModelInconsistencyError,
                           match=r"free unknowns: \['b', 'a'\]$"):
            _gauss_solve_exact(rows, ["d", "c", "b", "a"])

    def test_inconsistent_system_rejected(self):
        rows = [{"x": 1, "f": 1}, {"x": 2, "f": 1}]
        with pytest.raises(ModelInconsistencyError,
                           match="^ansatz system is inconsistent$"):
            _gauss_solve_exact(rows, ["x"])

    def test_consistent_redundant_row_accepted(self):
        rows = [{"x": 1, "y": 1, "f": 1}, {"x": 1, "y": -1},
                {"x": 2, "f": 1}]
        assert _gauss_solve_exact(rows, ["x", "y"]) == {
            "x": {"f": F(-1, 2)}, "y": {"f": F(-1, 2)}}

    def test_zero_leading_entry_takes_a_later_pivot_row(self):
        rows = [{"x": 0, "y": 1, "f": -1, "g": 0}, {"x": 2, "y": 1}]
        out = _gauss_solve_exact(rows, ["x", "y"])
        assert list(out) == ["x", "y"]
        assert out == {"x": {"f": F(-1, 2)}, "y": {"f": F(1)}}



class TestStationAssembly:
    def test_evaluate_station_bundle(self, exact_station):
        f = evaluate_station(exact_station)
        assert not f.u1_0.is_zero()
        assert f.W[0] is not None and f.q2 is not None
        assert restrict_to_boundary(f.u1_1).is_zero()
        assert f.psi2 == -exact_station.kappa * exact_station.tau \
            * exact_station.R**4 * exact_station.dp0 \
            / (64 * exact_station.rho0 * exact_station.nu)

    def test_stations_from_grids(self):
        from tubeflow.coupling import WallState
        from tubeflow.geometry import CenterCurve
        from tubeflow.pressure import PressureBC, solve_pressures

        n = 16
        s = np.linspace(0.0, 1.0, n)
        wall = WallState.from_radius(s, 1.0)
        curve = CenterCurve.circular_arc(2.0, 1.0)
        fluid = FluidParams(1.0, 1.0)
        pexp = solve_pressures(wall, fluid, PressureBC(1.0, 0.0),
                               np.full(n, 0.5), BodyForce())
        stations = NodeStations(stations_from_grids(
            wall, pexp, curve.curvature(s), fluid, BodyForce()))
        assert len(stations) == n
        assert stations[7].kappa == 0.5
        assert stations[7].dp0 == pytest.approx(-1.0)


    def test_shared_constant_polynomials_survive_a_run(self, tmp_path):
        from tubeflow import cli, expansion

        def snapshot():
            return {name: [(k, type(c), c) for k, c in obj.coeffs.items()]
                    for name, obj in vars(expansion).items()
                    if isinstance(obj, DiscPoly)}

        before = snapshot()
        assert len(before) >= 10
        cfg = cli.RunConfig.from_mapping({
            "geometry.kind": "helix", "geometry.a": "1.6", "geometry.b": "0.8",
            "grid.n_s1": "33", "grid.n_disc": "8", "eps": "0.05",
            "output.fields": "all"})
        cli.export_bundle(cli.run_pipeline(cfg), tmp_path / "out")
        assert snapshot() == before
        assert expansion._WALL == RHO2 - ONE
        assert expansion._RHO6_M1 == RHO2**3 - ONE
        assert expansion._WALL_Z2SQ_M_Z3SQ == (RHO2 - ONE) * (
            DiscPoly.monomial(2, 0) - DiscPoly.monomial(0, 2))

    def test_float64_and_float_stations_give_identical_bits(self):
        # stations_from_grids hands Python floats to the closed forms; they
        # must compute exactly what numpy float64 scalars compute
        import dataclasses
        import random

        def bits(x):
            if isinstance(x, tuple):
                return tuple(bits(v) for v in x)
            if isinstance(x, DiscPoly):
                return tuple((k, float(c).hex()) for k, c in x.coeffs.items())
            return float(x).hex()

        rng = random.Random(8)
        for _ in range(20):
            v = {k: rng.uniform(lo, hi) for k, lo, hi in (
                ("rho0", 0.5, 2), ("nu", 0.25, 2), ("R", 0.5, 2),
                ("dR", -1, 1), ("d2R", -1, 1), ("Rdot", -1, 1),
                ("kappa", 0.1, 1), ("dkappa", -1, 1), ("tau", -1, 1),
                ("dp0", -2, -0.1), ("d2p0", -1, 1), ("d3p0", -1, 1),
                ("dt_dp0", -1, 1), ("dp1", -1, 1), ("p02", -1, 1),
                ("dp02", -1, 1), ("b1", -1, 1), ("b2", -1, 1),
                ("b3", -1, 1))}
            v["d2p1"] = -4 * v["dR"] * v["dp1"] / v["R"]
            plain = evaluate_station(StationData(**v))
            numpy = evaluate_station(
                StationData(**{k: np.float64(x) for k, x in v.items()}))
            for fld in dataclasses.fields(plain):
                assert bits(getattr(plain, fld.name)) \
                    == bits(getattr(numpy, fld.name)), fld.name


class TestPhysicalAssembly:
    MID = 8  # n = 17 is odd: node 8 sits exactly at s1 = 1/2

    def build(self):
        from tubeflow.coupling import WallState
        from tubeflow.geometry import CenterCurve
        from tubeflow.pressure import PressureBC, solve_pressures

        s = np.linspace(0.0, 1.0, 17)
        wall = WallState.from_radius(s, 1.0)
        curve = CenterCurve.straight(1.0)
        fluid = FluidParams(1.0, 1.0)
        pexp = solve_pressures(wall, fluid, PressureBC(1.0, 0.0),
                               np.zeros(s.size), BodyForce())
        stations = NodeStations(stations_from_grids(
            wall, pexp, curve.curvature(s), fluid, BodyForce()))
        return curve, pexp, evaluate_station(stations[self.MID])

    def solution(self, order, s2, s3):
        _, pexp, f = self.build()
        i = self.MID
        return truncated_solution(f, pexp.p0[i], pexp.p1[i], 0.1, order,
                                  s3 * np.cos(s2), s3 * np.sin(s2))

    def test_leading_order_is_poiseuille(self):
        u, _ = self.solution(0, 0.0, 0.0)
        assert u[0] == pytest.approx(0.25, abs=1e-10)
        assert u[1] == u[2] == 0.0

    def test_straight_rigid_orders_agree(self):
        # corrections vanish for the straight rigid steady pipe
        u0, _ = self.solution(0, 0.3, 0.5)
        u2, _ = self.solution(2, 0.3, 0.5)
        assert np.allclose(u0, u2, atol=1e-12)

    def test_world_frame_is_isometric(self):
        curve = self.build()[0]
        uf, _ = self.solution(2, 0.7, 0.6)
        uw = np.array(uf) @ curve.frame(0.5)
        assert np.linalg.norm(uf) == pytest.approx(np.linalg.norm(uw))

    def test_pressure_truncation(self):
        _, p = self.solution(2, 0.0, 0.0)
        assert p == pytest.approx(0.5 / 0.1**2, rel=1e-10)
        with pytest.raises(TubeflowError):
            self.solution(3, 0.0, 0.0)


def test_fluid_params_validated():
    with pytest.raises(ValueError):
        FluidParams(0.0, 1.0)
    with pytest.raises(ValueError):
        FluidParams(1.0, -2.0)


_small_fraction = st.fractions(min_value=F(-4), max_value=F(4),
                               max_denominator=6)
_positive_fraction = st.fractions(min_value=F(1, 4), max_value=F(3),
                                  max_denominator=6)


@settings(max_examples=20, deadline=None)
@given(R=_positive_fraction, dR=_small_fraction, d2R=_small_fraction,
       kappa=_small_fraction.map(abs), dkappa=_small_fraction,
       tau=_small_fraction, dp0=_small_fraction, d2p0=_small_fraction,
       d3p0=_small_fraction, dt_dp0=_small_fraction, dp1=_small_fraction,
       dp02=_small_fraction, b1=_small_fraction, b2=_small_fraction,
       b3=_small_fraction, rho0=_positive_fraction, nu=_positive_fraction)
def test_residual_oracles_hold_for_random_rational_stations(**kw):
    """Every grouped-order residual vanishes for arbitrary exact inputs.

    The only constraints a station must satisfy are the first-correction
    pressure relation (fixing d2p1) and the leading compatibility identity
    (fixing the wall rate); everything else is free.
    """
    sd = make_exact_station(p02=F(1, 3), **kw)
    scale = sd.R / (sd.rho0 * sd.nu)

    u12 = eval_u1_2(sd)
    assert laplacian(u12) == u1_2_problem_rhs(sd)
    assert restrict_to_boundary(u12).is_zero()

    U1 = eval_U1(sd.R, sd.dR, sd.fluid, sd.dp0, sd.d2p0)
    assert divergence(*U1) == U1_divergence_data(sd.R, sd.dR, sd.fluid,
                                                 sd.dp0, sd.d2p0)
    assert restrict_to_boundary(U1[0]).cos_coeff(1) == sd.Rdot

    F_pair, g = build_U2_rhs(sd)
    assert disc_integral_over_pi(g) == 0
    f = evaluate_station(sd)
    U2, p3 = f.U2, f.p3
    gp3 = gradient(p3)
    assert laplacian(U2[0]) - gp3[0] * scale - F_pair[0] == DiscPoly.zero()
    assert laplacian(U2[1]) - gp3[1] * scale - F_pair[1] == DiscPoly.zero()
    assert divergence(*U2) == g
    assert restrict_to_boundary(U2[0]).is_zero()
    assert restrict_to_boundary(U2[1]).is_zero()


_entry = st.one_of(st.just(F(0)), _small_fraction)


@st.composite
def _nonsingular_systems(draw):
    """Rows of a strictly diagonally dominant (so nonsingular) system in
    unknowns u0.. and z, in shuffled order.  z's own row holds z alone, so
    z = 0 whatever the right sides, though z appears in the other rows."""
    n = draw(st.integers(1, 4))
    n_rhs = draw(st.integers(1, 3))
    names = [f"u{i}" for i in range(n)] + ["z"]
    rows = []
    for name in names:
        off = {other: draw(_entry) for other in names
               if other != name and name != "z"}
        diag = sum(abs(v) for v in off.values()) + draw(_positive_fraction)
        row = {**off, name: diag * draw(st.sampled_from([1, -1]))}
        if name != "z":
            row.update({f"f{k}": draw(_entry) for k in range(n_rhs)})
        rows.append(row)
    return (draw(st.permutations(rows)), draw(st.permutations(names)))


@settings(max_examples=60, deadline=None)
@given(system=_nonsingular_systems(), order=st.randoms(use_true_random=False))
def test_exact_elimination_solves_every_row(system, order):
    rows, unknowns = system
    out = _gauss_solve_exact(rows, unknowns)
    assert list(out) == unknowns
    assert all(v != 0 for sol in out.values() for v in sol.values())
    for row in rows:
        residual = {}  # right-side symbols stand for themselves
        for name, coeff in row.items():
            for sym, v in out.get(name, {name: F(1)}).items():
                residual[sym] = residual.get(sym, 0) + coeff * v
        assert not any(residual.values()), row
    # the solution is unique: z is a structural zero, row order is immaterial
    assert out["z"] == {}
    shuffled = list(rows)
    order.shuffle(shuffled)
    assert _gauss_solve_exact(shuffled, unknowns) == out
