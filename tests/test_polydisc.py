"""Exact polynomial calculus on the unit disc."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubeflow.polydisc import (
    DiscPoly,
    TrigSeries,
    angular_derivative,
    diff_z2,
    diff_z3,
    disc_integral,
    disc_integral_over_pi,
    disc_moment_over_pi,
    laplacian,
    polar_fourier,
    restrict_to_boundary,
    scaled_radial_derivative,
)

from oracles import polar_quadrature_integral, trig_series_samples

Z2 = DiscPoly.z2()
Z3 = DiscPoly.z3()
RHO2 = DiscPoly.radius_sq()


def rational_polys(max_terms=6, max_deg=4):
    coeff = st.fractions(
        min_value=F(-9), max_value=F(9), max_denominator=8
    ).filter(lambda f: f != 0)
    mono = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    return st.dictionaries(mono, coeff, max_size=max_terms).map(DiscPoly)


class TestRingLaws:
    @settings(max_examples=60)
    @given(rational_polys(), rational_polys(), rational_polys())
    def test_mul_associative_and_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60)
    @given(rational_polys(), rational_polys())
    def test_add_commutes_sub_inverts(self, a, b):
        assert a + b == b + a
        assert (a + b) - b == a

    def test_canonical_form_drops_zeros(self):
        p = DiscPoly({(1, 0): F(1)}) - DiscPoly({(1, 0): F(1)})
        assert p.is_zero() and p.coeffs == {}
        assert DiscPoly({(2, 1): 0}).is_zero()

    @pytest.mark.parametrize("num", [F, lambda n, d=1: n / d],
                             ids=["Fraction", "float"])
    def test_ring_results_stay_canonical(self, num):
        # no zero, and no -0.0 (which equals 0), is ever stored
        a = DiscPoly({(1, 0): num(1, 2), (0, 2): num(-3), (2, 2): num(5)})
        b = DiscPoly({(1, 0): num(1, 2), (2, 0): num(7), (2, 2): num(-5)})
        z = num(0)
        results = {
            "add": a + b, "radd": z + a + z, "sub": a - b, "rsub": z - a,
            "neg": -a, "neg zero": -DiscPoly.zero(),
            "cancel": a - a, "cancel sum": a + (-a),
            "mul": (Z2 + Z3) * (Z2 - Z3) * num(3),  # z2 z3 cancels
            "mul zero poly": a * DiscPoly.zero(),
            "scalar zero": a * z, "rscalar zero": z * a,
            "negative zero": a * -z, "rnegative zero": -z * a,
            "negative zero sum": DiscPoly.constant(-z) + DiscPoly.constant(z),
            "d/dz2": diff_z2(a), "d/dz3": diff_z3(a),
            "d/dz2 none": diff_z2(DiscPoly({(0, 3): num(2)})),
            "constant": DiscPoly.constant(-z),
            "float copy": (a - a).to_float(),
        }
        for name, r in results.items():
            assert all(c != 0 for c in r.coeffs.values()), (name, r.coeffs)
            assert all(type(m) is int and type(n) is int and m >= 0 and n >= 0
                       for m, n in r.coeffs), (name, r.coeffs)
        assert results["sub"].coeffs == {(0, 2): num(-3), (2, 2): num(10),
                                         (2, 0): num(-7)}
        assert results["mul"] == DiscPoly({(2, 0): num(3), (0, 2): num(-3)})
        assert results["rsub"] == results["neg"]
        for name in ("cancel", "cancel sum", "mul zero poly",
                     "scalar zero", "rscalar zero", "negative zero",
                     "rnegative zero", "negative zero sum", "d/dz2 none", "constant",
                     "float copy", "neg zero"):
            assert results[name].coeffs == {}, name

    @settings(max_examples=60)
    @given(rational_polys(), rational_polys())
    def test_float_ring_results_stay_canonical(self, a, b):
        fa, fb = a.to_float(), b.to_float()
        for r in (fa + fb, fa - fb, fa - fa, fa * fb, fa * 0.0, -0.0 * fa,
                  -fa, fa * (fb - fb), diff_z2(fa), diff_z3(fb)):
            assert all(c != 0 for c in r.coeffs.values()), r.coeffs

    def test_power(self):
        assert RHO2**2 == RHO2 * RHO2
        assert RHO2**0 == DiscPoly.constant(1)
        with pytest.raises(ValueError):
            RHO2 ** (-1)

    def test_power_makes_no_spare_products(self, monkeypatch):
        # no product with the constant 1, no square past the last bit
        calls = []
        mul = DiscPoly.__mul__

        def counted(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(DiscPoly, "__mul__", counted)
        for n, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3),
                            (7, 4), (8, 3)):
            calls.clear()
            RHO2**n
            assert len(calls) == products, n

    @pytest.mark.parametrize("num", [F, float], ids=["Fraction", "float"])
    def test_power_values_unchanged(self, num):
        def square_and_multiply(p, n):   # the earlier loop, from constant 1
            out, base = DiscPoly.constant(1), p
            while n:
                if n & 1:
                    out = out * base
                base = base * base
                n >>= 1
            return out

        p = DiscPoly({(0, 0): F(1, 3), (1, 0): F(-2, 7), (0, 2): F(5, 11),
                      (1, 1): F(1, 9), (3, 0): F(-4, 13)})
        if num is float:
            p = p.to_float()
        for n in range(9):
            got, want = p**n, square_and_multiply(p, n)
            assert [(k, repr(c)) for k, c in got.coeffs.items()] \
                == [(k, repr(c)) for k, c in want.coeffs.items()], n
            assert all(type(c) is num for c in got.coeffs.values()) or n == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            DiscPoly({(-1, 0): 1})


class TestDifferentiation:
    def test_examples(self):
        assert diff_z2(Z2**2 * Z3) == 2 * Z2 * Z3
        assert diff_z3(DiscPoly.constant(7)).is_zero()
        assert laplacian(RHO2**2) == 16 * RHO2

    @settings(max_examples=40)
    @given(rational_polys(), rational_polys())
    def test_product_rule(self, a, b):
        lhs = diff_z2(a * b)
        rhs = diff_z2(a) * b + a * diff_z2(b)
        assert lhs == rhs


class TestDiscIntegral:
    def test_area(self):
        assert disc_integral_over_pi(DiscPoly.constant(1)) == 1
        assert disc_integral(DiscPoly.constant(1.0)) == pytest.approx(math.pi)

    def test_even_moments_frozen(self):
        # frozen against the polar quadrature oracle
        assert disc_integral_over_pi(Z2**2) == F(1, 4)
        assert disc_integral_over_pi(Z2**2 * Z3**2) == F(1, 24)
        assert disc_integral_over_pi(Z2**4) == F(1, 8)

    def test_odd_moments_vanish(self):
        assert disc_moment_over_pi(1, 0) == 0
        assert disc_moment_over_pi(2, 3) == 0

    @pytest.mark.parametrize("poly", [
        Z2**2, Z2**2 * Z3**2, Z2**4, RHO2**3 - 2 * Z2 * Z3,
        (RHO2 - DiscPoly.constant(1)) * Z2**2,
    ])
    def test_against_quadrature_oracle(self, poly):
        assert disc_integral(poly) == pytest.approx(
            polar_quadrature_integral(poly), abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(rational_polys(max_terms=4, max_deg=3))
    def test_gauss_theorem(self, p):
        # int_disc lap p == boundary integral of the radial derivative
        lhs = disc_integral_over_pi(laplacian(p))
        boundary = restrict_to_boundary(scaled_radial_derivative(p))
        assert lhs == 2 * boundary.cos_coeff(0)


class TestBoundaryRestriction:
    def test_wall_factor_annihilates(self):
        q = 3 * Z2 * Z3**2 - 2 * RHO2 + DiscPoly.constant(F(1, 3))
        assert restrict_to_boundary((RHO2 - DiscPoly.constant(1)) * q).is_zero()

    def test_examples(self):
        t = restrict_to_boundary(Z2)
        assert t.cos_coeff(1) == 1 and len(t.modes) == 1
        t = restrict_to_boundary(Z2**2)
        assert t.cos_coeff(0) == F(1, 2)
        assert t.cos_coeff(2) == F(1, 2)

    def test_against_pointwise_evaluation(self):
        import numpy as np

        p = (Z2**3 * Z3 - 2 * Z3**2 + RHO2 * Z2).to_float()
        series = restrict_to_boundary(p)
        thetas = np.linspace(0.0, 2 * np.pi, 17)
        direct = [p.evaluate(np.cos(t), np.sin(t)) for t in thetas]
        assert trig_series_samples(series, thetas) == pytest.approx(direct)

    def test_trig_series_equality(self):
        a = TrigSeries({0: [F(1), 0], 2: [F(1, 2), F(-1, 3)]})
        # an exact series equals the float series it rounds to
        assert a == TrigSeries({0: [1.0, 0.0], 2: [0.5, float(F(-1, 3))]})
        assert a != TrigSeries({0: [F(1), 0], 2: [F(1, 2), F(1, 3)]})
        assert a != TrigSeries({2: [F(1, 2), F(-1, 3)]})
        # zero modes are dropped; b_0 is unused
        assert a == TrigSeries({0: [F(1), F(7)], 2: [F(1, 2), F(-1, 3)],
                                5: [0, 0.0]})
        assert TrigSeries({3: [0, 0]}) == TrigSeries() and TrigSeries().is_zero()
        assert not a.is_zero()


class TestPolarConversions:
    @settings(max_examples=40)
    @given(rational_polys(), st.floats(0.0, 1.0),
           st.floats(0.0, 2.0 * math.pi))
    def test_modes_sum_to_the_polynomial(self, p, s3, s2):
        # sum_k A_k(s3) cos(k s2) + B_k(s3) sin(k s2) at a sampled point
        trig = {"cos": math.cos, "sin": math.sin}
        total = sum(
            float(c) * s3**j * trig[kind](k * s2)
            for (kind, k), radial in polar_fourier(p).items()
            for j, c in radial.items())
        direct = p.to_float().evaluate(s3 * math.cos(s2), s3 * math.sin(s2))
        assert total == pytest.approx(float(direct), abs=1e-9)

    def test_radial_form_modes(self):
        # a(s3^2) * s3 cos s2 style expression: (2 - rho^2) z2
        p = (DiscPoly.constant(F(2)) - RHO2) * Z2
        modes = polar_fourier(p)
        assert set(modes) == {("cos", 1)}
        assert modes[("cos", 1)] == {1: F(2), 3: F(-1)}

    def test_angular_derivative_matches_fourier(self):
        # d/ds2 of s3^2 cos(2 s2) is -2 s3^2 sin(2 s2)
        p = Z2**2 - Z3**2
        modes = polar_fourier(angular_derivative(p))
        assert modes == {("sin", 2): {2: -2}}


def test_repr_is_readable():
    p = DiscPoly({(0, 0): F(1, 2), (2, 1): -3})
    text = repr(p)
    assert "z2^2" in text and "z3" in text and "1/2" in text
    assert repr(DiscPoly.zero()) == "0"
