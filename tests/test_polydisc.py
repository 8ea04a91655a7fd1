"""Exact polynomial calculus on the unit disc."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubeflow.nodes import NodeArray
from tubeflow.polydisc import (
    DiscPoly,
    TrigSeries,
    _trig_expand,
    _trig_tables,
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

    # int() truncated each of these (2.5 -> 2, overwriting the z2^2 term),
    # and ** 2.0 raised a bare TypeError; mode -1 was kept as its own key,
    # so the series 2 cos s2 read cos_coeff(1) == 1
    @pytest.mark.parametrize("build,match", [
        (lambda: DiscPoly({(2.5, 0): 1, (2, 0): 3}), r"monomial \(2.5,0\)"),
        (lambda: DiscPoly.monomial(1.9, 0, 5), r"monomial \(1.9,0\)"),
        (lambda: TrigSeries({1.5: [1, 0], 1: [2, 0]}), "mode 1.5"),
        (lambda: DiscPoly.z2() ** 2.0, "power 2.0"),
        (lambda: TrigSeries({-1: [1, 0], 1: [1, 0]}), "negative mode -1"),
    ], ids=["monomial", "monomial()", "mode", "power", "negative mode"])
    def test_non_integral_exponent_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_integer_like_exponents_accepted(self):
        two = np.int64(2)
        p = DiscPoly.monomial(two, 0)
        assert p == Z2**2 == Z2**two
        assert [type(e) for key in p.coeffs for e in key] == [int, int]
        t = TrigSeries({two: [1, 0]})
        assert t.modes == {2: [1, 0]} and [type(k) for k in t.modes] == [int]


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


# -- zero means falsy ---------------------------------------------------------

EDGE_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.0)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True,
                      allow_subnormal=True) | st.sampled_from(EDGE_FLOATS)
NODE_CASES = {
    "all -0.0": [-0.0, -0.0, -0.0],
    "mixed-sign zeros": [0.0, -0.0, 0.0],
    "NaN at one node": [0.0, math.nan, -0.0],
    "empty": [],
    "one nonzero node": [-0.0, 0.0, 5e-324],
}
SCALAR_COEFFS = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    st.integers(-2, 2), ANY_FLOAT, ANY_FLOAT.map(np.float64))
NODE_COEFFS = (st.sampled_from(list(NODE_CASES.values()))
               | st.lists(ANY_FLOAT, max_size=4)).map(NodeArray)
COEFFS = SCALAR_COEFFS | NODE_COEFFS
MONOS = st.tuples(st.integers(0, 4), st.integers(0, 4))


def kept_by_ne(c):
    """The zero test the ring used before truth values: ``c != 0``,
    reduced over the nodes of a node array."""
    return bool(np.asarray(c != 0).any())


class TestZeroMeansFalsy:
    def assert_keeps_what_ne_kept(self, coeffs):
        expected = [(k, c) for k, c in coeffs.items() if kept_by_ne(c)]
        for poly in (DiscPoly._canonical(coeffs.items()), DiscPoly(coeffs)):
            assert list(poly.coeffs) == [k for k, _ in expected]
            assert all(poly.coeffs[k] is c for k, c in expected)

    @settings(max_examples=100)
    @given(st.dictionaries(MONOS, COEFFS, max_size=6))
    def test_polynomials_keep_what_ne_kept(self, coeffs):
        self.assert_keeps_what_ne_kept(coeffs)

    @pytest.mark.parametrize("c", [
        F(0), F(-1, 3), 0, -2, 0.0, -0.0, math.nan, math.inf, -math.inf,
        5e-324, -5e-324, np.float64(-0.0), np.float64(math.nan),
        *map(NodeArray, NODE_CASES.values())])
    def test_edge_coefficients_keep_what_ne_kept(self, c):
        self.assert_keeps_what_ne_kept({(1, 2): c, (0, 0): F(1)})

    @settings(max_examples=100)
    @given(st.dictionaries(st.integers(0, 4), st.tuples(COEFFS, COEFFS),
                           max_size=5))
    def test_trig_series_keep_what_ne_kept(self, modes):
        series = TrigSeries(modes)
        # b_0 is unused
        assert set(series.modes) == {
            k for k, (a, b) in modes.items()
            if kept_by_ne(a) or (k and kept_by_ne(b))}

    @settings(max_examples=100)
    @given(st.lists(ANY_FLOAT, max_size=6))
    def test_node_array_truth_is_a_python_bool(self, values):
        x = NodeArray(values)
        truth = x.__bool__()
        assert type(truth) is bool
        assert truth == bool((x != 0).any())

    @pytest.mark.parametrize("values", NODE_CASES.values(), ids=NODE_CASES)
    def test_node_array_truth_at_the_edges(self, values):
        x = NodeArray(values)
        assert bool(x) is any(v != 0 for v in values)


# -- a float coefficient times an exact table uses the table's float ----------

FLOAT_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    ANY_FLOAT.filter(lambda c: c != 0), max_size=6).map(DiscPoly)


def polar_fourier_exact_table(p):
    """polar_fourier as it multiplied every coefficient by the exact
    Fraction modes."""
    out = {}
    for (m, n), c in p.coeffs.items():
        for k, a, b in _trig_expand(m, n):
            for kind, w in (("cos", a), ("sin", b)):
                if w:
                    rad = out.setdefault((kind, k), {})
                    rad[m + n] = rad.get(m + n, 0) + c * w
    out = {key: {j: c for j, c in rad.items() if c != 0}
           for key, rad in out.items()}
    return {key: rad for key, rad in out.items() if rad}


def restrict_exact_table(p):
    modes = {}
    for (kind, k), radial in polar_fourier_exact_table(p).items():
        total = sum(radial.values())
        if total != 0:
            modes.setdefault(k, [0, 0])[kind == "sin"] = total
    return TrigSeries(modes)


def flat_bytes(entries):
    """Sorted keys, the values' types, and the values' bytes."""
    keys = sorted(entries)
    values = [entries[k] for k in keys]
    return keys, {type(v) for v in values}, np.array(values).tobytes()


def radial_entries(modes):
    return {(kind, k, j): c for (kind, k), rad in modes.items()
            for j, c in rad.items()}


def trig_entries(series):
    return {(k, i): ab[i] for k, ab in series.modes.items() for i in (0, 1)}


class TestFloatTables:
    @settings(max_examples=100)
    @given(FLOAT_POLYS)
    def test_float_polynomials_match_the_exact_table(self, p):
        assert (flat_bytes(radial_entries(polar_fourier(p)))
                == flat_bytes(radial_entries(polar_fourier_exact_table(p))))
        assert (flat_bytes(trig_entries(restrict_to_boundary(p)))
                == flat_bytes(trig_entries(restrict_exact_table(p))))

    @settings(max_examples=100)
    @given(st.integers(1, 4).flatmap(lambda nodes: st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.lists(st.floats(allow_nan=False, allow_infinity=False,
                           allow_subnormal=True) | st.just(-0.0),
                 min_size=nodes, max_size=nodes).map(NodeArray),
        max_size=6)).map(DiscPoly))
    # a sum past the float range: a Python float turns inf silently, where
    # numpy warns on a node array, so that side ignores the overflow
    @example(DiscPoly({(0, 0): NodeArray([1.19846209e+308]),
                       (0, 2): NodeArray([1.19846209e+308])}))
    def test_node_arrays_match_each_node(self, p):
        with np.errstate(over="ignore"):
            modes = radial_entries(polar_fourier(p))
            trace = trig_entries(restrict_to_boundary(p))
        values = [*modes.values(), *trace.values()]
        assert all(v.dtype == np.float64 for v in values
                   if isinstance(v, np.ndarray))
        n_nodes = max((c.size for c in p.coeffs.values()), default=0)
        for i in range(n_nodes):
            scalar = DiscPoly({k: float(c[i]) for k, c in p.coeffs.items()})
            for batched, per_node in (
                    (modes, radial_entries(polar_fourier(scalar))),
                    (trace, trig_entries(restrict_to_boundary(scalar)))):
                # a value the scalar polynomial drops is 0.0 at its node
                assert per_node.keys() <= batched.keys()
                for key, v in batched.items():
                    v_i = np.broadcast_to(v, (n_nodes,))[i]
                    ref = per_node.get(key, 0.0)
                    if ref:
                        assert np.float64(v_i).tobytes() == np.float64(
                            ref).tobytes(), key
                    else:
                        assert v_i == 0, key

    def test_float_table_is_an_immutable_copy(self):
        for m, n in ((0, 0), (3, 1), (2, 4)):
            exact, floats = _trig_tables(m, n)
            assert exact is _trig_expand(m, n)
            assert _trig_tables(m, n)[1] is floats
            assert isinstance(floats, tuple)
            assert all(isinstance(entry, tuple) for entry in floats)
            assert floats == tuple((k, float(a), float(b))
                                   for k, a, b in exact)
            assert all(type(a) is float and type(b) is float
                       for _, a, b in floats)


def test_repr_is_readable():
    p = DiscPoly({(0, 0): F(1, 2), (2, 1): -3})
    text = repr(p)
    assert "z2^2" in text and "z3" in text and "1/2" in text
    assert repr(DiscPoly.zero()) == "0"
