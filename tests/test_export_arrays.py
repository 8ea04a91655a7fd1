"""Whole-grid evaluation writes the bytes of point-by-point evaluation.

The export evaluates each polynomial once on all disc points of a grid,
through :class:`~tubeflow.polydisc.PointPowers`.  These tests compare it,
by ``tobytes()``, against evaluating the same points one at a time, and
pin the heatmap colours and the CSV row format against the per-value
rules they replace.
"""

import random

import numpy as np
import pytest

from tubeflow.cli import RunConfig, _disc_grid, run_pipeline, write_csv
from tubeflow.expansion import truncated_solution
from tubeflow.plotting import (_HEATMAP_GRID, _QUIVER_GRID, _diverging_colors,
                               _polar_centres)
from tubeflow.polydisc import DiscPoly, PointPowers

GRIDS = {
    "disc16": _disc_grid(16)[2:],
    "heatmap": _polar_centres(*_HEATMAP_GRID),
    "quiver": _polar_centres(*_QUIVER_GRID),
}


def float_polys():
    """Float polynomials up to degree 10: random ones, the zero
    polynomial, a stored -0.0 coefficient and products that underflow."""
    rng = random.Random(10)
    monos = [(m, n) for m in range(11) for n in range(11) if m + n <= 10]
    polys = [DiscPoly.zero(), DiscPoly.constant(-2.5),
             DiscPoly({(10, 0): -5e-324, (0, 10): 1e-300, (3, 7): -1e-310})]
    signed_zero = DiscPoly.zero()
    signed_zero.coeffs = {(1, 0): -0.0, (0, 2): -0.0}
    polys.append(signed_zero)
    for _ in range(40):
        k = rng.randint(1, 12)
        polys.append(DiscPoly({mono: rng.uniform(-3.0, 3.0)
                               for mono in rng.sample(monos, k)}))
    return polys


def pointwise(poly, z2, z3):
    return np.array([poly.evaluate(a, b) for a, b in
                     zip(z2.values.tolist(), z3.values.tolist())],
                    dtype=float)


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_grid_evaluation_matches_pointwise_bits(grid):
    z2, z3 = GRIDS[grid]
    for poly in float_polys():
        whole = z2.broadcast(poly.evaluate(z2, z3))
        assert whole.shape == z2.values.shape
        assert whole.tobytes() == pointwise(poly, z2, z3).tobytes(), poly


def test_zero_polynomial_broadcasts_to_float_zeros():
    z2, z3 = GRIDS["quiver"]
    value = DiscPoly.zero().evaluate(z2, z3)
    assert value == 0 and isinstance(value, int)
    assert z2.broadcast(value).tobytes() == np.zeros(z2.values.size).tobytes()


def test_powers_are_python_float_powers_and_cached():
    pts = PointPowers([0.5, -0.3, 1 / 3, -0.0])
    for k in range(11):
        want = np.array([x**k for x in (0.5, -0.3, 1 / 3, -0.0)])
        assert (pts**k).tobytes() == want.tobytes()
    assert pts**7 is pts**7
    with pytest.raises(ValueError):
        (pts**2)[0] = 1.0


@pytest.mark.parametrize("order", [0, 1, 2])
def test_truncated_solution_on_grid_matches_pointwise(order):
    res = run_pipeline(RunConfig.from_mapping({
        "geometry.kind": "helix", "geometry.a": "1.6", "geometry.b": "0.8",
        "eps": "0.05", "grid.n_s1": "17", "grid.n_disc": "8"}))
    i = 8
    f, p0, p1 = res.fields[i], res.pexp.p0[i], res.pexp.p1[i]
    _, _, z2, z3 = _disc_grid(8)
    u, p = truncated_solution(f, p0, p1, 0.05, order, z2, z3)
    rows = [truncated_solution(f, p0, p1, 0.05, order, a, b)
            for a, b in zip(z2.values.tolist(), z3.values.tolist())]
    for k in range(3):
        want = np.array([r[0][k] for r in rows], dtype=float)
        assert z2.broadcast(u[k]).tobytes() == want.tobytes(), k
    want = np.array([r[1] for r in rows], dtype=float)
    assert z2.broadcast(p).tobytes() == want.tobytes()


def old_color(v):
    """The per-value heatmap colour rule the table replaces."""
    v = max(-1.0, min(1.0, v))
    if v >= 0:
        r, g, b = 255, int(round(255 * (1 - v))), int(round(255 * (1 - v)))
    else:
        r, g, b = int(round(255 * (1 + v))), int(round(255 * (1 + v))), 255
    return f"rgb({r},{g},{b})"


def test_colour_table_matches_per_value_rule():
    ties = [(k + 0.5) / 255 for k in range(255)]
    values = ([0.0, -0.0, 1.0, -1.0, 1.5, -2.0, 1e300, -1e300,
               float("inf"), float("-inf"), float("nan")]
              + ties + [-t for t in ties] + [1 - t for t in ties]
              + [t - 1 for t in ties])
    assert _diverging_colors(np.array(values)) \
        == [old_color(v) for v in values]


def test_write_csv_rows_match_per_value_format(tmp_path):
    rows = [
        (0, -0.0, float("nan"), float("inf"), np.float64(1 / 3), 0.1),
        [np.float64(-0.0), -1e-310, float("-inf"), 12345678901234567890.0,
         np.int64(7), 2.5],
        np.array([1e300, -5e-324, 0.0, 1.0, -2.0, np.pi]),
    ]
    header = ["a", "b", "c", "d", "e", "f"]
    path = tmp_path / "rows.csv"
    write_csv(path, header, iter(rows))
    want = "a,b,c,d,e,f\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode()
    assert path.read_text().splitlines()[1] == "0,-0,nan,inf,"\
        "0.33333333333333331,0.10000000000000001"
