"""Whole-grid evaluation writes the bytes of point-by-point evaluation.

The export evaluates each polynomial once on all disc points of a grid,
through :class:`~tubeflow.polydisc.NodeArray`.  These tests compare it,
by ``tobytes()``, against evaluating the same points one at a time, and
pin the heatmap colours and the CSV row format against the per-value
rules they replace.  The CSV export formats each disc-grid coordinate
once per process and writes each file in at most two calls.
"""

import random
from pathlib import Path

import numpy as np
import pytest

from tubeflow import cli
from tubeflow.cli import RunConfig, _grid_text, run_pipeline, write_csv
from tubeflow.expansion import truncated_solution
from tubeflow.plotting import _HEATMAP_RINGS, _QUIVER_RINGS, _diverging_colors
from tubeflow.polydisc import DiscPoly, NodeArray, polar_grid

GRIDS = {
    "disc16": polar_grid(16)[2:],
    "heatmap": polar_grid(_HEATMAP_RINGS)[2:],
    "quiver": polar_grid(_QUIVER_RINGS)[2:],
}


def old_export_grid(n_disc):
    """(s2, s3, z2, z3) of the export's former per-point construction."""
    grid = []
    for i in range(n_disc):
        s3 = (i + 0.5) / n_disc
        for j in range(2 * n_disc):
            s2 = np.pi * j / n_disc
            grid.append((s2, s3, float(s3 * np.cos(s2)),
                         float(s3 * np.sin(s2))))
    return tuple(np.array(c) for c in zip(*grid))


def old_plot_centres(n_r, n_theta):
    """(z2, z3) of the plots' former per-point construction."""
    points = []
    for i in range(n_r):
        s3 = (i + 0.5) / n_r
        for j in range(n_theta):
            s2 = 2 * np.pi * j / n_theta
            points.append((float(s3 * np.cos(s2)), float(s3 * np.sin(s2))))
    return tuple(np.array(c) for c in zip(*points))


@pytest.mark.parametrize("n_disc", [8, 13, 16, 32])
def test_polar_grid_matches_export_construction(n_disc):
    new = polar_grid(n_disc)
    assert [type(c) for c in new] == [np.ndarray, np.ndarray,
                                      NodeArray, NodeArray]
    for got, want in zip(new, old_export_grid(n_disc)):
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


@pytest.mark.parametrize("n_rings", [_HEATMAP_RINGS, _QUIVER_RINGS])
def test_polar_grid_matches_plot_centres(n_rings):
    for got, want in zip(polar_grid(n_rings)[2:],
                         old_plot_centres(n_rings, 2 * n_rings)):
        assert got.tobytes() == want.tobytes()


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
                     zip(z2.tolist(), z3.tolist())],
                    dtype=float)


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_grid_evaluation_matches_pointwise_bits(grid):
    z2, z3 = GRIDS[grid]
    for poly in float_polys():
        whole = z2.broadcast(poly.evaluate(z2, z3))
        assert whole.shape == z2.shape
        assert whole.tobytes() == pointwise(poly, z2, z3).tobytes(), poly


def test_zero_polynomial_broadcasts_to_float_zeros():
    z2, z3 = GRIDS["quiver"]
    value = DiscPoly.zero().evaluate(z2, z3)
    assert value == 0 and isinstance(value, int)
    assert z2.broadcast(value).tobytes() == np.zeros(z2.size).tobytes()


def test_powers_are_python_float_powers_and_cached():
    pts = NodeArray([0.5, -0.3, 1 / 3, -0.0])
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
    f, p0, p1 = res.stations.fields(i), res.pexp.p0[i], res.pexp.p1[i]
    _, _, z2, z3 = polar_grid(8)
    u, p = truncated_solution(f, p0, p1, 0.05, order, z2, z3)
    rows = [truncated_solution(f, p0, p1, 0.05, order, a, b)
            for a, b in zip(z2.tolist(), z3.tolist())]
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


EDGE_ROWS = [
    (0, -0.0, float("nan"), float("inf"), np.float64(1 / 3), 0.1),
    [np.float64(-0.0), -1e-310, float("-inf"), 12345678901234567890.0,
     np.int64(7), 2.5],
    np.array([1e300, -5e-324, 0.0, 1.0, -2.0, np.pi]),
]


@pytest.mark.parametrize("n_lead", [1, 2, 5])
def test_write_csv_with_lead_text_matches_per_value_format(tmp_path, n_lead):
    header = ["a", "b", "c", "d", "e", "f"]
    lead = ["".join("%.17g," % v for v in row[:n_lead]) for row in EDGE_ROWS]
    path = tmp_path / "rows.csv"
    write_csv(path, header, iter([row[n_lead:] for row in EDGE_ROWS]),
              lead=lead)
    want = "a,b,c,d,e,f\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in EDGE_ROWS)
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("lead", [None, ["1,"] * 2])
def test_write_csv_rejects_a_ragged_row(tmp_path, lead):
    with pytest.raises(TypeError, match="arguments for format string"):
        write_csv(tmp_path / "rows.csv", ["a", "b", "c"],
                  [(1.0, 2.0), (3.0,)], lead=lead)


@pytest.mark.parametrize("n_disc", [8, 13, 16])
def test_grid_text_is_the_format_of_each_grid_point(n_disc):
    s2, s3, z2, z3 = polar_grid(n_disc)
    polar, cartesian = _grid_text(n_disc)
    assert polar == tuple("%.17g,%.17g," % (a, b) for a, b in zip(s2, s3))
    assert cartesian == tuple("%.17g,%.17g," % (a, b)
                              for a, b in zip(z2, z3))
    assert _grid_text(n_disc) is _grid_text(n_disc)


def test_every_bundle_csv_takes_at_most_two_writes(tmp_path, monkeypatch):
    res = run_pipeline(RunConfig.from_mapping({
        "geometry.kind": "helix", "grid.n_s1": "17", "grid.n_disc": "8",
        "time.steady": "false", "time.t_end": "0.2", "time.dt": "0.1",
        "wall.law": "elastic", "output.fields": "all",
        "output.stations": "0.25,0.75"}))
    writes = {}

    class Counted:
        def __init__(self, fh, name):
            self.fh, self.name = fh, name

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, text):
            writes[self.name] = writes.get(self.name, 0) + 1
            return self.fh.write(text)

    def counted_open(path, *args, **kwargs):
        return Counted(open(path, *args, **kwargs), Path(path).name)

    monkeypatch.setattr(cli, "open", counted_open, raising=False)
    cli.export_bundle(res, tmp_path)
    csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert "history.csv" in csvs and "solution_station0004.csv" in csvs
    assert sorted(writes) == csvs
    assert max(writes.values()) <= 2
