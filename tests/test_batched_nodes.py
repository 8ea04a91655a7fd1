"""Every axis node at once: the batched terms are the per-node terms, bit for bit.

``run_pipeline`` evaluates the verification terms of all nodes in one call,
on node-array :class:`StationData` (:func:`stations_from_grids`).  Here
each node of that one evaluation is compared with the scalar evaluation of
the same node's Python-float data, coefficient by coefficient, and the
flow rates and compatibility integrals with the per-node reductions.  The
full fields of :func:`evaluate_station` are compared the same way.
"""

from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tubeflow.cli import RunConfig, run_pipeline
from tubeflow.expansion import evaluate_station, verification_terms
from tubeflow.polydisc import DiscPoly, NodeArray, disc_integral

PRESETS = Path(__file__).resolve().parent.parent / "presets"

CASES = {
    "straight_rigid": ("straight_rigid", None),
    "curved_rigid": ("curved_rigid", None),
    "helix_swirl": ("helix_swirl", None),
    "elastic_pulse": ("elastic_pulse", None),
    "helix_swirl_1025": ("helix_swirl", 1025),
}


@pytest.fixture(scope="module", params=list(CASES))
def run(request):
    preset, n_s1 = CASES[request.param]
    cfg = RunConfig.from_file(PRESETS / f"{preset}.cfg")
    if n_s1 is not None:
        cfg.n_s1 = n_s1
    res = run_pipeline(cfg)
    batched = verification_terms(res.stations.data, res.wall.s1)
    per_node = [verification_terms(sd) for sd in res.stations]
    return res, batched, per_node


def polys(terms):
    return {"u1_0": terms.u1_0, "u1_1": terms.u1_1, "u1_2": terms.u1_2,
            "F2": terms.F[0], "F3": terms.F[1], "g": terms.g}


def assert_per_node(batched, per_node):
    """Each node of the batched polynomials (by name) has the bits of the
    per-node polynomials of the same name."""
    n = len(per_node)
    for name, poly in batched.items():
        for c in poly.coeffs.values():
            assert isinstance(c, NodeArray) and c.shape == (n,), name
            assert c.dtype == float, name   # not an object array
        for i, scalar in enumerate(per_node):
            ref = scalar[name].coeffs
            for key, c in ref.items():
                assert isinstance(c, float), (name, i, key)
                assert poly.coeffs[key][i].hex() == c.hex(), (name, i, key)
            # a coefficient the scalar term dropped is zero at this node
            for key in poly.coeffs.keys() - ref.keys():
                assert poly.coeffs[key][i] == 0, (name, i, key)


def test_batched_coefficients_are_the_per_node_coefficients(run):
    res, batched, per_node = run
    assert len(per_node) == len(res.stations)
    assert_per_node(polys(batched), [polys(t) for t in per_node])


def field_polys(f):
    """Every polynomial of an ExpansionFields by name, and its two stream
    coefficients psi2 and psi3."""
    out, scalars = {}, {}
    for fld in fields(f):
        term = getattr(f, fld.name)
        if isinstance(term, tuple):
            out.update((f"{fld.name}[{k}]", p) for k, p in enumerate(term))
        elif isinstance(term, DiscPoly):
            out[fld.name] = term
        else:
            scalars[fld.name] = term
    return out, scalars


def test_batched_full_fields_are_the_per_node_fields(run):
    res = run[0]
    batched, coeffs = field_polys(evaluate_station(res.stations.data))
    per_node = [field_polys(evaluate_station(sd)) for sd in res.stations]
    assert_per_node(batched, [p for p, _ in per_node])
    for name, c in coeffs.items():
        assert isinstance(c, np.ndarray) and c.dtype == float, name
        ref = np.array([s[name] for _, s in per_node], dtype=float)
        assert c.tobytes() == ref.tobytes(), name


def test_batched_reductions_are_the_per_node_reductions(run):
    res, batched, per_node = run
    R = res.wall.R
    for k, name in enumerate(("u1_0", "u1_1", "u1_2")):
        ref = np.array([R[i] ** 2 * disc_integral(getattr(t, name))
                        for i, t in enumerate(per_node)])
        got = (res.flow.q0, res.flow.q1, res.flow.q2)[k]
        assert type(got) is np.ndarray
        assert got.tobytes() == ref.tobytes(), name
    g_int = np.array([disc_integral(t.g) for t in per_node])
    assert res.compatibility.g_integral.tobytes() == g_int.tobytes()
    g_max = np.array([float(t.g.max_abs()) for t in per_node])
    got_max = np.broadcast_to(np.asarray(batched.g.max_abs(), dtype=float),
                              g_max.shape)
    assert got_max.tobytes() == g_max.tobytes()


def test_node_array_powers_are_the_scalar_powers():
    # an array x**k may differ from the scalar power in the last bit
    x = np.linspace(-1.0, 1.0, 10001)
    nodes = NodeArray(x)
    for k in range(2, 7):
        ref = np.array([v**k for v in x])
        got = nodes**k
        assert isinstance(got, NodeArray)
        assert got.tobytes() == ref.tobytes(), k


def test_node_array_powers_are_cached_and_read_only():
    x = [0.5, -0.3, 1 / 3, -0.0, 1e-200]
    nodes = NodeArray(x)
    with pytest.raises(ValueError):
        nodes[0] = 1.0
    for k in range(11):
        got = nodes**k
        assert got is nodes**k
        assert got.tobytes() == np.array([v**k for v in x]).tobytes(), k
        with pytest.raises(ValueError):
            got[0] = 1.0
    # an arithmetic result may be written to, so its powers are not kept
    twice = nodes * 2.0
    assert twice**3 is not twice**3
    assert (twice**3).tobytes() == np.array([(2 * v)**3 for v in x]).tobytes()


def test_node_array_truth_and_polynomial_products():
    src = np.array([0.0, 2.0, -0.0])
    a = NodeArray(src)
    src[0] = 5.0                     # a copy, not a view of the input
    assert a.tolist() == [0.0, 2.0, -0.0]
    assert a != 0
    assert not NodeArray([0.0, -0.0]) != 0
    # numpy hands array * poly to the polynomial, which scales each
    # coefficient; a coefficient nonzero at any node is kept
    p = a * DiscPoly.z2()
    assert isinstance(p, DiscPoly) and list(p.coeffs) == [(1, 0)]
    assert p.coeffs[(1, 0)].tolist() == [0.0, 2.0, -0.0]
    assert (NodeArray([0.0, 0.0]) * DiscPoly.z2()).is_zero()
    assert isinstance(a + DiscPoly.z3(), DiscPoly)
    assert isinstance(a - DiscPoly.z3(), DiscPoly)
    m = (DiscPoly.z2() * NodeArray([1.0, -3.0])
         + DiscPoly.z3() * NodeArray([-2.0, 0.5])).max_abs()
    assert m.tolist() == [2.0, 3.0]
