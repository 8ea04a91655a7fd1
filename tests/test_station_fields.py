"""Station fields built on first read; the per-node checks stay at every node.

``run_pipeline`` builds only the terms verification reads, for every axis
node at once, with the U^2 compatibility check of every node;
``PipelineResult.stations.fields(k)`` builds the full
:class:`ExpansionFields` of a station from its scalar data the first time
it is read.
"""

import dataclasses
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from tubeflow import expansion
from tubeflow.cli import RunConfig, export_bundle, run_pipeline
from tubeflow.errors import ModelInconsistencyError
from tubeflow.expansion import (NodeStations, StationData, build_U2_rhs,
                                evaluate_station, verification_terms)
from tubeflow.geometry import CenterCurve
from tubeflow.polydisc import DiscPoly, disc_integral

from conftest import make_exact_station

PRESETS = Path(__file__).resolve().parent.parent / "presets"

HELIX = {
    "geometry.kind": "helix", "geometry.a": "1.6", "geometry.b": "0.8",
    "eps": "0.05", "grid.n_s1": "33", "grid.n_disc": "8",
    "bc.p0.inlet": "1.0", "bc.p0.outlet": "0.0",
}

ELASTIC = {
    "geometry.kind": "straight",
    "wall.law": "elastic", "wall.R0": "1.0", "wall.E": "1e3",
    "wall.h0": "0.1", "wall.p_e": "0.0",
    "bc.p0.inlet": "0:0, 0.5:5, 1:5", "bc.p0.outlet": "0.0",
    "grid.n_s1": "33", "grid.n_disc": "8",
    "time.steady": "false", "time.t_end": "0.3", "time.dt": "0.05",
}


def bits(x):
    """Coefficient bits and key order of a field; scalars as float hex."""
    if isinstance(x, tuple):
        return tuple(bits(v) for v in x)
    if isinstance(x, DiscPoly):
        return tuple((k, float(c).hex()) for k, c in x.coeffs.items())
    return float(x).hex()


def node_bits(x, k):
    """bits() of node k of a node-array polynomial, without the
    coefficients that are zero at that node."""
    return tuple((key, float(c[k]).hex()) for key, c in x.coeffs.items()
                 if c[k] != 0)


# the broken p1 relation of the exact station: nonzero g integral
BAD = make_exact_station(d2p1=F(1, 3))


def with_bad_nodes(data, *nodes, bad=BAD):
    """Node-array station data with the given nodes' entries replaced by
    the incompatible station's (rho0, nu and the body force stay)."""
    out = {}
    for fld in dataclasses.fields(data):
        col = getattr(data, fld.name)
        if isinstance(col, np.ndarray):
            col = col.copy()
            col[list(nodes)] = float(getattr(bad, fld.name))
            out[fld.name] = col
    return dataclasses.replace(data, **out)


def counting(monkeypatch, name):
    """Replace expansion.<name> by a wrapper that records its arguments."""
    calls = []
    real = getattr(expansion, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(expansion, name, wrapper)
    return calls


@pytest.mark.parametrize("mapping", [HELIX, ELASTIC], ids=["helix", "elastic"])
def test_lazy_fields_equal_eager_fields(mapping):
    res = run_pipeline(RunConfig.from_mapping(mapping))
    n = len(res.stations)
    for i in range(n):
        lazy, eager = res.stations.fields(i), evaluate_station(res.stations[i])
        for fld in dataclasses.fields(eager):
            assert bits(getattr(lazy, fld.name)) \
                == bits(getattr(eager, fld.name)), (i, fld.name)


def test_fields_index_like_a_list():
    # fields(k) takes one node index as a list does; nothing reads fields
    # of a slice, so it takes none
    res = run_pipeline(RunConfig.from_mapping(HELIX))
    fields, n = res.stations.fields, len(res.stations)
    assert fields(-1) is fields(n - 1)
    assert fields(-n) is fields(0)
    assert fields(np.int64(3)) is fields(3)
    assert fields(5) is fields(5)
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            fields(bad)
    with pytest.raises(TypeError):
        fields(1.0)


def test_stations_index_like_a_list():
    res = run_pipeline(RunConfig.from_mapping(HELIX))
    stations, n = res.stations, len(res.stations)
    assert stations[-1] == stations[n - 1]
    assert stations[np.int64(3)] == stations[3]
    assert list(stations) == [stations[i] for i in range(n)]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            stations[bad]


def test_only_read_stations_are_evaluated(monkeypatch, tmp_path):
    calls = counting(monkeypatch, "evaluate_station")
    cfg = RunConfig.from_file(PRESETS / "helix_swirl.cfg")
    mid = cfg.n_s1 // 2
    res = run_pipeline(cfg)
    # the figure-shape checks read the mid station, and only that one
    assert [args[0] for args in calls] == [res.stations[mid]]

    res.config = dataclasses.replace(cfg, stations=(0.25, 0.5, 0.75, 0.25))
    export_bundle(res, tmp_path / "out")
    exported = {int(np.argmin(np.abs(res.wall.s1 - s)))
                for s in res.config.stations}
    assert len(calls) == len(exported | {mid}) == 3
    export_bundle(res, tmp_path / "again")
    assert len(calls) == 3


def test_compatibility_check_runs_at_every_node(monkeypatch):
    checked = counting(monkeypatch, "check_U2_compatibility")
    res = run_pipeline(RunConfig.from_mapping(HELIX))
    n = len(res.stations)
    # the first check is the batched one: every node's g, with its s1
    g, s1 = checked[0]
    assert np.array_equal(s1, res.wall.s1)
    for k, sd in enumerate(res.stations):
        assert node_bits(g, k) == bits(build_U2_rhs(sd)[1]), k
    # and it fails on a bad node wherever that node is
    for k in range(n):
        with pytest.raises(ModelInconsistencyError,
                           match=f"at 1 of {n} nodes, worst at node {k} "):
            verification_terms(with_bad_nodes(res.stations.data, k), s1)


def test_one_compatibility_check_per_node(monkeypatch, tmp_path):
    # one batched check covers every node; a read station builds its
    # fields from its own scalar data, which adds one scalar check.  The
    # batched terms are not sliced per station: their coefficient bits
    # match, but their key order need not, and key order moves export bits
    checked = counting(monkeypatch, "check_U2_compatibility")
    cfg = RunConfig.from_file(PRESETS / "helix_swirl.cfg")
    res = run_pipeline(cfg)
    mid = cfg.n_s1 // 2
    assert len(checked) == 2
    (g, s1), (g_mid, s1_mid) = checked
    assert len(s1) == cfg.n_s1 == 65
    assert g.coeffs and all(c.shape == (65,) for c in g.coeffs.values())
    assert s1_mid is None
    assert bits(g_mid) == bits(build_U2_rhs(res.stations[mid])[1])
    res.config = dataclasses.replace(cfg, stations=(0.25, 0.5, 0.75))
    export_bundle(res, tmp_path / "out")
    assert len(checked) == 4   # the mid station was read already
    export_bundle(res, tmp_path / "again")
    assert len(checked) == 4


def test_read_station_with_incompatible_data_fails_the_run(monkeypatch):
    # the mid station is the one the figure-shape checks read; the batched
    # node check raises before any field of it is built
    real = expansion.stations_from_grids
    cfg = RunConfig.from_file(PRESETS / "helix_swirl.cfg")
    mid = cfg.n_s1 // 2

    def with_bad_mid(*args):
        return with_bad_nodes(real(*args), mid)

    monkeypatch.setattr(expansion, "stations_from_grids", with_bad_mid)
    built = counting(monkeypatch, "evaluate_station")
    with pytest.raises(ModelInconsistencyError,
                       match=f"U\\^2 compatibility .* worst at node {mid} "):
        run_pipeline(cfg)
    assert built == []


@pytest.mark.parametrize("num", [F, float], ids=["Fraction", "float"])
def test_compatibility_violation_raises_at_every_stage(num):
    # the broken p1 relation of the exact station: nonzero g integral
    exact = make_exact_station(d2p1=F(1, 3))
    sd = StationData(**{k: num(getattr(exact, k))
                        for k in StationData.__dataclass_fields__})
    with pytest.raises(ModelInconsistencyError, match="U\\^2 compatibility"):
        verification_terms(sd)
    with pytest.raises(ModelInconsistencyError, match="U\\^2 compatibility"):
        evaluate_station(sd)


def test_run_rejects_an_incompatible_end_node(monkeypatch):
    # no field is read at the last node; the batched check still covers it
    real = expansion.stations_from_grids
    n = int(HELIX["grid.n_s1"])

    def with_bad_end(*args):
        return with_bad_nodes(real(*args), n - 1)

    monkeypatch.setattr(expansion, "stations_from_grids", with_bad_end)
    with pytest.raises(ModelInconsistencyError,
                       match=f"U\\^2 compatibility .* worst at node {n - 1} "):
        run_pipeline(RunConfig.from_mapping(HELIX))


def compatibility_error(data, s1):
    with pytest.raises(ModelInconsistencyError) as err:
        verification_terms(data, s1)
    return str(err.value)


def test_compatibility_error_names_its_node():
    res = run_pipeline(RunConfig.from_mapping(HELIX))
    s1, n, k = res.wall.s1, len(res.stations), 10
    data = with_bad_nodes(res.stations.data, k)
    g = build_U2_rhs(NodeStations(data)[k])[1]
    value, scale = disc_integral(g), max(1.0, float(g.max_abs()))
    assert abs(value) > 1e-10 * scale
    msg = compatibility_error(data, s1)
    assert msg == (
        f"U^2 compatibility violated at 1 of {n} nodes, worst at node {k} "
        f"(s1 = {s1[k]:g}): disc integral of g = {value:.3e} "
        f"(tol 1e-10, scale {scale:g})")
    # without positions the node is named by its index alone
    assert f"worst at node {k}: " in compatibility_error(data, None)


def test_compatibility_error_names_the_worst_node():
    res = run_pipeline(RunConfig.from_mapping(HELIX))
    s1, n = res.wall.s1, len(res.stations)
    worse = make_exact_station(d2p1=F(-40, 3), dp1=F(5, 2))
    data = with_bad_nodes(with_bad_nodes(res.stations.data, 4), 20,
                          bad=worse)
    ratio = {}
    for k in (4, 20):
        g = build_U2_rhs(NodeStations(data)[k])[1]
        ratio[k] = abs(disc_integral(g)) / max(1.0, float(g.max_abs()))
    assert ratio[4] != ratio[20]
    worst = max(ratio, key=ratio.get)
    msg = compatibility_error(data, s1)
    assert msg.startswith(f"U^2 compatibility violated at 2 of {n} nodes, "
                          f"worst at node {worst} (s1 = {s1[worst]:g}): ")


def test_frames_only_for_exported_stations(monkeypatch, tmp_path):
    # the axis problem reads kappa, kappa', tau as arrays; a frame is built
    # only to rotate an exported station back to the world
    calls = []
    real = CenterCurve.frame

    def frame(self, s1):
        calls.append(s1)
        return real(self, s1)

    monkeypatch.setattr(CenterCurve, "frame", frame)
    cfg = RunConfig.from_mapping({**HELIX, "output.stations": "0.25, 0.75"})
    res = run_pipeline(cfg)
    assert calls == []
    export_bundle(res, tmp_path)
    assert calls == [res.wall.s1[8], res.wall.s1[24]]
