"""Station fields built on first read; the per-node checks stay at every node.

``run_pipeline`` builds only the terms verification reads at every axis
node, with the U^2 compatibility check; ``PipelineResult.fields`` builds
the full :class:`ExpansionFields` of a station the first time it is read.
"""

import dataclasses
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from tubeflow import expansion
from tubeflow.cli import RunConfig, export_bundle, run_pipeline
from tubeflow.errors import ModelInconsistencyError
from tubeflow.expansion import (StationData, build_U2_rhs, evaluate_station,
                                solve_U2, verification_terms)
from tubeflow.geometry import CenterCurve
from tubeflow.polydisc import DiscPoly

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


def counting(monkeypatch, name):
    """Replace expansion.<name> by a wrapper that records its arguments."""
    calls = []
    real = getattr(expansion, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(expansion, name, wrapper)
    return calls


@pytest.mark.parametrize("mapping", [HELIX, ELASTIC], ids=["helix", "elastic"])
def test_lazy_fields_equal_eager_fields(mapping):
    res = run_pipeline(RunConfig.from_mapping(mapping))
    n = len(res.stations)
    assert len(res.fields) == n
    for i in range(n):
        lazy, eager = res.fields[i], evaluate_station(res.stations[i])
        for fld in dataclasses.fields(eager):
            assert bits(getattr(lazy, fld.name)) \
                == bits(getattr(eager, fld.name)), (i, fld.name)


def test_fields_index_like_a_list():
    res = run_pipeline(RunConfig.from_mapping(HELIX))
    fields, n = res.fields, len(res.stations)
    assert fields[-1] is fields[n - 1]
    assert fields[-n] is fields[0]
    assert fields[np.int64(3)] is fields[3]
    assert fields[1:n:7] == [fields[i] for i in range(1, n, 7)]
    assert fields[::-1][0] is fields[n - 1]
    assert fields[n:] == []
    assert list(fields) == fields[:]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            fields[bad]
    with pytest.raises(TypeError):
        fields[1.0]


def test_only_read_stations_are_evaluated(monkeypatch, tmp_path):
    calls = counting(monkeypatch, "evaluate_station")
    cfg = RunConfig.from_file(PRESETS / "helix_swirl.cfg")
    mid = cfg.n_s1 // 2
    res = run_pipeline(cfg)
    # the figure-shape checks read the mid station, and only that one
    assert [args[0] for args in calls] == [res.stations[mid]]

    cfg.stations = (0.25, 0.5, 0.75, 0.25)
    export_bundle(res, tmp_path / "out")
    exported = {int(np.argmin(np.abs(res.wall.s1 - s))) for s in cfg.stations}
    assert len(calls) == len(exported | {mid}) == 3
    export_bundle(res, tmp_path / "again")
    assert len(calls) == 3


def test_compatibility_check_runs_at_every_node(monkeypatch):
    checked = counting(monkeypatch, "check_U2_compatibility")
    res = run_pipeline(RunConfig.from_mapping(HELIX))
    n = len(res.stations)
    assert len(checked) >= n
    for (g,), sd in zip(checked, res.stations):
        assert bits(g) == bits(build_U2_rhs(sd)[1])


def test_one_compatibility_check_per_node(monkeypatch, tmp_path):
    # read stations reuse the terms their node built, check included
    checked = counting(monkeypatch, "check_U2_compatibility")
    cfg = RunConfig.from_file(PRESETS / "helix_swirl.cfg")
    res = run_pipeline(cfg)
    assert len(checked) == cfg.n_s1 == 65
    cfg.stations = (0.25, 0.5, 0.75)
    export_bundle(res, tmp_path / "out")
    assert len(checked) == 65


def test_read_station_with_incompatible_data_fails_the_run(monkeypatch):
    # the mid station is the one the figure-shape checks read; its node
    # check raises before any field of it is built
    real = expansion.stations_from_grids
    exact = make_exact_station(d2p1=F(1, 3))
    bad = StationData(**{k: float(getattr(exact, k))
                         for k in StationData.__dataclass_fields__})
    cfg = RunConfig.from_file(PRESETS / "helix_swirl.cfg")
    mid = cfg.n_s1 // 2

    def with_bad_mid(*args):
        stations = real(*args)
        stations[mid] = bad
        return stations

    monkeypatch.setattr(expansion, "stations_from_grids", with_bad_mid)
    built = counting(monkeypatch, "evaluate_station")
    with pytest.raises(ModelInconsistencyError, match="U\\^2 compatibility"):
        run_pipeline(cfg)
    assert built == []


@pytest.mark.parametrize("num", [F, float], ids=["Fraction", "float"])
def test_compatibility_violation_raises_at_every_stage(num):
    # the broken p1 relation of the exact station: nonzero g integral
    exact = make_exact_station(d2p1=F(1, 3))
    sd = StationData(**{k: num(getattr(exact, k))
                        for k in StationData.__dataclass_fields__})
    F_pair, g = build_U2_rhs(sd)
    with pytest.raises(ModelInconsistencyError, match="U\\^2 compatibility"):
        verification_terms(sd)
    with pytest.raises(ModelInconsistencyError, match="U\\^2 compatibility"):
        solve_U2(F_pair, g, sd)
    with pytest.raises(ModelInconsistencyError, match="U\\^2 compatibility"):
        evaluate_station(sd)


def test_run_rejects_an_incompatible_end_node(monkeypatch):
    # no field is read at the last node; its per-node check still fires
    real = expansion.stations_from_grids
    exact = make_exact_station(d2p1=F(1, 3))
    bad = StationData(**{k: float(getattr(exact, k))
                         for k in StationData.__dataclass_fields__})

    def with_bad_end(*args):
        return real(*args)[:-1] + [bad]

    monkeypatch.setattr(expansion, "stations_from_grids", with_bad_end)
    with pytest.raises(ModelInconsistencyError, match="U\\^2 compatibility"):
        run_pipeline(RunConfig.from_mapping(HELIX))


def test_one_frame_per_axis_node(monkeypatch):
    calls = []
    real = CenterCurve.frame

    def frame(self, s1):
        calls.append(s1)
        return real(self, s1)

    monkeypatch.setattr(CenterCurve, "frame", frame)
    res = run_pipeline(RunConfig.from_mapping(HELIX))
    assert calls == list(res.wall.s1)
