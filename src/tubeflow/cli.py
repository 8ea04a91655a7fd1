"""Config ingestion, pipeline orchestration, field export, plot emission.

Configs are flat ``key = value`` text with dotted sections; ``_KEYS`` lists
the recognized keys with their defaults and the check of each value alone
(``RunConfig.validate``, run on each frozen RunConfig built, adds the rules
that join keys).  All data files are written with 17 significant digits
and no timestamps, so identical configs produce byte-identical outputs.

Subcommands: ``solve`` (full pipeline), ``fields`` (sample/export only),
``verify`` (verification suites only), ``tables`` (secondary-flow
coefficient-table check), ``sweep`` (kappa/tau/eps parameter grid: one
axis solve per (kappa, tau) curve, the tube-map invertibility check for
each eps); each run subcommand takes ``--config`` and ``--out``, and
``solve`` and ``fields``, which write the assembled solution, also take
``--order``; every other setting is a config key.
Exit codes: 0 success, 2 verification failure (its report keys on stderr),
1 error, a usage error included; a wall coupling that does not converge
adds its step's end time and the residual of each sweep on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field as dc_field, make_dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import coupling, expansion, geometry, plotting, pressure, verify
from .errors import (ConfigurationError, CouplingDivergenceError,
                     TubeflowError)
from .nodes import polar_grid

_FMT = "%.17g"

# ExpansionFields terms that can be exported; tuples are vector fields.
_FIELD_NAMES = ("u1_0", "u1_1", "u1_2", "p2", "p3", "g", "U1", "U2", "F", "W")


# -- config ------------------------------------------------------------------

def parse_config_text(text: str) -> dict:
    """Flat dotted-key config: one ``key = value`` per line, # comments."""
    out, first = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first:
            raise ConfigurationError(f"line {lineno}: key {key!r} already "
                                     f"given on line {first[key]}")
        first[key] = lineno
        out[key] = value
    return out


def _floats(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _parse_bc_entry(text):
    """Scalar, or a 't:value' comma list for a time series."""
    if ":" in text:
        pairs = [item.split(":") for item in text.split(",")]
        times = tuple(float(t) for t, _ in pairs)
        values = tuple(float(v) for _, v in pairs)
        return pressure.TimeSeries(times, values)
    return float(text)


_FLAGS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}

# Checks on each parsed value: what the error says it must be, and the test.
# _FINITE passes a time series (a callable), which checks its own values.
_POSITIVE = ("finite and positive", lambda v: np.isfinite(v) and v > 0)
_FINITE = ("finite", lambda v: callable(v) or np.isfinite(v))
_NON_NEGATIVE = ("finite and non-negative", lambda v: np.isfinite(v) and v >= 0)
_AT_LEAST_8 = ("at least 8", lambda v: v >= 8)


def _one_of(names):
    return ("one of " + ", ".join(map(repr, names)), lambda v: v in names)


# each geometry.kind and wall.law, and what it builds from a RunConfig
_CURVES = {
    "straight": lambda c: geometry.CenterCurve.straight(c.length, c.direction),
    "circular-arc": lambda c: geometry.CenterCurve.circular_arc(c.arc_radius,
                                                                c.length),
    "helix": lambda c: geometry.CenterCurve.helix(c.helix_a, c.helix_b,
                                                  c.length),
    "sampled": lambda c: geometry.CenterCurve.from_file(c.curve_file),
}
_WALL_LAWS = {
    "rigid": lambda c: coupling.RigidWall(),
    "elastic": lambda c: coupling.ElasticWall(E=c.wall_E, h0=c.wall_h0,
                                              R0=c.wall_R0, p_e=c.wall_pe),
}


class _Key(NamedTuple):
    attr: str            # the RunConfig field the key sets
    default: object      # the field's default
    parse: object        # text -> value
    check: tuple = None  # on each value, or each of a tuple (see _check)


# Every config key, in the order of the RunConfig fields and of the checks,
# with each rule that reads the key alone; RunConfig.validate adds the rest.
_KEYS = {
    "geometry.kind": _Key("geometry_kind", "straight", str, _one_of(_CURVES)),
    "geometry.length": _Key("length", 1.0, float, _POSITIVE),
    "geometry.radius": _Key("arc_radius", 2.0, float, _POSITIVE),
    "geometry.a": _Key("helix_a", 3.0, float, _POSITIVE),
    "geometry.b": _Key("helix_b", 4.0, float, _FINITE),
    "geometry.file": _Key("curve_file", "", str),
    "geometry.direction": _Key("direction", (0.0, 0.0, 1.0), _floats),
    "eps": _Key("eps", 0.1, float, _POSITIVE),
    "fluid.rho0": _Key("rho0", 1.0, float, _POSITIVE),
    "fluid.nu": _Key("nu", 1.0, float, _POSITIVE),
    "wall.law": _Key("wall_law", "rigid", str, _one_of(_WALL_LAWS)),
    "wall.R0": _Key("wall_R0", 1.0, float, _POSITIVE),
    "wall.E": _Key("wall_E", 1e5, float, _POSITIVE),
    "wall.h0": _Key("wall_h0", 0.01, float, _POSITIVE),
    "wall.p_e": _Key("wall_pe", 0.0, float, _FINITE),
    "bc.p0.inlet": _Key("bc_p0_inlet", 1.0, _parse_bc_entry, _FINITE),
    "bc.p0.outlet": _Key("bc_p0_outlet", 0.0, _parse_bc_entry, _FINITE),
    "bc.p1.inlet": _Key("bc_p1_inlet", 0.0, float, _FINITE),
    "bc.p1.outlet": _Key("bc_p1_outlet", 0.0, float, _FINITE),
    "bc.p02.inlet": _Key("bc_p02_inlet", 0.0, float, _FINITE),
    "bc.p02.outlet": _Key("bc_p02_outlet", 0.0, float, _FINITE),
    "body": _Key("body", (0.0, 0.0, 0.0), _floats, _FINITE),
    "grid.n_s1": _Key("n_s1", 64, int, _AT_LEAST_8),
    "grid.n_disc": _Key("n_disc", 16, int, _AT_LEAST_8),
    "time.steady": _Key("steady", True, lambda v: _FLAGS[v.lower()]),
    "time.t_end": _Key("t_end", 1.0, float),
    "time.dt": _Key("dt", 0.1, float),
    "output.fields": _Key(
        "out_fields", ("u1_0", "u1_1", "u1_2", "U1", "U2", "p2", "p3"),
        lambda v: _FIELD_NAMES if v == "all"
        else tuple(x.strip() for x in v.split(",")), _one_of(_FIELD_NAMES)),
    "output.stations": _Key("stations", (0.5,), _floats),
    "sweep.kappa": _Key("sweep_kappa", (), _floats, _NON_NEGATIVE),
    "sweep.tau": _Key("sweep_tau", (), _floats, _FINITE),
    "sweep.eps": _Key("sweep_eps", (), _floats, _POSITIVE),
}


def _check(key, value):
    """Raise a ConfigurationError naming ``key`` and the value unless the
    value, or each value of a tuple or list, passes the key's check in
    _KEYS."""
    must_be, ok = _KEYS[key].check
    for v in value if isinstance(value, (tuple, list)) else (value,):
        if not ok(v):
            raise ConfigurationError(f"{key} = {v!r} must be {must_be}")


# one frozen field per key; the generated __init__ calls __post_init__
# only if make_dataclass's namespace holds it
class RunConfig(make_dataclass("_ConfigFields", [
        (key.attr, object, dc_field(default=key.default))
        for key in _KEYS.values()],
        frozen=True, namespace={"__post_init__": lambda cfg: cfg.validate()})):
    """Run description, valid by construction: one field per ``_KEYS``
    key, with its default (see the shipped presets for examples)."""

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"config {path}: {exc}") from exc
        return cls.from_mapping(parse_config_text(text))

    @classmethod
    def from_mapping(cls, kv: dict) -> "RunConfig":
        values = {}
        for key, text in kv.items():
            if key not in _KEYS:
                raise ConfigurationError(f"unknown config key {key!r}")
            attr, _, parse, _ = _KEYS[key]
            try:
                values[attr] = parse(text)
            except (TypeError, ValueError, KeyError) as exc:
                raise ConfigurationError(f"bad value for {key}: {text!r}") from exc
            except ConfigurationError as exc:  # e.g. a bad time series
                raise ConfigurationError(f"{key}: {exc}") from exc
        return cls(**values)

    def validate(self):
        """Each key's own check in _KEYS, then the rules no single value
        decides: the length of the direction and body tuples and the rules
        that join keys."""
        for key, (attr, _, _, check) in _KEYS.items():
            if check is not None:
                _check(key, getattr(self, attr))
        if self.geometry_kind == "sampled" and not self.curve_file:
            raise ConfigurationError(
                "geometry.kind = 'sampled' needs geometry.file")
        if len(self.direction) != 3 or not np.all(np.isfinite(self.direction)):
            raise ConfigurationError(f"geometry.direction {self.direction!r}"
                                     " needs 3 finite components")
        if not np.any(self.direction):
            raise ConfigurationError(f"geometry.direction {self.direction!r}"
                                     " must not be the zero vector")
        if len(self.body) != 3:
            raise ConfigurationError(f"body {self.body!r} needs 3 components")
        if not self.steady:  # steps of dt from 0 reach t_end exactly
            steps = self.t_end / self.dt if self.dt > 0 else np.nan
            if not (self.t_end > 0 and np.isfinite(steps)):
                raise ConfigurationError(
                    f"unsteady runs need finite dt > 0 and t_end > 0 "
                    f"(time.dt = {self.dt!r}, time.t_end = {self.t_end!r})")
            if abs(steps - round(steps)) > 1e-9 * steps:
                raise ConfigurationError(
                    f"time.t_end = {self.t_end!r} is not a whole multiple of "
                    f"time.dt = {self.dt!r}")
            if round(steps) < 1:  # t_end / inf = 0 is a whole number
                raise ConfigurationError(
                    f"time.dt = {self.dt!r} makes no step up to time.t_end ="
                    f" {self.t_end!r}; unsteady runs need at least one")
        for s1 in self.stations:
            if not 0.0 <= s1 <= self.length:
                raise ConfigurationError(
                    f"output.stations = {s1!r} outside [0, geometry.length ="
                    f" {self.length!r}]")

    # -- constructors for the model objects --------------------------------
    def build_curve(self) -> geometry.CenterCurve:
        return _CURVES[self.geometry_kind](self)

    def build_fluid(self) -> expansion.FluidParams:
        return expansion.FluidParams(self.rho0, self.nu)

    def build_body(self) -> expansion.BodyForce:
        return expansion.BodyForce(*self.body)

    def build_bc(self) -> pressure.PressureBC:
        return pressure.PressureBC(
            p0_inlet=self.bc_p0_inlet, p0_outlet=self.bc_p0_outlet,
            p1_inlet=self.bc_p1_inlet, p1_outlet=self.bc_p1_outlet,
            p02_inlet=self.bc_p02_inlet, p02_outlet=self.bc_p02_outlet,
        )

    def build_wall_law(self):
        return _WALL_LAWS[self.wall_law](self)


# -- pipeline -----------------------------------------------------------------

@dataclass
class PipelineResult:
    config: RunConfig
    curve: geometry.CenterCurve
    wall: coupling.WallState
    pexp: pressure.PressureExpansion
    stations: expansion.NodeStations   # node data; .fields(k) on first read
    flow: verify.FlowRates
    conservation: verify.ConservationReport
    compatibility: verify.CompatibilityReport
    shape_checks: dict
    history: list = dc_field(default_factory=list)

    def report(self) -> dict:
        """``verify_report.txt`` less the verdict: ``{"section.name":
        value}`` in the file's order, which sorts the keys."""
        con, comp = self.conservation, self.compatibility
        return dict(sorted({
            **{f"bvp_residuals.{k}": float(v)
               for k, v in self.pexp.residuals.items()},
            "compatibility.max_g_integral": comp.max_g_integral,
            "compatibility.max_u1_residual": comp.max_u1_residual,
            "conservation.max_q0_residual": con.max_q0,
            "conservation.max_q1_residual": con.max_q1,
            **{f"figure_shape.{k}": v for k, v in self.shape_checks.items()},
        }.items()))

    def failed_checks(self) -> list:
        """Report keys, in report order, of each value not within its
        bound in :func:`verify.bounds` (NaN is not) and each False
        figure-shape check; a bound that the report lacks raises."""
        values = self.report()
        return [key for key, bound in verify.bounds(self.wall.h).items()
                if not values[key] <= bound] + [
            key for key, value in values.items() if value is False]

    def verification_passed(self) -> bool:
        return not self.failed_checks()


# The previous run of the sweep in progress as {key: result}, the key the
# repr of every config field but eps; None outside run_sweep.
_sweep_run = None


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """Geometry -> pressures -> expansion -> verification, in memory.

    eps enters no solve: it only scales the assembled solution and bounds
    the tube map.  So while :func:`run_sweep` runs, a case that differs
    from the sweep's previous run only in eps checks the map's
    invertibility at its own eps and returns that run with its own
    config.  A run that raised is not kept; outside a sweep every call
    computes afresh.
    """
    if _sweep_run is None:
        return _solve(cfg)
    # repr tells the bits of each float apart, -0.0 from 0.0 too
    key = repr({k: v for k, v in vars(cfg).items() if k != "eps"})
    kept = _sweep_run.get(key)
    if kept is not None:
        geometry.check_invertibility(cfg.eps, kept.curve, kept.wall)
        return replace(kept, config=cfg)
    _sweep_run.clear()
    _sweep_run[key] = result = _solve(cfg)
    return result


def _solve(cfg: RunConfig) -> PipelineResult:
    curve = cfg.build_curve()
    # a sampled curve brings its own length; the axis grid must span it
    if abs(curve.length - cfg.length) > 1e-12:
        raise ConfigurationError(
            f"geometry.length = {cfg.length!r} differs from the arc length "
            f"{curve.length!r} of the sampled curve")
    fluid = cfg.build_fluid()
    body = cfg.build_body()
    bc = cfg.build_bc()
    law = cfg.build_wall_law()

    s1 = np.linspace(0.0, cfg.length, cfg.n_s1)
    curvature = curve.curvature(s1)   # kappa, kappa', tau per node
    kappa = curvature[0]
    history = []

    # a steady run is one implicit step with dR/dt = 0 (dt None)
    dt = None if cfg.steady else cfg.dt
    n_steps = 1 if cfg.steady else int(round(cfg.t_end / cfg.dt))
    # only the wall is carried between steps; the pressures are read off
    # the final wall, with dt_dp0 = 0 on a first step
    wall = coupling.WallState.from_radius(s1, cfg.wall_R0)
    for step in range(n_steps):
        prev = wall if step else None
        wall = coupling.advance_time_step(wall, law, fluid, bc, dt)
        if dt is not None:
            history.append((wall.t, float(wall.R.max()), float(wall.R.min()),
                            *bc.p0_at(wall.t)))
    pexp = pressure.solve_pressures(wall, fluid, bc, kappa, body, prev, dt)

    # tube-map sanity for the configured eps
    geometry.check_invertibility(cfg.eps, curve, wall)

    # the terms verification reads, with the U^2 compatibility check, for
    # every node at once; full fields are built per station where read
    data = expansion.stations_from_grids(wall, pexp, curvature, fluid, body)
    terms = expansion.verification_terms(data, s1)
    stations = expansion.NodeStations(data)
    flow = verify.flow_rates(terms, wall.R)
    conservation = verify.check_mass_conservation(flow, wall, pexp, fluid)
    compatibility = verify.check_compatibility(wall, fluid, pexp, terms)
    mid = cfg.n_s1 // 2
    # the wall-rate trace sits at the same O(h^2) error as the u1 identity
    shape_checks = verify.figure_shape_checks(
        stations.fields(mid), stations[mid],
        wall_rate_tol=verify.bounds(wall.h)["compatibility.max_u1_residual"])
    return PipelineResult(
        config=cfg, curve=curve, wall=wall, pexp=pexp, stations=stations,
        flow=flow, conservation=conservation,
        compatibility=compatibility,
        shape_checks=shape_checks, history=history,
    )


# -- field sampling and export --------------------------------------------------

def sample_fields(fields: expansion.ExpansionFields, n_disc: int,
                  names) -> dict:
    """Tabulate disc fields on the polar grid of n_disc rings and
    2 n_disc sectors (:func:`~tubeflow.nodes.polar_grid`).

    Each name maps to a float array with one row per grid point: (z2, z3,
    value) for scalars, (z2, z3, v2, v3) for vectors.  The polynomials are
    evaluated as given: a pipeline run's fields already hold float
    coefficients.
    """
    _check("grid.n_disc", n_disc)
    _check("output.fields", tuple(names))
    _, _, z2, z3 = polar_grid(n_disc)
    out = {}
    for name in names:
        term = getattr(fields, name)
        polys = term if isinstance(term, tuple) else (term,)
        out[name] = np.column_stack(
            [z2, z3, *(z2.broadcast(p.evaluate(z2, z3)) for p in polys)])
    return out


@lru_cache(maxsize=None)
def _grid_text(n_disc):
    """The coordinate columns of ``polar_grid(n_disc)`` as CSV
    text: for each point, ``"%.17g,%.17g,"`` of (s2, s3) in the first
    tuple and of (z2, z3) in the second.  Cached as the grid is, so a
    process formats each coordinate once."""
    s2, s3, z2, z3 = polar_grid(n_disc)
    pair = f"{_FMT},{_FMT},"
    return (tuple(pair % p for p in zip(s2.tolist(), s3.tolist())),
            tuple(pair % p for p in zip(z2.tolist(), z3.tolist())))


def write_csv(path, header, rows, lead=None):
    """Header line, then each row: one value per column, 17 significant
    digits.

    ``lead``, if given, holds the ready text of each row's first columns,
    one string per row that ends in a comma (as :func:`_grid_text` gives
    the disc-grid coordinates); ``rows`` then hold the remaining columns
    only.  A row of the wrong length raises TypeError.  Rows of Python
    floats format fastest.  The body is built first and written in one
    call after the header, so the file takes two writes.
    """
    n_lead = lead[0].count(",") if lead else 0
    line = ",".join([_FMT] * (len(header) - n_lead)) + "\n"
    if lead is None:
        body = "".join([line % tuple(row) for row in rows])
    else:
        body = "".join([text + line % tuple(row)
                        for text, row in zip(lead, rows, strict=True)])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(body)


def _export_grids(result: PipelineResult, outdir: Path):
    pexp, wall, flow = result.pexp, result.wall, result.flow
    cols = [
        ("s1", wall.s1), ("R", wall.R), ("dR_ds1", pexp.dR_ds1),
        ("dR_dt", wall.dR_dt), ("p0", pexp.p0), ("dp0", pexp.dp0),
        ("d2p0", pexp.d2p0), ("d3p0", pexp.d3p0), ("dt_dp0", pexp.dt_dp0),
        ("p1", pexp.p1), ("dp1", pexp.dp1), ("d2p1", pexp.d2p1),
        ("p02", pexp.p02), ("dp02", pexp.dp02),
        ("Q0", flow.q0), ("Q1", flow.q1), ("Q2", flow.q2), ("A0", flow.area),
    ]
    # one row of Python floats at a time: whole columns of them would
    # outweigh the file
    rows = (r.tolist() for r in np.column_stack([c for _, c in cols]))
    write_csv(outdir / "grids.csv", [n for n, _ in cols], rows)


def _export_stations(result: PipelineResult, outdir: Path, order: int):
    """Disc samples, plots and the assembled solution per requested station.

    Each requested s1 resolves to the nearest grid node; every file of the
    station is evaluated there.  Each node is written once, in the order
    it is first requested.  The solution rows hold the world-frame
    velocity and the pressure of the expansion truncated at ``order``.
    """
    cfg, wall, pexp = result.config, result.wall, result.pexp
    _, _, z2, z3 = polar_grid(cfg.n_disc)
    polar, cartesian = _grid_text(cfg.n_disc)
    nodes = dict.fromkeys(int(np.argmin(np.abs(wall.s1 - target)))
                          for target in cfg.stations)
    for idx in nodes:
        tag = f"station{idx:04d}"
        f = result.stations.fields(idx)
        tables = sample_fields(f, cfg.n_disc, cfg.out_fields)
        for name, rows in tables.items():
            header = (["z2", "z3", name] if rows.shape[1] == 3
                      else ["z2", "z3", f"{name}_2", f"{name}_3"])
            write_csv(outdir / f"field_{name}_{tag}.csv", header,
                      rows[:, 2:].tolist(), lead=cartesian)
        for name in cfg.out_fields:
            term = getattr(f, name)
            title = f"{name} at s1 index {idx}"
            svg = (plotting.quiver_svg(*term, title=title)
                   if isinstance(term, tuple)
                   else plotting.heatmap_svg(term, title=title))
            (outdir / f"plot_{name}_{tag}.svg").write_text(svg)

        basis = result.curve.frame(float(wall.s1[idx]))
        u, p = expansion.truncated_solution(
            f, pexp.p0[idx], pexp.p1[idx], cfg.eps, order, z2, z3)
        # one (n, 3) product rotates every row as its own u @ basis would
        world = np.column_stack([z2.broadcast(c) for c in u]) @ basis
        rows = np.column_stack([world, z2.broadcast(p)])
        write_csv(outdir / f"solution_{tag}.csv",
                  ["s2", "s3", "ux", "uy", "uz", "p"], rows.tolist(),
                  lead=polar)


def _export_reports(result: PipelineResult, outdir: Path):
    report = {**result.report(),
              "verdict.passed": result.verification_passed()}
    (outdir / "verify_report.txt").write_text("".join(
        f"{key} = {value:.17g}\n" if isinstance(value, float)
        else f"{key} = {value}\n" for key, value in report.items()))

    con, comp = result.conservation, result.compatibility
    res0 = np.concatenate([[np.nan], con.residual_q0, [np.nan]])
    res1 = np.concatenate([[np.nan], con.residual_q1, [np.nan]])
    write_csv(outdir / "residuals.csv",
              ["s1", "mass_q0", "mass_q1", "compat_u1_lhs", "compat_u1_rhs",
               "g_integral"],
              np.column_stack([result.wall.s1, res0, res1, comp.u1_lhs,
                               comp.u1_rhs, comp.g_integral]).tolist())


def _export_meta(result: PipelineResult, outdir: Path):
    cfg = result.config
    lines = [f"{k} = {getattr(cfg, k)!r}" for k in sorted(vars(cfg))]
    (outdir / "run_meta.txt").write_text("\n".join(lines) + "\n")
    if result.history:
        write_csv(outdir / "history.csv",
                  ["t", "max_R", "min_R", "p0_inlet", "p0_outlet"],
                  np.array(result.history, dtype=float).tolist())


def export_bundle(result: PipelineResult, outdir, order: int = 2,
                  fields: bool = True, reports: bool = True) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if fields:
        _export_grids(result, outdir)
        _export_stations(result, outdir, order)
        _export_meta(result, outdir)
    if reports:
        _export_reports(result, outdir)


# -- sweep ----------------------------------------------------------------------

def run_sweep(cfg: RunConfig, outdir) -> int:
    """Steady rigid runs over a (kappa, tau, eps) grid; emits sweep.csv.

    Each (kappa, tau) curve is solved once: eps is the innermost loop and
    enters no solve, so each further eps of a curve checks the tube map's
    invertibility at its own eps and reuses the curve's run (see
    :func:`run_pipeline`).  A grid with no case is a ConfigurationError.
    Returns 2, after naming each failing case on stderr, when a case
    fails verification, else 0.
    """
    global _sweep_run
    kappas = cfg.sweep_kappa or (0.0, 0.5)
    taus = cfg.sweep_tau or (0.0,)
    epss = cfg.sweep_eps or (cfg.eps,)
    curves = []
    for kap in kappas:
        for tau in taus:
            if kap == 0.0 and tau != 0.0:
                continue  # a straight axis cannot carry torsion
            case = dict(steady=True, wall_law="rigid",
                        geometry_kind="straight")
            if kap != 0.0:
                denom = kap**2 + tau**2
                case.update(geometry_kind="helix", helix_a=kap / denom,
                            helix_b=tau / denom)
            curves.append((kap, tau, case))
    if not curves:
        raise ConfigurationError(
            f"the sweep grid has no case: sweep.kappa = "
            f"{', '.join(map(repr, kappas))} (a straight axis) takes only "
            f"tau = 0, and sweep.tau = {', '.join(map(repr, taus))} has no 0")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    rows, failures = [], []
    _sweep_run = {}
    try:
        for kap, tau, case in curves:
            failed = None
            for eps in epss:
                result = run_pipeline(replace(cfg, **case, eps=eps))
                if failed is None:
                    failed = result.failed_checks()  # eps enters no check
                if failed:
                    failures.append(f"kappa = {kap!r}, tau = {tau!r}, "
                                    f"eps = {eps!r}: {', '.join(failed)}")
                # the shape checks read the same mid station
                checks = result.shape_checks
                rows.append((kap, tau, eps,
                             result.flow.q0[cfg.n_s1 // 2],
                             checks["u1_1_skew_group"],
                             checks["U2_circulation_content"]))
    finally:
        _sweep_run = None
    write_csv(outdir / "sweep.csv",
              ["kappa", "tau", "eps", "Q0_mid", "u1_1_skew_group",
               "U2_circulation"], rows)
    for line in failures:
        print("verification failed: " + line, file=sys.stderr)
    return 2 if failures else 0


# -- entry point ------------------------------------------------------------------

def _tables_report(outdir=None) -> int:
    report = expansion.verify_coefficient_tables()
    lines = report.summary_lines()
    text = "\n".join(lines) + "\n"
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "tables_report.txt").write_text(text)
    sys.stdout.write(text)
    return 0 if report.all_match else 2


def _divergence_lines(exc):
    """The failing step's end time and the residual of each of its sweeps."""
    yield f"the failing wall step ends at t = {float(exc.t)!r}"
    yield f"residual (max |R_law - R|) of each of its {len(exc.history)} " \
          f"sweeps:"
    for sweep, resid in enumerate(exc.history, 1):
        yield f"  sweep {sweep}: {resid:.6e}"


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit 1: exit 2 is a failed verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Command(_Parser):
    """A subcommand's parser: it reports arguments it does not take with
    its own usage, which names its options, not with the top level's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def main(argv=None) -> int:
    parser = _Parser(
        prog="tubeflow",
        description="Reduced-order curved-pipe flow solver and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Command)
    for name in ("solve", "fields", "verify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        if name in ("solve", "fields"):  # they write the assembled solution
            p.add_argument("--order", type=int, choices=(0, 1, 2), default=2)
    p = sub.add_parser("tables")
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "tables":
            return _tables_report(args.out)
        cfg = RunConfig.from_file(args.config)
        if args.command == "sweep":
            return run_sweep(cfg, args.out)
        result = run_pipeline(cfg)
        # verify has no --order: it writes no solution
        export_bundle(result, args.out, order=getattr(args, "order", 2),
                      fields=args.command in ("solve", "fields"),
                      reports=args.command in ("solve", "verify"))
        if args.command == "fields":
            return 0
        failed = result.failed_checks()
        if failed:
            print("verification failed: " + ", ".join(failed), file=sys.stderr)
        return 2 if failed else 0
    except (TubeflowError, OSError) as exc:
        where = f" (config {args.config})" if getattr(args, "config", None) \
            else ""
        print(f"error [{type(exc).__name__}]{where}: {exc}", file=sys.stderr)
        if isinstance(exc, CouplingDivergenceError):
            for line in _divergence_lines(exc):
                print(line, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
