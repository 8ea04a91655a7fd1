"""Config ingestion, pipeline orchestration, field export, plot emission.

Configs are flat ``key = value`` text with dotted sections; ``_KEYS`` lists
the recognized keys.  All data files are written with 17 significant digits
and no timestamps, so identical configs produce byte-identical outputs.

Subcommands: ``solve`` (full pipeline), ``fields`` (sample/export only),
``verify`` (verification suites only), ``tables`` (secondary-flow
coefficient-table check), ``sweep`` (kappa/tau/eps parameter grid).
Exit codes: 0 success, 2 verification failure, 1 error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field as dc_field, make_dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import coupling, expansion, geometry, plotting, pressure, verify
from .errors import ConfigurationError, TubeflowError
from .polydisc import polar_grid

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


class _Key(NamedTuple):
    attr: str            # the RunConfig field the key sets
    default: object      # the field's default
    parse: object        # text -> value
    check: tuple = None  # on each value, or each of a tuple; None: see validate
    slot: int = None     # body.b1-b3 each set one slot of the body tuple


# Every config key, in the order of the RunConfig fields and of the checks.
_KEYS = {
    "geometry.kind": _Key("geometry_kind", "straight", str),
    "geometry.length": _Key("length", 1.0, float, _POSITIVE),
    "geometry.radius": _Key("arc_radius", 2.0, float, _POSITIVE),
    "geometry.a": _Key("helix_a", 3.0, float, _POSITIVE),
    "geometry.b": _Key("helix_b", 4.0, float, _FINITE),
    "geometry.file": _Key("curve_file", "", str),
    "geometry.direction": _Key("direction", (0.0, 0.0, 1.0), _floats),
    "eps": _Key("eps", 0.1, float, _POSITIVE),
    "fluid.rho0": _Key("rho0", 1.0, float, _POSITIVE),
    "fluid.nu": _Key("nu", 1.0, float, _POSITIVE),
    "wall.law": _Key("wall_law", "rigid", str),
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
    "body.b1": _Key("body", (0.0, 0.0, 0.0), float, _FINITE, 0),
    "body.b2": _Key("body", (0.0, 0.0, 0.0), float, _FINITE, 1),
    "body.b3": _Key("body", (0.0, 0.0, 0.0), float, _FINITE, 2),
    "grid.n_s1": _Key("n_s1", 64, int),
    "grid.n_disc": _Key("n_disc", 16, int),
    "time.steady": _Key("steady", True, lambda v: _FLAGS[v.lower()]),
    "time.t_end": _Key("t_end", 1.0, float),
    "time.dt": _Key("dt", 0.1, float),
    "output.fields": _Key(
        "out_fields", ("u1_0", "u1_1", "u1_2", "U1", "U2", "p2", "p3"),
        lambda v: _FIELD_NAMES if v == "all"
        else tuple(x.strip() for x in v.split(","))),
    "output.stations": _Key("stations", (0.5,), _floats),
    "sweep.kappa": _Key("sweep_kappa", (), _floats, _NON_NEGATIVE),
    "sweep.tau": _Key("sweep_tau", (), _floats, _FINITE),
    "sweep.eps": _Key("sweep_eps", (), _floats, _POSITIVE),
}


# one dataclass field per attribute; the body slots share one
class RunConfig(make_dataclass("_ConfigFields", [
        (key.attr, object, dc_field(default=key.default))
        for key in {key.attr: key for key in _KEYS.values()}.values()])):
    """Validated run description: one field per ``_KEYS`` attribute, with
    its default (see the shipped presets for examples)."""

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"config {path}: {exc}") from exc
        return cls.from_mapping(parse_config_text(text))

    @classmethod
    def from_mapping(cls, kv: dict) -> "RunConfig":
        cfg = cls()
        for key, text in kv.items():
            if key not in _KEYS:
                raise ConfigurationError(f"unknown config key {key!r}")
            attr, _, parse, _, slot = _KEYS[key]
            try:
                value = parse(text)
            except (TypeError, ValueError, KeyError) as exc:
                raise ConfigurationError(f"bad value for {key}: {text!r}") from exc
            except ConfigurationError as exc:  # e.g. a bad time series
                raise ConfigurationError(f"{key}: {exc}") from exc
            if slot is not None:
                value = (*getattr(cfg, attr)[:slot], value,
                         *getattr(cfg, attr)[slot + 1:])
            setattr(cfg, attr, value)
        cfg.validate()
        return cfg

    def validate(self):
        for key, (attr, _, _, check, slot) in _KEYS.items():
            if check is None:
                continue
            value = getattr(self, attr)
            if slot is not None:
                value = value[slot]
            must_be, ok = check
            for v in value if isinstance(value, tuple) else (value,):
                if not ok(v):
                    raise ConfigurationError(f"{key} = {v!r} must be {must_be}")
        if self.n_s1 < 8 or self.n_disc < 8:
            raise ConfigurationError("grids need at least 8 nodes")
        if self.geometry_kind not in ("straight", "circular-arc", "helix",
                                      "sampled"):
            raise ConfigurationError(f"unknown geometry {self.geometry_kind!r}")
        if self.geometry_kind == "sampled" and not self.curve_file:
            raise ConfigurationError(
                "geometry.kind = 'sampled' needs geometry.file")
        if self.wall_law not in ("rigid", "elastic"):
            raise ConfigurationError(f"unknown wall law {self.wall_law!r}")
        if len(self.direction) != 3 or not np.all(np.isfinite(self.direction)):
            raise ConfigurationError(f"geometry.direction {self.direction!r}"
                                     " needs 3 finite components")
        if not np.any(self.direction):
            raise ConfigurationError(f"geometry.direction {self.direction!r}"
                                     " must not be the zero vector")
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
                    f"output station {s1!r} outside [0, geometry.length ="
                    f" {self.length!r}]")
        for name in self.out_fields:
            if name not in _FIELD_NAMES:
                raise ConfigurationError(f"unknown output field {name!r}")

    # -- constructors for the model objects --------------------------------
    def build_curve(self) -> geometry.CenterCurve:
        if self.geometry_kind == "straight":
            return geometry.CenterCurve.straight(self.length, self.direction)
        if self.geometry_kind == "circular-arc":
            return geometry.CenterCurve.circular_arc(self.arc_radius, self.length)
        if self.geometry_kind == "helix":
            return geometry.CenterCurve.helix(self.helix_a, self.helix_b,
                                              self.length)
        return geometry.CenterCurve.from_file(self.curve_file)

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
        if self.wall_law == "rigid":
            return coupling.RigidWall()
        return coupling.ElasticWall(E=self.wall_E, h0=self.wall_h0,
                                    R0=self.wall_R0, p_e=self.wall_pe)


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

    def verification_passed(self) -> bool:
        return (
            max(self.pexp.residuals.values()) <= 1e-8
            and self.conservation.passed()
            and self.compatibility.passed()
            and all(v for k, v in self.shape_checks.items()
                    if isinstance(v, (bool, np.bool_)))
        )


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """Geometry -> pressures -> expansion -> verification, in memory."""
    cfg.validate()  # the step count below needs a valid time grid
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
        wall_rate_tol=compatibility.tol_u1)
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
    2 n_disc sectors (:func:`~tubeflow.polydisc.polar_grid`).

    Each name maps to a float array with one row per grid point: (z2, z3,
    value) for scalars, (z2, z3, v2, v3) for vectors.  The polynomials are
    evaluated as given: a pipeline run's fields already hold float
    coefficients.
    """
    if n_disc < 8:
        raise ConfigurationError("n_disc must be at least 8")
    _, _, z2, z3 = polar_grid(n_disc, 2 * n_disc)
    out = {}
    for name in names:
        if name not in _FIELD_NAMES:
            raise ConfigurationError(f"unknown field {name!r}")
        term = getattr(fields, name)
        polys = term if isinstance(term, tuple) else (term,)
        out[name] = np.column_stack(
            [z2, z3, *(z2.broadcast(p.evaluate(z2, z3)) for p in polys)])
    return out


def write_csv(path, header, rows):
    """Header line, then each row: one value per column, 17 significant
    digits."""
    line = ",".join([_FMT] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def read_field_csv(path):
    """Re-ingest an exported field file; returns (header, rows array)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _export_grids(result: PipelineResult, outdir: Path):
    pexp, wall, flow = result.pexp, result.wall, result.flow
    cols = [
        ("s1", wall.s1), ("R", wall.R), ("dR_ds1", wall.dR_ds1),
        ("dR_dt", wall.dR_dt), ("p0", pexp.p0), ("dp0", pexp.dp0),
        ("d2p0", pexp.d2p0), ("d3p0", pexp.d3p0), ("dt_dp0", pexp.dt_dp0),
        ("p1", pexp.p1), ("dp1", pexp.dp1), ("d2p1", pexp.d2p1),
        ("p02", pexp.p02), ("dp02", pexp.dp02),
        ("Q0", flow.q0), ("Q1", flow.q1), ("Q2", flow.q2), ("A0", flow.area),
    ]
    rows = zip(*(c for _, c in cols))
    write_csv(outdir / "grids.csv", [n for n, _ in cols], rows)


def _export_stations(result: PipelineResult, outdir: Path, order: int):
    """Disc samples, plots and the assembled solution per requested station.

    Each requested s1 resolves to the nearest grid node; every file of the
    station is evaluated there.  The solution rows hold the world-frame
    velocity and the pressure of the expansion truncated at ``order``.
    """
    cfg, wall, pexp = result.config, result.wall, result.pexp
    s2, s3, z2, z3 = polar_grid(cfg.n_disc, 2 * cfg.n_disc)
    for target in cfg.stations:
        idx = int(np.argmin(np.abs(wall.s1 - target)))
        tag = f"station{idx:04d}"
        f = result.stations.fields(idx)
        tables = sample_fields(f, cfg.n_disc, cfg.out_fields)
        for name, rows in tables.items():
            header = (["z2", "z3", name] if rows.shape[1] == 3
                      else ["z2", "z3", f"{name}_2", f"{name}_3"])
            write_csv(outdir / f"field_{name}_{tag}.csv", header,
                      rows.tolist())
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
        rows = np.column_stack([s2, s3, world, z2.broadcast(p)])
        write_csv(outdir / f"solution_{tag}.csv",
                  ["s2", "s3", "ux", "uy", "uz", "p"], rows.tolist())


def _export_reports(result: PipelineResult, outdir: Path):
    con, comp = result.conservation, result.compatibility
    lines = verify.report_key_values(
        bvp_residuals={k: float(v) for k, v in result.pexp.residuals.items()},
        conservation={"max_q0_residual": con.max_q0,
                      "max_q1_residual": con.max_q1},
        compatibility={"max_u1_residual": comp.max_u1_residual,
                       "max_g_integral": comp.max_g_integral},
        figure_shape={k: v for k, v in result.shape_checks.items()},
        verdict={"passed": result.verification_passed()},
    )
    (outdir / "verify_report.txt").write_text("\n".join(lines) + "\n")

    res0 = np.concatenate([[np.nan], con.residual_q0, [np.nan]])
    res1 = np.concatenate([[np.nan], con.residual_q1, [np.nan]])
    write_csv(outdir / "residuals.csv",
              ["s1", "mass_q0", "mass_q1", "compat_u1_lhs", "compat_u1_rhs",
               "g_integral"],
              zip(result.wall.s1, res0, res1, comp.u1_lhs, comp.u1_rhs,
                  comp.g_integral))


def _export_meta(result: PipelineResult, outdir: Path):
    cfg = result.config
    lines = [f"{k} = {getattr(cfg, k)!r}" for k in sorted(vars(cfg))]
    (outdir / "run_meta.txt").write_text("\n".join(lines) + "\n")
    if result.history:
        write_csv(outdir / "history.csv",
                  ["t", "max_R", "min_R", "p0_inlet", "p0_outlet"],
                  result.history)


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
    """Steady rigid runs over a (kappa, tau, eps) grid; emits sweep.csv."""
    kappas = cfg.sweep_kappa or (0.0, 0.5)
    taus = cfg.sweep_tau or (0.0,)
    epss = cfg.sweep_eps or (cfg.eps,)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    for kap in kappas:
        for tau in taus:
            if kap == 0.0 and tau != 0.0:
                continue  # a straight axis cannot carry torsion
            sub = replace(cfg, steady=True, wall_law="rigid",
                          geometry_kind="straight")
            if kap != 0.0:
                denom = kap**2 + tau**2
                sub = replace(sub, geometry_kind="helix", helix_a=kap / denom,
                              helix_b=tau / denom)
            for eps in epss:
                sub.eps = eps
                result = run_pipeline(sub)
                # the shape checks read the same mid station
                checks = result.shape_checks
                rows.append((kap, tau, eps,
                             result.flow.q0[sub.n_s1 // 2],
                             checks["u1_1_skew_group"],
                             checks["U2_circulation_content"]))
    write_csv(outdir / "sweep.csv",
              ["kappa", "tau", "eps", "Q0_mid", "u1_1_skew_group",
               "U2_circulation"], rows)
    return 0


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tubeflow",
        description="Reduced-order curved-pipe flow solver and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "fields", "verify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--order", type=int, choices=(0, 1, 2), default=2)
        p.add_argument("--steady", action="store_true",
                       help="force steady mode regardless of the config")
    p = sub.add_parser("tables")
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "tables":
            return _tables_report(args.out)
        cfg = RunConfig.from_file(args.config)
        if args.steady:
            cfg.steady = True
        if args.command == "sweep":
            return run_sweep(cfg, args.out)
        result = run_pipeline(cfg)
        export_bundle(result, args.out, order=args.order,
                      fields=args.command in ("solve", "fields"),
                      reports=args.command in ("solve", "verify"))
        if args.command == "fields":
            return 0
        return 0 if result.verification_passed() else 2
    except (TubeflowError, OSError) as exc:
        where = f" (config {args.config})" if getattr(args, "config", None) \
            else ""
        print(f"error [{type(exc).__name__}]{where}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
