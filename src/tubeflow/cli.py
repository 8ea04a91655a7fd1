"""Config ingestion, pipeline orchestration, field export, plot emission.

Configs are flat ``key = value`` text with dotted sections; see
:class:`RunConfig` for the recognized keys.  All data files are written
with 17 significant digits and no timestamps, so identical configs produce
byte-identical outputs.

Subcommands: ``solve`` (full pipeline), ``fields`` (sample/export only),
``verify`` (verification suites only), ``tables`` (secondary-flow
coefficient-table check), ``sweep`` (kappa/tau/eps parameter grid).
Exit codes: 0 success, 2 verification failure, 1 error.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import coupling, expansion, geometry, plotting, pressure, verify
from .errors import ConfigurationError, TubeflowError
from .polydisc import PointPowers

_FMT = "%.17g"

# ExpansionFields terms that can be exported; tuples are vector fields.
_FIELD_NAMES = ("u1_0", "u1_1", "u1_2", "p2", "p3", "g", "U1", "U2", "F", "W")


# -- config ------------------------------------------------------------------

def parse_config_text(text: str) -> dict:
    """Flat dotted-key config: one ``key = value`` per line, # comments."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _floats(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_bc_entry(text):
    """Scalar, or a 't:value' comma list for a time series."""
    if ":" in text:
        pairs = [item.split(":") for item in text.split(",")]
        times = tuple(float(t) for t, _ in pairs)
        values = tuple(float(v) for _, v in pairs)
        return pressure.TimeSeries(times, values)
    return float(text)


@dataclass
class RunConfig:
    """Validated run description (see the shipped presets for examples)."""

    geometry_kind: str = "straight"
    length: float = 1.0
    arc_radius: float = 2.0
    helix_a: float = 3.0
    helix_b: float = 4.0
    curve_file: str = ""
    direction: tuple = (0.0, 0.0, 1.0)
    eps: float = 0.1
    rho0: float = 1.0
    nu: float = 1.0
    wall_law: str = "rigid"
    wall_R0: float = 1.0
    wall_E: float = 1e5
    wall_h0: float = 0.01
    wall_pe: float = 0.0
    bc_p0_inlet: object = 1.0
    bc_p0_outlet: object = 0.0
    bc_p1_inlet: float = 0.0
    bc_p1_outlet: float = 0.0
    bc_p02_inlet: float = 0.0
    bc_p02_outlet: float = 0.0
    body: tuple = (0.0, 0.0, 0.0)
    n_s1: int = 64
    n_disc: int = 16
    steady: bool = True
    t_end: float = 1.0
    dt: float = 0.1
    out_fields: tuple = ("u1_0", "u1_1", "u1_2", "U1", "U2", "p2", "p3")
    stations: tuple = (0.5,)
    sweep_kappa: tuple = ()
    sweep_tau: tuple = ()
    sweep_eps: tuple = ()

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        kv = parse_config_text(Path(path).read_text())
        return cls.from_mapping(kv)

    @classmethod
    def from_mapping(cls, kv: dict) -> "RunConfig":
        cfg = cls()
        known = {
            "geometry.kind": ("geometry_kind", str),
            "geometry.length": ("length", float),
            "geometry.radius": ("arc_radius", float),
            "geometry.a": ("helix_a", float),
            "geometry.b": ("helix_b", float),
            "geometry.file": ("curve_file", str),
            "geometry.direction": ("direction", lambda v: tuple(_floats(v))),
            "eps": ("eps", float),
            "fluid.rho0": ("rho0", float),
            "fluid.nu": ("nu", float),
            "wall.law": ("wall_law", str),
            "wall.R0": ("wall_R0", float),
            "wall.E": ("wall_E", float),
            "wall.h0": ("wall_h0", float),
            "wall.p_e": ("wall_pe", float),
            "bc.p0.inlet": ("bc_p0_inlet", _parse_bc_entry),
            "bc.p0.outlet": ("bc_p0_outlet", _parse_bc_entry),
            "bc.p1.inlet": ("bc_p1_inlet", float),
            "bc.p1.outlet": ("bc_p1_outlet", float),
            "bc.p02.inlet": ("bc_p02_inlet", float),
            "bc.p02.outlet": ("bc_p02_outlet", float),
            "body.b1": None, "body.b2": None, "body.b3": None,
            "grid.n_s1": ("n_s1", int),
            "grid.n_disc": ("n_disc", int),
            "time.steady": ("steady", lambda v: v.lower() in ("1", "true", "yes")),
            "time.t_end": ("t_end", float),
            "time.dt": ("dt", float),
            "output.fields": ("out_fields",
                              lambda v: tuple(x.strip() for x in v.split(","))
                              if v != "all" else _FIELD_NAMES),
            "output.stations": ("stations", lambda v: tuple(_floats(v))),
            "sweep.kappa": ("sweep_kappa", lambda v: tuple(_floats(v))),
            "sweep.tau": ("sweep_tau", lambda v: tuple(_floats(v))),
            "sweep.eps": ("sweep_eps", lambda v: tuple(_floats(v))),
        }
        body = list(cfg.body)
        for key, value in kv.items():
            if key not in known:
                raise ConfigurationError(f"unknown config key {key!r}")
            try:
                if key.startswith("body."):
                    body["b1 b2 b3".split().index(key.split(".")[1])] = float(value)
                else:
                    attr, conv = known[key]
                    setattr(cfg, attr, conv(value))
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"bad value for {key}: {value!r}") from exc
            except ConfigurationError as exc:  # e.g. a bad time series
                raise ConfigurationError(f"{key}: {exc}") from exc
        cfg.body = tuple(body)
        cfg.validate()
        return cfg

    def validate(self):
        for key, value in [("eps", self.eps), ("fluid.rho0", self.rho0),
                           ("fluid.nu", self.nu), ("wall.R0", self.wall_R0),
                           ("wall.E", self.wall_E), ("wall.h0", self.wall_h0),
                           ("geometry.length", self.length),
                           ("geometry.radius", self.arc_radius),
                           ("geometry.a", self.helix_a),
                           *(("sweep.eps", e) for e in self.sweep_eps)]:
            if not (np.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"{key} = {value!r} must be finite and positive")
        for key, value in [("wall.p_e", self.wall_pe),
                           ("geometry.b", self.helix_b),
                           *((f"body.b{k}", b)
                             for k, b in enumerate(self.body, 1)),
                           ("bc.p1.inlet", self.bc_p1_inlet),
                           ("bc.p1.outlet", self.bc_p1_outlet),
                           ("bc.p02.inlet", self.bc_p02_inlet),
                           ("bc.p02.outlet", self.bc_p02_outlet),
                           # a time series checks its own values
                           *((k, v) for k, v in
                             [("bc.p0.inlet", self.bc_p0_inlet),
                              ("bc.p0.outlet", self.bc_p0_outlet)]
                             if not callable(v)),
                           *(("sweep.tau", t) for t in self.sweep_tau)]:
            if not np.isfinite(value):
                raise ConfigurationError(f"{key} = {value!r} must be finite")
        for kappa in self.sweep_kappa:
            if not (np.isfinite(kappa) and kappa >= 0):
                raise ConfigurationError(
                    f"sweep.kappa = {kappa!r} must be finite and non-negative")
        if self.n_s1 < 8 or self.n_disc < 8:
            raise ConfigurationError("grids need at least 8 nodes")
        if self.geometry_kind not in ("straight", "circular-arc", "helix",
                                      "sampled"):
            raise ConfigurationError(f"unknown geometry {self.geometry_kind!r}")
        if self.wall_law not in ("rigid", "elastic"):
            raise ConfigurationError(f"unknown wall law {self.wall_law!r}")
        if len(self.direction) != 3 or not np.all(np.isfinite(self.direction)):
            raise ConfigurationError(f"geometry.direction {self.direction!r}"
                                     " needs 3 finite components")
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
    stations: expansion.NodeStations   # scalar StationData per node
    fields: Sequence   # ExpansionFields per station, built on first read
    flow: verify.FlowRates
    conservation: verify.ConservationReport
    compatibility: verify.CompatibilityReport
    residuals: dict
    shape_checks: dict
    history: list = dc_field(default_factory=list)

    def verification_passed(self) -> bool:
        return (
            max(self.residuals.values()) <= 1e-8
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
    frames = curve.frames(s1)
    kappa = np.array([fr.curvature for fr in frames])
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
    data = expansion.stations_from_grids(wall, pexp, frames, fluid, body)
    terms = expansion.verification_terms(data, s1)
    stations = expansion.NodeStations(data)
    fields = expansion.StationFields(stations)
    flow = verify.flow_rates(terms, wall.R)
    conservation = verify.check_mass_conservation(flow, wall, pexp, fluid)
    compatibility = verify.check_compatibility(wall, fluid, pexp, terms)
    residuals = verify.pressure_residuals(wall, fluid, pexp, kappa, body)
    mid = cfg.n_s1 // 2
    # the wall-rate trace sits at the same O(h^2) error as the u1 identity
    shape_checks = verify.figure_shape_checks(
        fields[mid], stations[mid], wall_rate_tol=compatibility.tol_u1)
    return PipelineResult(
        config=cfg, curve=curve, wall=wall, pexp=pexp, stations=stations,
        fields=fields, flow=flow, conservation=conservation,
        compatibility=compatibility, residuals=residuals,
        shape_checks=shape_checks, history=history,
    )


# -- field sampling and export --------------------------------------------------

@lru_cache(maxsize=None)
def _disc_grid(n_disc: int) -> tuple:
    """(s2, s3, z2, z3) of the polar product grid on the unit disc.

    Radii are half-offset ((i + 1/2) / n) so the axis point, where the
    angle is ambiguous, is never sampled.  s2 and s3 are float arrays,
    z2 and z3 :class:`~tubeflow.polydisc.PointPowers`, so one
    ``evaluate`` tabulates a polynomial on the whole grid.
    """
    grid = []
    for i in range(n_disc):
        s3 = (i + 0.5) / n_disc
        for j in range(2 * n_disc):
            s2 = np.pi * j / n_disc
            grid.append((s2, s3, float(s3 * np.cos(s2)),
                         float(s3 * np.sin(s2))))
    s2, s3, z2, z3 = zip(*grid)
    return (np.array(s2), np.array(s3), PointPowers(z2), PointPowers(z3))


def sample_fields(fields: expansion.ExpansionFields, n_disc: int,
                  names=None) -> dict:
    """Tabulate disc fields on the polar grid of :func:`_disc_grid`.

    Each name maps to a float array with one row per grid point: (z2, z3,
    value) for scalars, (z2, z3, v2, v3) for vectors.  The polynomials are
    evaluated as given: a pipeline run's fields already hold float
    coefficients.
    """
    if n_disc < 8:
        raise ConfigurationError("n_disc must be at least 8")
    _, _, z2, z3 = _disc_grid(n_disc)
    out = {}
    for name in names or _FIELD_NAMES:
        if name not in _FIELD_NAMES:
            raise ConfigurationError(f"unknown field {name!r}")
        term = getattr(fields, name)
        polys = term if isinstance(term, tuple) else (term,)
        out[name] = np.column_stack(
            [z2.values, z3.values,
             *(z2.broadcast(p.evaluate(z2, z3)) for p in polys)])
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
    s2, s3, z2, z3 = _disc_grid(cfg.n_disc)
    for target in cfg.stations:
        idx = int(np.argmin(np.abs(wall.s1 - target)))
        tag = f"station{idx:04d}"
        f = result.fields[idx]
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

        basis = result.curve.frame(float(wall.s1[idx])).basis_matrix()
        u, p = expansion.truncated_solution(
            f, pexp.p0[idx], pexp.p1[idx], cfg.eps, order, z2, z3)
        # one (n, 3) product rotates every row as its own u @ basis would
        world = np.column_stack([z2.broadcast(c) for c in u]) @ basis
        rows = np.column_stack([s2, s3, world, z2.broadcast(p)])
        write_csv(outdir / f"solution_{tag}.csv",
                  ["s2", "s3", "ux", "uy", "uz", "p"], rows.tolist())


def _export_reports(result: PipelineResult, outdir: Path):
    con, comp, res = result.conservation, result.compatibility, result.residuals
    lines = verify.report_key_values(
        bvp_residuals={k: float(v) for k, v in res.items()},
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
            sub = RunConfig(**{**vars(cfg)})
            sub.steady = True
            sub.wall_law = "rigid"
            if kap == 0.0:
                sub.geometry_kind = "straight"
            else:
                denom = kap**2 + tau**2
                sub.geometry_kind = "helix"
                sub.helix_a = kap / denom
                sub.helix_b = tau / denom
            for eps in epss:
                sub.eps = eps
                result = run_pipeline(sub)
                mid = sub.n_s1 // 2
                f = result.fields[mid]
                circ = verify.cos_mode_content(
                    verify.azimuthal_polynomial(*f.U2))
                rows.append((
                    kap, tau, eps,
                    result.flow.q0[mid],
                    float(f.u1_1.coeff(3, 0)),
                    circ,
                ))
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
