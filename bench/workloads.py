"""Inputs, passes and output checks of the four benchmark workloads.

Inputs come only from the seed: ``make_inputs`` draws the physical values
from fixed ranges around the shipped presets with the standard library
alone, so the same seed gives the same configs and stations in any
interpreter.  Grid sizes and step counts never depend on the seed.

tubeflow is imported lazily inside the functions, so that a fresh
interpreter can time the import as part of set-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import shutil
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("solve_helix", "pulse_elastic", "sweep_helix", "exact_verify")

# Inputs of this seed are the ones whose output digests are stored.
DEFAULT_SEED = 0

EXACT_STATIONS = 48


@dataclass
class PassResult:
    """Outcome of one workload pass: its time and its operations."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)


# -- inputs -------------------------------------------------------------------

def _uniform(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def _config_text(entries):
    return "".join(f"{k} = {v}\n" for k, v in entries.items())


def _helix_entries(rng):
    """helix_swirl with the pressure drop, fluid and helix drawn."""
    # a in [1.5, 1.7], b in [0.7, 0.9]: kappa = a / (a^2 + b^2) <= 0.6, so
    # eps * max(kappa R) stays near 0.03, far inside the invertible range.
    return {
        "geometry.kind": "helix",
        "geometry.a": _uniform(rng, 1.5, 1.7),
        "geometry.b": _uniform(rng, 0.7, 0.9),
        "geometry.length": 1.0,
        "eps": 0.05,
        "fluid.rho0": _uniform(rng, 0.95, 1.05),
        "fluid.nu": _uniform(rng, 0.9, 1.1),
        "wall.law": "rigid",
        "wall.R0": 1.0,
        "bc.p0.inlet": _uniform(rng, 0.8, 1.2),
        "bc.p0.outlet": 0.0,
        "grid.n_disc": 16,
        "time.steady": "true",
    }


def _solve_helix(rng, smoke):
    entries = _helix_entries(rng)
    entries["grid.n_s1"] = 65 if smoke else 1025
    entries["output.stations"] = "0.5" if smoke else "0.25, 0.5, 0.75"
    return {"config": _config_text(entries)}


def _pulse_elastic(rng, smoke):
    """elastic_pulse with the pulse amplitude drawn.

    The amplitude comes from a 0.05 grid on [7.5, 8.5], every point of
    which converges at the preset's E = 2e3.  The coupling fixed point is
    fragile nearby (nu = 0.973562 with amplitude 7.794448 diverges at step
    78); that robustness defect belongs to the tests, not to this workload.
    """
    amp = 7.5 + 0.05 * rng.randint(0, 20)
    entries = {
        "geometry.kind": "straight",
        "geometry.length": 1.0,
        "eps": 0.05,
        "fluid.rho0": 1.0,
        "fluid.nu": 1.0,
        "wall.law": "elastic",
        "wall.R0": 1.0,
        "wall.E": 2e3,
        "wall.h0": 0.1,
        "wall.p_e": 0.0,
        "bc.p0.inlet": f"0:0, 0.2:{amp:.2f}, 0.4:0, 1:0",
        "bc.p0.outlet": 0.0,
        "grid.n_s1": 33 if smoke else 257,
        "grid.n_disc": 16,
        "time.steady": "false",
        "time.t_end": 1.0,
        "time.dt": 0.05 if smoke else 0.0025,
        "output.stations": 0.5,
    }
    return {"config": _config_text(entries)}


def _sweep_helix(rng, smoke):
    entries = _helix_entries(rng)
    entries["grid.n_s1"] = 65
    entries["output.stations"] = 0.5
    if smoke:
        entries.update({"sweep.kappa": "0, 0.5", "sweep.tau": "0, 0.25",
                        "sweep.eps": "0.05"})
    else:
        entries.update({"sweep.kappa": "0, 0.25, 0.5, 1",
                        "sweep.tau": "0, 0.25, 0.5",
                        "sweep.eps": "0.0125, 0.025, 0.05, 0.1"})
    return {"config": _config_text(entries)}


def _rational(rng, lo, hi):
    """Nonzero rational in [lo, hi] with a small denominator."""
    den = rng.randint(2, 13)
    while True:
        num = rng.randint(int(lo * den), int(hi * den))
        if num:
            return Fraction(num, den)


def exact_station_values(rng):
    """Rational station data satisfying the model's solvability relations.

    As in the test suite's exact station: d2p1 follows from dp1 (the
    first-correction pressure relation) and the wall rate from the
    leading-order compatibility identity, so every boundary trace and
    divergence integral is exactly consistent.
    """
    v = {
        "rho0": _rational(rng, 0.5, 2), "nu": _rational(rng, 0.25, 2),
        "R": _rational(rng, 0.5, 2), "dR": _rational(rng, -1, 1),
        "d2R": _rational(rng, -1, 1), "kappa": _rational(rng, 0.1, 1),
        "dkappa": _rational(rng, -1, 1), "tau": _rational(rng, -1, 1),
        "dp0": _rational(rng, -2, -0.1), "d2p0": _rational(rng, -1, 1),
        "d3p0": _rational(rng, -1, 1), "dt_dp0": _rational(rng, -1, 1),
        "dp1": _rational(rng, -1, 1), "p02": _rational(rng, -1, 1),
        "dp02": _rational(rng, -1, 1), "b1": _rational(rng, -1, 1),
        "b2": _rational(rng, -1, 1), "b3": _rational(rng, -1, 1),
    }
    v["d2p1"] = -4 * v["dR"] * v["dp1"] / v["R"]
    d_r2dp0 = 2 * v["R"] * v["dR"] * v["dp0"] + v["R"] ** 2 * v["d2p0"]
    v["Rdot"] = (v["R"] / (16 * v["rho0"] * v["nu"])
                 * (2 * d_r2dp0 - v["R"] ** 2 * v["d2p0"]))
    return v


def _exact_verify(rng, smoke):
    n = 1 if smoke else EXACT_STATIONS
    return {"stations": [exact_station_values(rng) for _ in range(n)]}


_MAKERS = {"solve_helix": _solve_helix, "pulse_elastic": _pulse_elastic,
           "sweep_helix": _sweep_helix, "exact_verify": _exact_verify}


def make_inputs(workload, seed, smoke=False):
    """The workload's inputs for ``seed`` (reduced sizes with ``smoke``)."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"), smoke)


# -- set-up -------------------------------------------------------------------

def setup(workload, inputs):
    """Import tubeflow, parse the config and build the model objects.

    Everything up to the first solver call; returns what a pass needs.
    """
    if workload == "exact_verify":
        from tubeflow import StationData
        return [StationData(**v) for v in inputs["stations"]]
    from tubeflow import cli
    cfg = cli.RunConfig.from_mapping(cli.parse_config_text(inputs["config"]))
    cfg.build_curve()
    cfg.build_fluid()
    cfg.build_body()
    cfg.build_bc()
    cfg.build_wall_law()
    return cfg


# -- passes -------------------------------------------------------------------

def run_pass(workload, state, outdir):
    """One pass of the workload into an emptied ``outdir``; checks outputs."""
    outdir = Path(outdir)
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    if workload == "exact_verify":
        result = _exact_pass(state, outdir)
    elif workload == "sweep_helix":
        result = _sweep_pass(state, outdir)
    else:
        result = _solve_pass(state, outdir)
    result.digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(outdir.iterdir())}
    return result


def _solve_pass(cfg, outdir):
    """``tubeflow solve``: run_pipeline plus export_bundle."""
    from tubeflow import cli
    from tubeflow.errors import TubeflowError

    r = PassResult(attempted=1)
    t0 = time.perf_counter()
    try:
        result = cli.run_pipeline(cfg)
        cli.export_bundle(result, outdir, order=2)
    except TubeflowError as exc:  # CouplingDivergenceError among them
        r.fail(f"pipeline: {type(exc).__name__}: {exc}")
        return r
    finally:
        r.seconds = time.perf_counter() - t0
    if not result.verification_passed():
        r.fail("pipeline: verification_passed() is False")
    return r


def sweep_cases(cfg):
    """Number of pipeline runs ``run_sweep`` makes for this config."""
    pairs = [(k, t) for k in cfg.sweep_kappa for t in cfg.sweep_tau
             if not (k == 0.0 and t != 0.0)]
    return len(pairs) * len(cfg.sweep_eps)


def _sweep_pass(cfg, outdir):
    """``tubeflow sweep``; each case's verdict is read as it finishes."""
    from tubeflow import cli
    from tubeflow.errors import TubeflowError

    cases = sweep_cases(cfg)
    r = PassResult(attempted=cases)
    verdicts = []
    run_pipeline = cli.run_pipeline

    def checked(sub):
        result = run_pipeline(sub)
        verdicts.append(result.verification_passed())
        return result

    cli.run_pipeline = checked
    t0 = time.perf_counter()
    try:
        cli.run_sweep(cfg, outdir)
    except TubeflowError as exc:
        r.problems.append(f"sweep: {type(exc).__name__}: {exc}")
    finally:
        r.seconds = time.perf_counter() - t0
        cli.run_pipeline = run_pipeline
    if len(verdicts) > cases:
        r.fail(f"sweep: {len(verdicts)} pipeline runs, expected {cases}")
    # a case that raised or was never reached has no verdict
    bad = max(0, cases - sum(verdicts))
    r.failed += bad
    if bad:
        r.problems.append(f"sweep: {bad} of {cases} cases failed")
    return r


def exact_residuals(sd, f):
    """Exact residual identities of one station's fields: name -> holds.

    Each closed form must satisfy its defining Poisson/Stokes problem and
    boundary condition with an identically zero polynomial residual.
    """
    from tubeflow.expansion import (U1_divergence_data, build_U2_rhs,
                                    u1_1_problem_rhs, u1_2_problem_rhs)
    from tubeflow.polydisc import (DiscPoly, TrigSeries, divergence, gradient,
                                   laplacian, restrict_to_boundary)

    fluid = sd.fluid
    scale = sd.R / (sd.rho0 * sd.nu)
    gp2, gp3 = gradient(f.p2), gradient(f.p3)
    (f2, f3), g = build_U2_rhs(sd)
    return {
        "u1_0 interior": laplacian(f.u1_0) == DiscPoly.constant(
            sd.R**2 * sd.dp0 / (sd.rho0 * sd.nu)),
        "u1_0 trace": restrict_to_boundary(f.u1_0).is_zero(),
        "u1_1 interior": laplacian(f.u1_1) == u1_1_problem_rhs(
            sd.R, sd.kappa, fluid, sd.dp0, sd.dp1),
        "u1_1 trace": restrict_to_boundary(f.u1_1).is_zero(),
        "U1 momentum": (laplacian(f.U1[0]) == gp2[0] * scale
                        and laplacian(f.U1[1]) == gp2[1] * scale),
        "U1 divergence": divergence(*f.U1) == U1_divergence_data(
            sd.R, sd.dR, fluid, sd.dp0, sd.d2p0),
        # the wall moves radially at Rdot: U1 = Rdot (cos s2, sin s2) there
        "U1 trace": (restrict_to_boundary(f.U1[0])
                     == TrigSeries({1: [sd.Rdot, 0]})
                     and restrict_to_boundary(f.U1[1])
                     == TrigSeries({1: [0, sd.Rdot]})),
        "u1_2 interior": laplacian(f.u1_2) == u1_2_problem_rhs(sd),
        "u1_2 trace": restrict_to_boundary(f.u1_2).is_zero(),
        "U2 momentum": ((laplacian(f.U2[0]) - gp3[0] * scale - f2).is_zero()
                        and (laplacian(f.U2[1]) - gp3[1] * scale - f3).is_zero()),
        "U2 divergence": divergence(*f.U2) == g,
        "U2 trace": (restrict_to_boundary(f.U2[0]).is_zero()
                     and restrict_to_boundary(f.U2[1]).is_zero()),
    }


IDENTITIES = 12


def _exact_pass(stations, outdir):
    """Table re-derivation, then exact stations and their residuals."""
    from tubeflow import expansion
    from tubeflow.errors import TubeflowError

    r = PassResult()
    t0 = time.perf_counter()
    report = expansion.verify_coefficient_tables()
    outcomes = []
    for sd in stations:
        try:
            f = expansion.evaluate_station(sd)
        except TubeflowError as exc:
            outcomes.append((None, f"{type(exc).__name__}: {exc}"))
            continue
        outcomes.append((f, exact_residuals(sd, f)))
    r.seconds = time.perf_counter() - t0

    r.attempted += 1
    if not report.all_match:
        r.fail("coefficient tables: mismatch with the re-derivation")
    lines = []
    for k, (f, checks) in enumerate(outcomes):
        if f is None:
            r.attempted += IDENTITIES
            r.failed += IDENTITIES
            r.problems.append(f"station {k}: {checks}")
            continue
        for name, holds in checks.items():
            r.attempted += 1
            if not holds:
                r.fail(f"station {k}: non-zero exact residual in {name}")
        lines += [f"station {k} {fld.name} = {getattr(f, fld.name)!r}"
                  for fld in dataclasses.fields(f)]
    (outdir / "tables_report.txt").write_text(
        "\n".join(report.summary_lines()) + "\n")
    (outdir / "exact_fields.txt").write_text("\n".join(lines) + "\n")
    return r


# -- behaviour lock -----------------------------------------------------------

def check_files(result, expected, reference):
    """Count each written file as an operation and check its sha256.

    ``expected`` names the files a pass must write; ``reference`` maps
    names to the digests they must have (stored ones, or the previous
    pass's), or is None when there is nothing to compare against.
    """
    for name in sorted(set(expected) | set(result.digests)):
        result.attempted += 1
        got = result.digests.get(name)
        if got is None:
            result.fail(f"{name}: not written")
        elif name not in expected:
            result.fail(f"{name}: unexpected file")
        elif reference is not None and reference.get(name) != got:
            result.fail(f"{name}: sha256 differs from the reference")
