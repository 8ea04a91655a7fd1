"""Benchmark of the tubeflow solver: one command, every metric, every check.

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs building):

    python3 bench/run.py --workload solve_helix --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke            # reduced-size self-check
    python3 bench/run.py --update-digests   # re-record the behaviour lock

With ``--trace 0`` a run measures the end-to-end metrics with tracing off:
``run_s`` (median wall time of one workload pass), ``setup_s`` (median
over fresh interpreters of importing tubeflow, parsing the config and
building the model objects) and ``peak_rss_mb`` (peak resident memory of
a fresh interpreter that sets up and makes one pass).  Both times are
scaled to a reference CPU speed (see ``CALIBRATION_REF_S``); the summary
also prints the unscaled wall times.  That one pass runs
the default-seed inputs and checks its files against ``digests.json``,
the behaviour lock.  With ``--trace 1`` a run makes untraced and then
traced passes and reports the per-layer metrics of ``tracing.py``.  Every
output of every pass is checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed /
attempted`` is the run's failure ratio.  See NOTES.md for the rationale.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

SETUP_RUNS = 5       # fresh interpreters per run; setup_s is their median
# Time of ``calibrate()`` at the reference CPU speed.  Shared cloud vCPUs
# change speed by up to 2x over seconds to minutes when other tenants load
# the same cores, and every timing moves in step; times are reported scaled
# to this speed, as measured by the same loop within the same run.
CALIBRATION_REF_S = 0.015
MIN_PASSES = 3       # timed passes per run, even when --seconds is shorter
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (no program, no digests, child died)."""


class Totals:
    """Operations attempted and failed over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, result, where):
        self.attempted += result.attempted
        self.failed += result.failed
        self.problems += [f"{where}: {p}" for p in result.problems]


def _import_program():
    init = SRC / "tubeflow" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no tubeflow sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tubeflow
    if Path(tubeflow.__file__).resolve() != init.resolve():
        raise BenchError(f"imported tubeflow from {tubeflow.__file__}, "
                         f"not from {SRC}")
    return tubeflow


def calibrate():
    """Time a fixed pure-Python loop: the CPU speed available right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i % 7
    return time.perf_counter() - t0


def _stored_digests(workload):
    if not DIGESTS.is_file():
        raise BenchError(f"missing {DIGESTS.name}; run --update-digests")
    data = json.loads(DIGESTS.read_text())
    if data.get("seed") != DEFAULT_SEED or workload not in data["workloads"]:
        raise BenchError(f"{DIGESTS.name} has no digests for {workload} "
                         f"at seed {DEFAULT_SEED}")
    return data["workloads"][workload]


# -- fresh-interpreter set-up -------------------------------------------------

def child_main(workload, seed, smoke, lock):
    """Set up in this fresh interpreter and print the time as JSON,
    with the calibration time around it.

    With ``lock`` it sets up the default-seed inputs instead, makes one
    pass, checks the files against the stored digests and adds the pass's
    operations, digests and the interpreter's peak resident memory.
    """
    inputs = workloads.make_inputs(workload, DEFAULT_SEED if lock else seed,
                                   smoke)
    calibs = [calibrate()]
    t0 = time.perf_counter()
    _import_program()
    state = workloads.setup(workload, inputs)
    out = {"setup_s": time.perf_counter() - t0}
    calibs += [calibrate(), calibrate()]
    out["calib_s"] = statistics.median(calibs)
    if lock:
        stored = None if smoke else _stored_digests(workload)
        r = workloads.run_pass(workload, state, WORK / workload / "lock")
        workloads.check_files(r, r.digests if smoke else stored, stored)
        out.update(peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   / 1024.0, attempted=r.attempted, failed=r.failed,
                   problems=r.problems, digests=r.digests)
    print(json.dumps(out))
    return 0


def _spawn(workload, seed, smoke, lock=False):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(seed)]
    cmd += ["--smoke"] * smoke + ["--lock"] * lock
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up interpreter timed out: {exc}") from exc
    if proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- one run ------------------------------------------------------------------

def _passes(workload, state, seconds, totals, expected, reference,
            tracer=None):
    """Repeat passes for ``seconds`` (at least MIN_PASSES); each pass's
    files must match the previous pass's.  Returns the pass times, the
    calibration times taken between passes, the passes' layer metrics and
    the last pass's digests.
    """
    times, calibs, layers = [], [], []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        calibs.append(calibrate())
        if tracer:
            tracer.reset()
        r = workloads.run_pass(workload, state, WORK / workload / "bundle")
        if tracer:
            layers.append(tracer.finish_pass())
        workloads.check_files(r, expected, reference)
        reference = r.digests
        totals.add(r, f"pass {len(times)}")
        times.append(r.seconds)
    calibs.append(calibrate())
    return times, calibs, layers, reference


def measure(workload, seed, seconds, trace, smoke=False):
    """One benchmark run.

    Returns (Totals, metrics, info): metrics and info map names to
    (value, unit); info holds the unscaled wall times behind the metrics.
    """
    tubeflow = _import_program()   # also writes the bytecode caches
    totals = Totals()

    # Behaviour lock and memory: a fresh interpreter makes one pass on the
    # default-seed inputs and checks its files against the stored digests.
    lock = _spawn(workload, seed, smoke, lock=True)
    totals.attempted += lock["attempted"]
    totals.failed += lock["failed"]
    totals.problems += [f"default-seed lock: {p}" for p in lock["problems"]]
    expected = lock["digests"] if smoke else _stored_digests(workload)
    reference = lock["digests"] if seed == DEFAULT_SEED else None

    state = workloads.setup(workload, workloads.make_inputs(workload, seed, smoke))
    if not trace:
        children = [lock] + [_spawn(workload, seed, smoke)
                             for _ in range((2 if smoke else SETUP_RUNS) - 1)]
        times, calibs, _, _ = _passes(workload, state, seconds, totals,
                                      expected, reference)
        wall = statistics.median(times)
        speed = CALIBRATION_REF_S / statistics.median(calibs)
        metrics = {
            "run_s": wall * speed,
            "setup_s": statistics.median(
                c["setup_s"] * CALIBRATION_REF_S / c["calib_s"]
                for c in children),
            "peak_rss_mb": lock["peak_rss_mb"]}
        info = {"run_wall_s": (wall, "s"),
                "setup_wall_s": (statistics.median(c["setup_s"]
                                                   for c in children), "s"),
                "cpu_speed": (speed, "ratio"),
                "passes": (len(times), "count")}
        return (totals, {k: (metrics[k], u) for k, u in END_TO_END_UNITS.items()},
                info)

    # traced passes must write the same bytes as the untraced ones
    times, _, _, reference = _passes(workload, state, seconds / 2, totals,
                                     expected, reference)
    tracer = tracing.Tracer(tubeflow)
    tracer.install()
    try:
        traced, _, layers, _ = _passes(workload, state, seconds / 2, totals,
                                       expected, reference, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(WORK / workload / "spans.csv")
    metrics = tracing.median_metrics(layers)
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(times))
    info = {"passes": (len(times) + len(traced), "count")}
    return (totals, {k: (metrics[k], u)
                     for k, u in tracing.PER_LAYER_UNITS.items()}, info)


def _report(workload, seed, totals, metrics, info):
    """Human-readable summary, then the JSON result as the last line."""
    ratio = totals.failed / totals.attempted if totals.attempted else 1.0
    print(f"# tubeflow benchmark: workload={workload} seed={seed}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    for name, (value, unit) in info.items():
        print(f"# {name:30s} {value:>16.6g} {unit}")
    print(f"{'fail_ratio':32s} {ratio:>16.6g} fraction "
          f"({totals.failed} of {totals.attempted} operations)")
    for p in totals.problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({
        "correct": totals.failed == 0 and totals.attempted > 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# -- maintenance modes --------------------------------------------------------

def update_digests(names):
    """Record the default-seed output digests of the named workloads."""
    _import_program()
    data = (json.loads(DIGESTS.read_text()) if DIGESTS.is_file()
            else {"seed": DEFAULT_SEED, "workloads": {}})
    for workload in names:
        state = workloads.setup(
            workload, workloads.make_inputs(workload, DEFAULT_SEED))
        r = workloads.run_pass(workload, state, WORK / workload / "bundle")
        if r.failed:
            raise BenchError(f"{workload}: not recording digests of a failing "
                             f"pass: {r.problems[:5]}")
        data["workloads"][workload] = r.digests
        print(f"{workload}: {len(r.digests)} files")
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def smoke():
    """Reduced-size self-check of the benchmark itself.

    Every declared metric must print with its declared unit on every
    workload.  A tampered digest, a non-zero exact residual and a coupling
    divergence must each be reported as a failed operation.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            totals, metrics, _ = measure(workload, 1, 0.0, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in
                    declared["per_layer" if trace else "end_to_end"]}
            got = {k: u for k, (v, u) in metrics.items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} "
                                f"!= declared {want}")
            if not all(math.isfinite(v) for v, _ in metrics.values()):
                problems.append(f"{workload} trace={trace}: non-finite value")
            if totals.failed or not totals.attempted:
                problems.append(f"{workload} trace={trace}: "
                                f"{totals.failed} of {totals.attempted} failed: "
                                f"{totals.problems[:3]}")
            print(f"smoke {workload} trace={trace}: {len(metrics)} metrics, "
                  f"{totals.attempted} operations, {totals.failed} failed")

    # a tampered digest is a failed operation
    state = workloads.setup("solve_helix",
                            workloads.make_inputs("solve_helix", 1, smoke=True))
    first = workloads.run_pass("solve_helix", state, WORK / "smoke")
    second = workloads.run_pass("solve_helix", state, WORK / "smoke")
    tampered = dict(first.digests, **{"grids.csv": "0" * 64})
    workloads.check_files(second, first.digests, tampered)
    if second.problems != ["grids.csv: sha256 differs from the reference"]:
        problems.append(f"tampered digest not reported: {second.problems}")

    # a non-zero exact residual is a failed operation
    inputs = workloads.make_inputs("exact_verify", 1, smoke=True)
    inputs["stations"][0]["Rdot"] += 1
    stations = workloads.setup("exact_verify", inputs)
    r = workloads.run_pass("exact_verify", stations, WORK / "smoke")
    if r.problems != ["station 0: non-zero exact residual in U1 trace"]:
        problems.append(f"perturbed exact station not reported: {r.problems}")

    # a coupling divergence (the soft wall E = 100) is counted, and the run
    # goes on
    inputs = workloads.make_inputs("pulse_elastic", 1, smoke=True)
    soft = inputs["config"].replace("wall.E = 2000.0", "wall.E = 100")
    cfg = workloads.setup("pulse_elastic", {"config": soft})
    tracer = tracing.Tracer(_import_program())
    tracer.install()
    try:
        r = workloads.run_pass("pulse_elastic", cfg, WORK / "smoke")
        layers = tracer.finish_pass()
    finally:
        tracer.uninstall()
    if layers["coupling.divergences"] != 1 or r.failed != 1:
        problems.append(f"coupling divergence not counted: {r.problems}")

    for p in problems:
        print(f"SMOKE FAILED {p}", file=sys.stderr)
    print(f"smoke: {'ok' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes; alone, run the self-check")
    parser.add_argument("--update-digests", action="store_true",
                        help="re-record digests.json (all workloads, or "
                             "the one given)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--lock", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One thread of work: pin BLAS/OpenMP pools before numpy is imported
    # (tubeflow is imported lazily; set-up interpreters inherit this).
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    try:
        if args.child:
            return child_main(args.workload, args.seed, args.smoke,
                              args.lock)
        if args.update_digests:
            return update_digests([args.workload] if args.workload
                                  else WORKLOADS)
        if args.smoke and not args.workload:
            return smoke()
        if not args.workload:
            parser.error("--workload is required")
        totals, metrics, info = measure(args.workload, args.seed,
                                        args.seconds, args.trace,
                                        smoke=args.smoke)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    _report(args.workload, args.seed, totals, metrics, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
