"""Span tracing of tubeflow's public functions, installed from outside.

The tracer replaces each public function and method of the eight tubeflow
modules with a wrapper that records a span (id, parent id, name, start,
end, error) into an in-memory list.  Nothing under ``src/`` changes: every
module global and class attribute that refers to a wrapped function is
rebound, and :meth:`Tracer.uninstall` puts the originals back.

``DiscPoly``/``TrigSeries`` operations run hundreds of thousands of times
per pass, so polydisc calls are counted individually but timed only at the
outermost polydisc call under each span, and stored as one roll-up record
per (parent span, function) instead of one span per call.  Per-layer self
time is computed afterwards from the spans and roll-ups: a span's duration
minus the durations of its direct children (spans and roll-ups).
"""

from __future__ import annotations

import csv
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("geometry", "polydisc", "pressure", "coupling", "expansion",
          "verify", "plotting", "cli")

# Arithmetic dunders are the public interface of the polynomial classes.
_POLY_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "__pow__", "__eq__")

# (metric name, unit) of every per-layer metric, in report order.
PER_LAYER_UNITS = {
    "geometry.frame_calls": "count",
    "geometry.self_s": "s",
    "polydisc.mul_calls": "count",
    "polydisc.evaluate_calls": "count",
    "polydisc.integral_calls": "count",
    "polydisc.self_s": "s",
    "pressure.bvp_solves": "count",
    "pressure.p0_solves": "count",
    "pressure.unknowns": "count",
    "pressure.self_s": "s",
    "coupling.steps": "count",
    "coupling.p0_solves_per_step": "count/step",
    "coupling.max_solves_step": "count",
    "coupling.divergences": "count",
    "coupling.self_s": "s",
    "expansion.stations": "count",
    "expansion.station_us": "us",
    "expansion.point_evals": "count",
    "expansion.tables_s": "s",
    "expansion.self_s": "s",
    "verify.calls": "count",
    "verify.self_s": "s",
    "plotting.svgs": "count",
    "plotting.svg_bytes": "bytes",
    "plotting.self_s": "s",
    "cli.pipelines": "count",
    "cli.pipeline_s": "s",
    "cli.export_s": "s",
    "cli.sample_s": "s",
    "cli.csv_files": "count",
    "cli.csv_bytes": "bytes",
    "cli.csv_s": "s",
    "trace.overhead_s": "s",
}


def _public_callables(module):
    """(owner, attribute, kind, function) for each public function/method."""
    out = []
    for name, obj in vars(module).items():
        if (name.startswith("_")
                or getattr(obj, "__module__", None) != module.__name__):
            continue
        if inspect.isfunction(obj):
            out.append((module, name, "function", obj))
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                public = not attr.startswith("_") or (
                    attr in _POLY_DUNDERS and module.__name__.endswith(".polydisc"))
                if not public:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    kind = type(raw).__name__
                    out.append((obj, attr, kind, raw.__func__))
                elif inspect.isfunction(raw):
                    out.append((obj, attr, "function", raw))
    return out


class Tracer:
    """Wraps tubeflow's public functions; one instance per traced run."""

    def __init__(self, package):
        self._package = package
        self._modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}")
            for layer in LAYERS}
        self._undo = []
        self.passes = []   # (start, spans, roll-ups) of each finished pass
        self.reset()

    # -- recording ------------------------------------------------------------
    def reset(self):
        """Start a new pass: fresh span list, roll-ups and counters."""
        self.spans = []
        self.rollups = defaultdict(lambda: [0, 0.0])   # (parent, name) -> [n, s]
        self.counts = defaultdict(int)
        self.sums = defaultdict(float)
        self.csv_paths = []
        self._stack = [[0, "root", None]]   # [span id, name, layer]
        self._next_id = 1
        self._t0 = time.perf_counter()

    def finish_pass(self):
        """Close the current pass and return its per-layer metrics."""
        metrics = self._pass_metrics()
        self.passes.append((self._t0, self.spans, dict(self.rollups)))
        return metrics

    def _wrap(self, fn, name, layer):
        clock = time.perf_counter
        tracer = self

        if layer == "polydisc":
            def wrapper(*args, **kwargs):
                tracer.counts[name] += 1
                stack = tracer._stack
                parent = stack[-1]
                if parent[2] == "polydisc":
                    return fn(*args, **kwargs)
                stack.append([parent[0], name, "polydisc"])
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    cell = tracer.rollups[(parent[0], name)]
                    cell[0] += 1
                    cell[1] += dur
                return result
        else:
            hook = _HOOKS.get(name)

            def wrapper(*args, **kwargs):
                tracer.counts[name] += 1
                stack = tracer._stack
                sid = tracer._next_id
                tracer._next_id = sid + 1
                parent_id = stack[-1][0]
                stack.append([sid, name, layer])
                error = ""
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    error = type(exc).__name__
                    raise
                finally:
                    t1 = clock()
                    stack.pop()
                    tracer.spans.append((sid, parent_id, name, t0, t1, error))
                if hook:
                    hook(tracer, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation -----------------------------------------------------------
    def install(self):
        """Rebind every public function of the eight modules to a wrapper."""
        replaced = {}
        for layer, module in self._modules.items():
            # aliases such as ``__radd__ = __add__`` appear under both names
            for owner, attr, kind, fn in _public_callables(module):
                qual = f"{layer}.{fn.__qualname__}"
                wrapped = self._wrap(fn, qual, layer)
                replaced[id(fn)] = (fn, wrapped)
                if inspect.isclass(owner):
                    orig = vars(owner)[attr]
                    new = wrapped if kind == "function" else type(orig)(wrapped)
                    setattr(owner, attr, new)
                    self._undo.append((owner, attr, orig))
        # module-level names, including names imported into other modules
        pkg = self._package.__name__
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == pkg or n.startswith(pkg + "."))]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- analysis -----------------------------------------------------------------
    def _pass_metrics(self):
        spans, rollups = self.spans, self.rollups
        cover = defaultdict(float)
        for sid, parent, name, t0, t1, _ in spans:
            cover[parent] += t1 - t0
        self_s = dict.fromkeys(LAYERS, 0.0)
        for (parent, name), (_, dur) in rollups.items():
            cover[parent] += dur
            self_s["polydisc"] += dur
        inclusive = defaultdict(float)
        by_id = {}
        for sid, parent, name, t0, t1, err in spans:
            dur = t1 - t0
            self_s[name.split(".", 1)[0]] += dur - cover[sid]
            inclusive[name] += dur
            by_id[sid] = (parent, name)

        # solve_p0 calls inside each advance_time_step span
        per_step = defaultdict(int)
        divergences = 0
        for sid, parent, name, t0, t1, err in spans:
            if name == "coupling.advance_time_step":
                per_step[sid] += 0
                divergences += err == "CouplingDivergenceError"
            elif name == "pressure.solve_p0":
                while parent:
                    up, up_name = by_id[parent]
                    if up_name == "coupling.advance_time_step":
                        per_step[parent] += 1
                        break
                    parent = up

        c = self.counts
        steps = list(per_step.values())
        n_stations = c["expansion.evaluate_station"]
        m = {
            "geometry.frame_calls": c["geometry.CenterCurve.frame"],
            "polydisc.mul_calls": c["polydisc.DiscPoly.__mul__"],
            "polydisc.evaluate_calls": c["polydisc.DiscPoly.evaluate"],
            "polydisc.integral_calls": c["polydisc.disc_integral_over_pi"],
            "pressure.bvp_solves": c["pressure.solve_flux_bvp"],
            "pressure.p0_solves": c["pressure.solve_p0"],
            "pressure.unknowns": int(self.sums["pressure.unknowns"]),
            "coupling.steps": len(steps),
            "coupling.p0_solves_per_step": (sum(steps) / len(steps)
                                            if steps else 0.0),
            "coupling.max_solves_step": max(steps, default=0),
            "coupling.divergences": divergences,
            "expansion.stations": n_stations,
            "expansion.station_us": (1e6 * inclusive["expansion.evaluate_station"]
                                     / n_stations if n_stations else 0.0),
            "expansion.point_evals": (c["expansion.PhysicalSolution.velocity"]
                                      + c["expansion.PhysicalSolution.pressure"]),
            "expansion.tables_s": inclusive["expansion.verify_coefficient_tables"],
            "verify.calls": sum(n for k, n in c.items() if k.startswith("verify.")),
            "plotting.svgs": (c["plotting.heatmap_svg"]
                              + c["plotting.quiver_svg"]),
            "plotting.svg_bytes": int(self.sums["plotting.svg_bytes"]),
            "cli.pipelines": c["cli.run_pipeline"],
            "cli.pipeline_s": inclusive["cli.run_pipeline"],
            "cli.export_s": inclusive["cli.export_bundle"],
            "cli.sample_s": inclusive["cli.sample_fields"],
            "cli.csv_files": c["cli.write_csv"],
            "cli.csv_bytes": sum(os.path.getsize(p) for p in self.csv_paths
                                 if os.path.exists(p)),
            "cli.csv_s": inclusive["cli.write_csv"],
        }
        for layer in LAYERS:
            if f"{layer}.self_s" in PER_LAYER_UNITS:
                m[f"{layer}.self_s"] = self_s[layer]
        return m

    def write_spans(self, path):
        """Write every recorded span and roll-up of every pass as CSV."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["pass", "kind", "id", "parent", "name", "start_s",
                          "end_s", "calls", "error"])
            for k, (base, spans, rollups) in enumerate(self.passes):
                for sid, parent, name, t0, t1, err in spans:
                    out.writerow([k, "span", sid, parent, name,
                                  f"{t0 - base:.9f}", f"{t1 - base:.9f}", 1, err])
                for (parent, name), (n, dur) in rollups.items():
                    out.writerow([k, "rollup", "", parent, name, "",
                                  f"{dur:.9f}", n, ""])


def median_metrics(per_pass):
    """Median of each metric over passes; the lower one of an even count,
    so that a count stays a count."""
    return {k: statistics.median_low(p[k] for p in per_pass)
            for k in per_pass[0]}


def _count_unknowns(tracer, args, kwargs, result):
    coef = args[0] if args else kwargs["coef"]
    tracer.sums["pressure.unknowns"] += len(coef) - 2


def _count_svg(tracer, args, kwargs, result):
    tracer.sums["plotting.svg_bytes"] += len(result.encode())


def _record_csv(tracer, args, kwargs, result):
    tracer.csv_paths.append(os.fspath(args[0] if args else kwargs["path"]))


_HOOKS = {
    "pressure.solve_flux_bvp": _count_unknowns,
    "plotting.heatmap_svg": _count_svg,
    "plotting.quiver_svg": _count_svg,
    "cli.write_csv": _record_csv,
}
