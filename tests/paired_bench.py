"""Alternated pairs of ``bench/run.py --trace 0`` on two source trees.

    python tests/paired_bench.py PARENT_TREE CHANGE_TREE [--pairs 10]
        [--seed 1] [--seconds 20] [--workload W ...] [--traced W ...]
        [--out FILE]

Each tree is a checkout with its own ``bench/`` and ``src/`` (for the
parent, e.g. ``git archive`` of its commit unpacked into a directory).
Pair k runs every workload on both trees, the parent first when k is even
and the change first when k is odd, one run at a time.  Each side's runs
get a ``PYTHONPYCACHEPREFIX`` of their own, made fresh when the tool
starts, with bytecode writing on: the first run of a side compiles its
tree and every later one reads that cache, so ``setup_s`` never counts a
stale ``.pyc`` of one side or a compile the other side does not make.

For each workload and end-to-end metric the JSON written to ``--out`` (or
printed) holds each side's median and quartiles (linear interpolation, as
numpy's default percentile) over its runs, the parent's interquartile
range, the gap of the medians, and the number of pairs the change won
(ties count for neither side), with every run's values.  ``--traced W``
also makes one ``--trace 1`` run of W per side, after the pairs, and
keeps its per-layer metrics.  The tool needs only the standard library.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def bench_run(tree, workload, seed, seconds, trace, cache):
    """The JSON result line of one ``bench/run.py`` run in ``tree``."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    env["PYTHONPYCACHEPREFIX"] = cache
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n"
                 f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summary(runs, better):
    """Per metric: each side's quartiles, the parent's IQR, the median gap
    (parent - change, in the metric's better direction) and pairs won."""
    out = {}
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        won = sum(sign * (p - c) > 0 for p, c in zip(*values.values()))
        stats = {side: quartiles(values[side]) for side in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        out[name] = {
            **stats, "change_better_in_pairs": won,
            "median_change_pct": 100.0 * (change - parent) / parent,
            "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            "median_gap": sign * (parent - change),
            "runs": values,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--traced", action="append", default=[])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="paired_bench_") as tmp:
        caches = {side: os.path.join(tmp, side) for side in SIDES}
        runs = {w: {side: [] for side in SIDES} for w in workloads}
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for w in workloads:
                for side in order:
                    result = bench_run(trees[side], w, args.seed,
                                       args.seconds, 0, caches[side])
                    runs[w][side].append(result)
                    print(f"pair {k} {w} {side}: " + ", ".join(
                        f"{name} {m['value']:.4g}"
                        for name, m in result["metrics"].items()),
                        file=sys.stderr)
        traced = {w: {side: bench_run(trees[side], w, args.seed,
                                      args.seconds, 1, caches[side])
                      for side in SIDES} for w in args.traced}

    report = {
        "trees": {side: str(tree) for side, tree in trees.items()},
        "harness": (f"bench/run.py --seed {args.seed} --seconds "
                    f"{args.seconds} --trace 0, {args.pairs} alternated "
                    f"pairs (even pairs parent first), a fresh "
                    f"PYTHONPYCACHEPREFIX per side"),
        "workloads": {w: {
            "correct": {side: all(r["correct"] for r in runs[w][side])
                        for side in SIDES},
            "failed_ops": {side: sum(r["failed"] for r in runs[w][side])
                           for side in SIDES},
            "attempted_ops": {side: sum(r["attempted"] for r in runs[w][side])
                              for side in SIDES},
            "metrics": summary(runs[w], better),
        } for w in workloads},
        "traced": {w: {side: {name: m["value"]
                              for name, m in result["metrics"].items()}
                       for side, result in sides.items()}
                   for w, sides in traced.items()},
    }
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
