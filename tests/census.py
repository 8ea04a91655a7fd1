"""A census of sensible inputs: seeded random configs, each run and sorted
by its outcome.

Every config is physically sensible: a straight, circular-arc or helix
axis; fluid, wall and boundary data in moderate ranges; half of the walls
elastic, and 60% of those driven by an unsteady inlet pulse.  Each run
either passes its verification, fails named checks, warns that eps is out
of the asymptotic regime, or raises a :class:`TubeflowError`; the outcome
table is what a robustness change moves.

Print the table with ``PYTHONPATH=src python tests/census.py [count]``.
"""

from __future__ import annotations

import math
import random
import re
import sys
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np

from tubeflow.cli import RunConfig, run_pipeline
from tubeflow.coupling import apply_wall_law
from tubeflow.errors import (ModelInconsistencyError, TubeflowError,
                             WallCollapseError)


def census_configs(count=100, max_n=257, seed=0):
    """``count`` configs as ``{key: text}`` mappings, the same for the same
    arguments."""
    rng = random.Random(seed)
    return [_config(rng, max_n) for _ in range(count)]


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _config(rng, max_n):
    length = rng.uniform(0.2, 5.0)
    kind = rng.choice(("straight", "circular-arc", "helix"))
    kv = {
        "geometry.kind": kind,
        "geometry.length": length,
        "fluid.rho0": _log_uniform(rng, 0.1, 10.0),
        "fluid.nu": _log_uniform(rng, 0.01, 10.0),
        "eps": rng.uniform(0.005, 0.3),
        "wall.R0": rng.uniform(0.2, 5.0),
        "bc.p0.inlet": rng.uniform(-20.0, 20.0),
        "bc.p0.outlet": rng.uniform(-20.0, 20.0),
        "bc.p1.inlet": rng.uniform(-1.0, 1.0),
        "bc.p1.outlet": rng.uniform(-1.0, 1.0),
        "bc.p02.inlet": rng.uniform(-1.0, 1.0),
        "bc.p02.outlet": rng.uniform(-1.0, 1.0),
        "body.b1": rng.uniform(-1.0, 1.0),
        "body.b2": rng.uniform(-1.0, 1.0),
        "body.b3": rng.uniform(-1.0, 1.0),
        "grid.n_s1": rng.randint(9, max_n),
        "output.stations": length / 2,
    }
    if kind == "circular-arc":
        kv["geometry.radius"] = rng.uniform(0.5, 10.0)
    elif kind == "helix":
        kv["geometry.a"] = rng.uniform(0.5, 5.0)
        kv["geometry.b"] = rng.uniform(-5.0, 5.0)
    if rng.random() < 0.5:
        kv.update({"wall.law": "elastic",
                   "wall.E": _log_uniform(rng, 50.0, 1e5),
                   "wall.h0": rng.uniform(0.01, 0.2)})
        if rng.random() < 0.6:
            t_end = rng.uniform(0.1, 2.0)
            base, peak = rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)
            kv.update({"time.steady": "false", "time.t_end": t_end,
                       "time.dt": t_end / rng.randint(4, 20),
                       "bc.p0.inlet": f"0:{base!r},{t_end / 2!r}:{peak!r},"
                                      f"{t_end!r}:{base!r}"})
    return {key: v if isinstance(v, str) else repr(v) for key, v in kv.items()}


def _non_finite(res):
    """Names of the result arrays and numbers that are not all finite."""
    named = {"residuals": res.pexp.residuals, "shape": res.shape_checks}
    for part in ("wall", "pexp", "flow", "conservation", "compatibility"):
        obj = getattr(res, part)
        named.update((f"{part}.{f.name}", getattr(obj, f.name))
                     for f in fields(obj))
    named.update((f"stations.{f.name}", getattr(res.stations.data, f.name))
                 for f in fields(res.stations.data))
    bad = []
    for name, value in named.items():
        for v in value.values() if isinstance(value, dict) else (value,):
            if isinstance(v, (float, int, np.ndarray)) \
                    and not np.isfinite(v).all():
                bad.append(name)
    return bad


def _failed_checks(res):
    """Names of the checks a run that fails its verification fails."""
    checks = {"mass conservation": res.conservation.passed(),
              "compatibility": res.compatibility.passed()}
    checks.update((k, v) for k, v in res.shape_checks.items()
                  if isinstance(v, (bool, np.bool_)))
    # the one check of verification_passed() without a name of its own
    return [name for name, ok in checks.items() if not ok] \
        or ["pressure residual"]


def _law_collapses(cfg):
    """Whether the elastic law itself gives R <= 0 at the lowest p0
    boundary value."""
    lowest = min(min(v.values) if callable(v) else v
                 for v in (cfg.bc_p0_inlet, cfg.bc_p0_outlet))
    try:
        apply_wall_law(cfg.build_wall_law(), [lowest])
    except WallCollapseError:
        return True
    return False


def classify(kv):
    """The outcome of one config's run, as a short text.

    "passes"; "fails: <checks>"; "warns: eps*max(kappa R) > 0.5"; a
    TubeflowError's class, with the head of its message for a model
    inconsistency and the law's verdict for a wall collapse; "non-finite:
    <arrays>" for a run that returns NaN or inf; "unexpected <class>: ..."
    for any other exception.  A RuntimeWarning counts as an exception.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        try:
            cfg = RunConfig.from_mapping(kv)
            res = run_pipeline(cfg)
        except WallCollapseError:
            verdict = "collapses" if _law_collapses(cfg) else "keeps R > 0"
            return f"WallCollapseError, the law {verdict}"
        except ModelInconsistencyError as exc:
            # "U^2 compatibility violated at 251 of 513 nodes, ..."
            return "ModelInconsistencyError: " + re.split(r":| at ", str(exc))[0]
        except TubeflowError as exc:
            return type(exc).__name__
        except Exception as exc:   # noqa: BLE001 - the census reports it
            return f"unexpected {type(exc).__name__}: {exc}"
    bad = _non_finite(res)
    if bad:
        return "non-finite: " + ", ".join(bad)
    if any(issubclass(w.category, UserWarning) for w in caught):
        return "warns: eps*max(kappa R) > 0.5"
    if res.verification_passed():
        return "passes"
    return "fails: " + ", ".join(_failed_checks(res))


def census(count=100, max_n=257, seed=0):
    """Outcome of each config of :func:`census_configs`, in order."""
    return [classify(kv) for kv in census_configs(count, max_n, seed)]


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    table = Counter(census(count))
    print("| outcome | count |\n|---|---|")
    for outcome, n in table.most_common():
        print(f"| {outcome} | {n} |")
