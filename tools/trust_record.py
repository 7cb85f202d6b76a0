"""Trust record of a check config: what each job's verdicts say, and how
false a profile must be before the job fails.

Runs every job of ``configs/demo.json`` at seeds 1-10, one job at a time
in this process, and writes one JSON record (by default
``TRUST_baseline.json`` at the repository root).  Per job:

- ``verdicts``: how many seeds gave each verdict;
- ``violations``, ``admitted``, ``informative``: per seed, the report's
  violation count, its admitted grid points (precondition true), and the
  admitted points that could have failed.  A point is informative when
  its lhs is measured above the least value lhs can take and the bound
  lies below the largest, read off the report's grid:
  ``lhs - ci > lo`` and ``rhs + slack < hi`` for an "le" check,
  ``lhs + ci < hi`` and ``rhs - slack > lo`` for a "ge" check, where
  [lo, hi] is [0, 1] for a curve, [0, 1/4] for a set-pair product,
  [0, inf) for the shell chain and {n_functionals} for the embedding;
- ``vacuous`` (the two transfer checks): per seed, the admitted points
  at eps >= 2.  Both images lie in a body of diameter 2 in their metric,
  so there alpha(eps) = 0 exactly and no sample can fail;
- ``k_star`` (jobs with a profile): the least factor k on the profile's
  c at which the report fails, by a 50-step geometric bisection of k in
  [1, 1e4] on copies of the report, each judged by ``verify.restate``;
  nothing is resampled.  ``null`` when the job passes at k = 1e4.

The record is a deterministic function of the config and the seeds (under
one numpy release, which it names), so running the script twice gives the
same bytes.

Usage::

    PYTHONPATH=src python tools/trust_record.py [--out PATH]
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import statistics
from collections import Counter
from pathlib import Path

import numpy as np

from concmeter import cli, verify

ROOT = Path(__file__).resolve().parents[1]
CONFIG = "configs/demo.json"
SEEDS = range(1, 11)
DIAMETER = 2.0     # of the norm-ratio and radial images, in their metrics
K_RANGE, K_STEPS = (1.0, 1e4), 50


def lhs_range(report: dict) -> tuple[float, float]:
    """The least and largest value the report's lhs can take."""
    check = report["check_id"]
    if check == "separated_sets":
        return 0.0, 0.25
    if check == "shell_inclusion":
        return 0.0, math.inf
    if check == "sup_embedding":
        n = float(report["inputs"]["n_functionals"])
        return n, n
    return 0.0, 1.0


def point_counts(report: dict) -> dict:
    grid = report["grid"]
    eps, lhs, ci, rhs, slack = (np.asarray(grid[k], dtype=np.float64)
                                for k in ("eps", "lhs", "ci", "rhs", "slack"))
    admitted = np.asarray(grid["precondition"], dtype=bool)
    lo, hi = lhs_range(report)
    if grid["relation"] == "le":
        can_fail = (lhs - ci > lo) & (rhs + slack < hi)
    else:
        can_fail = (lhs + ci < hi) & (rhs - slack > lo)
    counts = {"admitted": int(admitted.sum()),
              "informative": int((admitted & can_fail).sum())}
    if report["check_id"] in ("norm_ratio_transfer", "radial_transfer"):
        counts["vacuous"] = int((admitted & (eps >= DIAMETER)).sum())
    return counts


def k_star(report: dict):
    """The least factor on the profile's c that fails the report, or None."""
    def fails(k: float) -> bool:
        edited = copy.deepcopy(report)
        edited["inputs"]["profile"]["c"] *= k
        return verify.restate(edited)[-1] == "fail"

    lo, hi = K_RANGE
    if fails(lo):
        return lo
    if not fails(hi):
        return None
    for _ in range(K_STEPS):
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if fails(mid) else (mid, hi)
    return hi


def quantiles(ks: list) -> dict:
    """k* per seed, min, median and max, to 4 significant digits; a job that
    cannot fail counts as k* = inf, written null."""
    def show(k):
        return None if k is None or math.isinf(k) else float(f"{k:.4g}")

    ranked = sorted(math.inf if k is None else k for k in ks)
    return {"by_seed": [show(k) for k in ks], "min": show(ranked[0]),
            "median": show(statistics.median(ranked)), "max": show(ranked[-1])}


def record() -> dict:
    cfg = json.loads((ROOT / CONFIG).read_text())
    jobs: dict[str, dict] = {}
    for seed in SEEDS:
        for job, check, params in cli.validate_config({**cfg, "seed": seed}):
            report = json.loads(verify.run_check(check, **params).to_json())
            entry = jobs.setdefault(job["id"], {"check": check, "verdicts": Counter(),
                                                "violations": []})
            entry["verdicts"][report["verdict"]] += 1
            entry["violations"].append(report["violations"]["count"])
            for key, value in point_counts(report).items():
                entry.setdefault(key, []).append(value)
            if "profile" in report["inputs"]:
                entry.setdefault("k_star_by_seed", []).append(k_star(report))
    for entry in jobs.values():
        entry["verdicts"] = dict(sorted(entry["verdicts"].items()))
        if "k_star_by_seed" in entry:
            entry["k_star"] = quantiles(entry.pop("k_star_by_seed"))
    return {"config": CONFIG,
            "seeds": list(SEEDS), "numpy": np.__version__,
            "k_search": {"factor_on": "profile.c", "range": list(K_RANGE),
                         "geometric_steps": K_STEPS},
            "jobs": jobs}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "TRUST_baseline.json"))
    args = ap.parse_args()
    os.environ.pop("CONCMETER_SEED", None)   # it would override every seed
    Path(args.out).write_text(json.dumps(record(), indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
