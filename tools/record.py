"""Record what the jobs of a check config say, at one or more seeds.

Per job: its verdicts and grid points at each seed, how false a profile
must be before the job fails, and what each run costs.

Parses the config with ``cli.validate_config`` at each seed and runs each
(seed, job) with ``verify.run_check``, as ``concmeter run`` does, in a
fresh Python process with one BLAS thread (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1) and the stream
threads' default, one per usable core; a job added to a config needs no
code here.  Each child returns its report's JSON, the wall seconds of the
check call (import and interpreter start not counted) and the process's
peak RSS.

Per (job, seed) it prints the verdict, the violations, the admitted and
informative grid points (``verify.grid_points``: its docstring gives the
rule, and each check declares the range of its lhs), the first admitted
eps (a pair's half-distance for ``separated_sets``), the wall seconds,
the peak RSS in MiB and the SHA-256 of the report's JSON, and last one
JSON line with all of them.  With ``--out`` it also writes the record, per
job:

- ``verdicts``: how many seeds gave each verdict;
- ``violations``, ``admitted``, ``informative``: per seed;
- ``vacuous`` (the two transfer checks): per seed, the admitted points
  at eps >= 2.  Both images lie in a body of diameter 2 in their metric,
  so there alpha(eps) = 0 exactly and no sample can fail.  This is a
  fact about the two images, not about the checks, so it lives here;
- ``k_star`` (jobs with a profile): the least factor k on the profile's
  c at which the report fails, by a 50-step geometric bisection of k in
  [1, 1e4] on copies of the report, each judged by ``verify.restate``;
  nothing is resampled.  ``null`` when the job passes at k = 1e4.

The record is a deterministic function of the config and the seeds (under
one numpy release, which it names), so running the tool twice gives the
same bytes; seconds, RSS and digests stay out of it.  An image at
n = 1024 and N = 1e5 is 781 MiB, so such a job needs about 0.9 GiB.  The
library is imported from this checkout's ``src/``, never from an
installed copy.

Usage::

    python tools/record.py [--config PATH] [--seeds 1,2,3] [--out PATH]
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from concmeter import cli, verify  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"concmeter was imported from {cli.__file__}, not from {ROOT / 'src'}")

ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DIAMETER = 2.0     # of the norm-ratio and radial images, in their metrics
K_RANGE, K_STEPS = (1.0, 1e4), 50


def run_job(task: tuple[dict, str, dict]) -> dict:
    """The child's part: run one ``cli.validate_config`` task in this process,
    and return its report's JSON, the check call's seconds and the peak RSS."""
    _, check, params = task
    start = time.perf_counter()
    report = verify.run_check(check, **params)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KiB on Linux
    return {"report": report.to_json(), "wall_s": round(wall, 3), "peak_rss_mib": round(peak, 1)}


def point_counts(report: dict) -> dict:
    admitted, informative = verify.grid_points(report)
    counts = {"admitted": int(admitted.sum()), "informative": int(informative.sum())}
    if report["check_id"] in ("norm_ratio_transfer", "radial_transfer"):
        eps = np.asarray(report["grid"]["eps"], dtype=np.float64)
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


def row(task: tuple[dict, str, dict], out: dict) -> dict:
    """The row of one (job, seed) from its child's output: what the record
    counts, with k* (jobs with a profile), and the child's seconds, RSS and digest."""
    record, check, params = task
    report = json.loads(out["report"])
    grid = report["grid"]
    r = {"job": record["id"], "check": check, "seed": params["seed"],
         "verdict": report["verdict"], "violations": report["violations"]["count"],
         **point_counts(report),
         "first_admitted_eps": next(
             (eps for eps, pre in zip(grid["eps"], grid["precondition"]) if pre), None),
         "wall_s": out["wall_s"], "peak_rss_mib": out["peak_rss_mib"],
         "sha256": hashlib.sha256(out["report"].encode()).hexdigest()}
    if "profile" in report["inputs"]:
        r["k_star"] = k_star(report)
    return r


def record(config: Path, seeds: list) -> tuple[list, dict]:
    """Run every (seed, job) of a config in a child process, printing its row:
    the rows, and the record of the config at these seeds."""
    cfg = json.loads(config.read_text())
    env = {**os.environ, **ONE_BLAS_THREAD}
    print(f"{'job':<24} {'seed':>4} {'verdict':<14} {'viol':>4} {'adm':>4} {'inf':>4} "
          f"{'eps0':>8} {'wall':>10} {'peak RSS':>12}  sha256", flush=True)
    rows, jobs = [], {}
    for seed in seeds:
        for index, task in enumerate(cli.validate_config({**cfg, "seed": seed})):
            out = subprocess.run(
                [sys.executable, __file__, "--config", str(config), "--seeds", str(seed),
                 "--job", str(index)],
                env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
            out = json.loads(out.splitlines()[-1])
            rows.append(r := row(task, out))
            eps0 = "-" if r["first_admitted_eps"] is None else f"{r['first_admitted_eps']:.4g}"
            print(f"{r['job']:<24} {seed:>4} {r['verdict']:<14} {r['violations']:>4} "
                  f"{r['admitted']:>4} {r['informative']:>4} {eps0:>8} {r['wall_s']:8.3f} s "
                  f"{r['peak_rss_mib']:8.1f} MiB  {r['sha256']}", flush=True)
            entry = jobs.setdefault(r["job"], {"check": r["check"], "verdicts": Counter(),
                                               "violations": []})
            entry["verdicts"][r["verdict"]] += 1
            entry["violations"].append(r["violations"])
            for key in ("admitted", "informative", "vacuous", "k_star"):
                if key in r:
                    entry.setdefault(key, []).append(r[key])
    for entry in jobs.values():
        entry["verdicts"] = dict(sorted(entry["verdicts"].items()))
        if "k_star" in entry:
            entry["k_star"] = quantiles(entry["k_star"])
    name = config.relative_to(ROOT).as_posix() if config.is_relative_to(ROOT) else str(config)
    return rows, {"config": name, "seeds": seeds, "numpy": np.__version__,
                  "k_search": {"factor_on": "profile.c", "range": list(K_RANGE),
                               "geometric_steps": K_STEPS},
                  "jobs": jobs}


def seed_list(text: str) -> list:
    try:
        return [int(token) for token in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}") from None


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", type=Path, default=ROOT / "configs" / "demo.json")
    ap.add_argument("--seeds", type=seed_list, help="comma list; default: the config's seed")
    ap.add_argument("--out", type=Path, help="write the record here")
    ap.add_argument("--job", type=int, help=argparse.SUPPRESS)   # the child's task index
    args = ap.parse_args(argv)
    os.environ.pop("CONCMETER_SEED", None)   # it would override every seed
    config = args.config.resolve()
    cfg = json.loads(config.read_text())
    seeds = args.seeds or [cfg.get("seed", 1)]
    if args.job is not None:   # the child process
        print(json.dumps(run_job(cli.validate_config({**cfg, "seed": seeds[0]})[args.job])))
        return
    rows, trust = record(config, seeds)
    if args.out is not None:
        args.out.write_text(json.dumps(trust, indent=2) + "\n")
    print(json.dumps({"config": trust["config"], "rows": rows}))


if __name__ == "__main__":
    main()
