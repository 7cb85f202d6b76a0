#!/usr/bin/env python3
"""concmeter benchmark: one workload per process, timed from outside.

    python3 benchmarks/run.py --workload demo --seed 1 --seconds 45 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 45

With ``--trace 0`` the workload runs untraced passes until ``--seconds``
is spent (at least three) and reports the end-to-end metrics: the wall
and CPU seconds of one pass, the peak RSS of the process, and the median
set-up time over several set-ups.  Times are reference seconds: each
operation's seconds over the seconds of a fixed numpy kernel timed around
it (``workloads.reference_seconds``), times the kernel's nominal
``REFERENCE_S``; set-ups, which run in child processes, are scaled by the
kernel's median over the run.  The host this runs on drifts by up to 2x in speed over
minutes, and the ratio cancels most of it.  A pass's time is the sum,
over its operations, of each operation's median over the passes.  Raw
seconds go to the result file too.  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones (raw seconds), the time no span covers, and the tracing
overhead.

Every pass checks its outputs and hashes them; the last line of standard
output is one JSON object (correct, attempted, failed, metrics), and a
result file with the samples, the digest and a machine record goes to
``benchmarks/results/``.  ``--workload all`` runs each workload in its
own process (``ru_maxrss`` is a high-water mark) and prints a table.
The library is imported from ``src/`` next to this directory, never from
an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("demo", "beta_sweep", "radial_maps")

MIN_PASSES = 3
SETUPS = 8          # set-ups in fresh child processes, spread over the run
REFERENCE_S = 0.030  # nominal seconds of the reference kernel
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT = 170

# Units of every metric, as declared next to the benchmark's command.
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
         for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())[key]}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it as JSON and exit")
    return ap.parse_args(argv)


def check_environment() -> None:
    # One BLAS thread: the gauge of host speed runs on one vCPU, and on a
    # shared 2-vCPU host a second BLAS thread's speed follows the load on
    # the other vCPU, which no single-threaded gauge sees.  Set before
    # numpy is first imported; set-up children inherit it.
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    if "CONCMETER_SEED" in os.environ:
        raise BenchError("CONCMETER_SEED is set; it overrides every job seed, "
                         "so the workload seed would not be the one that ran")
    if not (SRC / "concmeter" / "__init__.py").is_file():
        raise BenchError(f"no concmeter sources under {SRC}")
    sys.path.insert(0, str(SRC))


def set_up(workload: str, seed: int, work_dir: Path):
    """Import concmeter and build the workload inputs; return (run_pass, s)."""
    start = time.perf_counter()
    import workloads  # imports numpy and concmeter
    run_pass = workloads.build(workload, seed, work_dir)
    elapsed = time.perf_counter() - start
    import concmeter
    if not Path(concmeter.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"concmeter was imported from {concmeter.__file__}, not {SRC}")
    return run_pass, elapsed


def child_setup(args) -> float:
    """One set-up time measured in a fresh process, as a user pays it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, check=False)
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_pass(run_pass, tracer=None) -> dict:
    """One pass with its wall and CPU time, outcome and (traced) layer metrics."""
    from workloads import cpu_seconds
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        c0, w0 = cpu_seconds(), time.perf_counter()
        outcome = run_pass()
        w1, c1 = time.perf_counter(), cpu_seconds()
    result = {"wall_s": w1 - w0, "cpu_s": c1 - c0, "outcome": outcome}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, tracer.counts, w0, w1)
        result["spans"] = tracer.spans
    return result


def run_passes(run_pass, seconds: float, trace: bool,
               between=lambda: None) -> tuple[list, list]:
    """Untraced passes, or with tracing rounds of one untraced and one
    traced pass, until the next round would end past ``seconds``.  Rounds
    alternate their order so that a drift in machine speed cancels out of
    the tracing overhead.  ``between`` runs after each round, inside the
    time budget."""
    tracer = Tracer() if trace else None
    plain, traced = [], []
    start = time.perf_counter()
    min_rounds = 1 if trace else MIN_PASSES
    while True:
        round_start = time.perf_counter()
        kinds = [None, tracer] if trace else [None]
        if len(plain) % 2:
            kinds.reverse()
        for kind in kinds:
            (plain if kind is None else traced).append(timed_pass(run_pass, kind))
        between()
        round_s = time.perf_counter() - round_start
        if len(plain) >= min_rounds and time.perf_counter() - start + round_s > seconds:
            return plain, traced


def blas_threads():
    """Threads OpenBLAS is set to use, asked from the loaded library."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas": blas,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def metric(name: str, value: float) -> dict:
    return {"value": value, "unit": UNITS[name]}


def referenced(seconds: float, ref_s: float) -> float:
    """``seconds`` at the host speed where the reference kernel takes
    ``REFERENCE_S``, given that it took ``ref_s`` around them."""
    return seconds * REFERENCE_S / ref_s


def run_reference_s(passes: list) -> float:
    """The reference kernel's median seconds over ``passes``: the host's
    speed over the run, for times that have no kernel timed around them."""
    return statistics.median(times[2] for p in passes
                             for times in p["outcome"].times.values())


def pass_seconds(passes: list, column: int, raw: bool = False) -> float:
    """Seconds of one pass: the sum over operations of each operation's
    median over ``passes`` (column 0 is wall time, 1 is CPU time), in
    reference seconds unless ``raw``."""
    def seconds(times):
        return times[column] if raw else referenced(times[column], times[2])

    labels = passes[0]["outcome"].times
    return sum(statistics.median(seconds(p["outcome"].times[label]) for p in passes)
               for label in labels)


def run_workload(args, work_dir: Path) -> dict:
    run_pass, own_setup = set_up(args.workload, args.seed, work_dir)
    if args.setup_only:
        return {"setup_s": own_setup}
    setups = []

    def between():  # spread the set-ups over the run, as it sees the host
        if not args.trace and len(setups) < SETUPS:
            setups.append(child_setup(args))

    plain, traced = run_passes(run_pass, args.seconds, bool(args.trace), between)
    while not args.trace and len(setups) < SETUPS:
        between()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = plain + traced
    outcomes = [p["outcome"] for p in passes]
    digests = sorted({o.digest for o in outcomes})
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    walls = [p["wall_s"] for p in plain]
    if args.trace:
        keys = traced[0]["layers"]
        metrics = {k: metric(k, statistics.median(p["layers"][k] for p in traced))
                   for k in keys}
        metrics["trace_overhead_s"] = metric(
            "trace_overhead_s",
            pass_seconds(traced, 0, raw=True) - pass_seconds(plain, 0, raw=True))
    else:
        metrics = {
            "wall_s": metric("wall_s", pass_seconds(plain, 0)),
            "cpu_s": metric("cpu_s", pass_seconds(plain, 1)),
            "peak_rss_mb": metric("peak_rss_mb", peak_mb),
            "setup_s": metric("setup_s", referenced(statistics.median(setups),
                                                    run_reference_s(plain))),
        }
    return {
        "workload": args.workload, "seed": args.seed,
        "seed_used": args.workload != "radial_maps",
        "seconds": args.seconds, "trace": args.trace,
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "errors": sorted({e for o in outcomes for e in o.errors})[:20],
        "digest": digests[0] if len(digests) == 1 else digests,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "peak_rss_mb": peak_mb,
        "raw": {"wall_s": pass_seconds(plain, 0, raw=True),
                "cpu_s": pass_seconds(plain, 1, raw=True),
                "setup_s": statistics.median(setups) if setups else None},
        "samples": {"wall_s": walls, "cpu_s": [p["cpu_s"] for p in plain],
                    "setup_s": setups, "own_setup_s": own_setup,
                    "traced_wall_s": [p["wall_s"] for p in traced],
                    "operations": [p["outcome"].times for p in plain]},
        "metrics": metrics,
        "machine": machine_record(),
        "_spans": [p["spans"] for p in traced],
    }


def write_result(result: dict) -> Path:
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans = result.pop("_spans")
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if spans:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            for k, pass_spans in enumerate(spans):
                for s in pass_spans:
                    fh.write(json.dumps({"pass": k, "name": s.name, "start": s.start,
                                         "end": s.end, "parent": s.parent}) + "\n")
    return path


def print_result(result: dict, path: Path) -> None:
    n = result["passes"]
    print(f"{result['workload']} (seed {result['seed']}"
          f"{'' if result['seed_used'] else ', unused: the maps are analytic'}): "
          f"{n['untraced']} untraced and {n['traced']} traced passes")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    if not result["trace"]:
        for name, value in result["raw"].items():
            print(f"  {name + ' (raw)':<36} {value:>14.6g} s")
    print(f"  {'error_rate':<36} {result['error_rate']:>14.6g} share "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for err in result["errors"]:
        print(f"    failed: {err}")
    print(f"  digest {result['digest']}")
    print(f"  result file {path}")


def run_all(args) -> int:
    """Each workload in a fresh process; one table of every metric."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        correct &= last["correct"]
        metrics.update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_environment()
        if args.workload == "all":
            return run_all(args)
        RESULTS.mkdir(parents=True, exist_ok=True)
        work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
        try:
            result = run_workload(args, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(result))
        return 0
    path = write_result(result)
    print_result(result, path)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
