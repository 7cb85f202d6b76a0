"""The three benchmark workloads: inputs from a seed, one pass, its checks.

Each workload is built once per process (the set-up the benchmark times)
into a list of operations, and returns a zero-argument ``run_pass`` that
executes them in order against the library, times each one, checks every
output, and hashes all of them.  The library is reached through module
attributes at call time, so the tracer's patched functions are the ones
that run.

Operations and their checks, which hold whether or not bits change:

- demo: one operation per job of ``demo.json``, each a ``concmeter run``
  of a one-job config.  It fails when the run exits non-zero or the job's
  verdict is not pass/not-applicable.
- beta_sweep: one operation per functional.  It fails unless the value is
  finite and lies in [1, lambda] (both bounds hold for every lp pair).
- radial_maps: one operation per (p, n) map.  It fails unless knots and
  values are nondecreasing and the Lipschitz constant is finite and > 0.

An operation that raises counts as failed; its message is kept.  Only
the library call is timed; the check and the hashing are not.  Before
and after each operation the pass times a fixed numpy kernel that runs
no concmeter code (``reference_seconds``), a gauge of how fast the host
is running at that moment.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from concmeter import cli, measures, normspace, parameters, transport

HERE = Path(__file__).resolve().parent

WORKLOADS = ("demo", "beta_sweep", "radial_maps")   # why each: README.md

_OK_VERDICTS = ("pass", "not-applicable")


@dataclass
class PassOutcome:
    """What one pass did: operations attempted and failed, their wall and
    CPU seconds and the reference kernel's seconds around them by label,
    and a digest of every output."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    times: dict = field(default_factory=dict)
    sha: object = field(default_factory=hashlib.sha256, repr=False)

    @property
    def digest(self) -> str:
        return self.sha.hexdigest()

    def record(self, label: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{label}: {why}")


@dataclass
class Op:
    """One operation: ``run`` is the timed library call; ``check`` takes
    its result and returns (ok, why, bytes to hash)."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, str, bytes]]


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@functools.cache
def _reference_inputs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # made on first use, so that they are not part of the timed set-up;
    # the output buffer is a copy so that its pages are touched up front
    big = np.random.default_rng(1).standard_normal(4_000_000)
    return np.random.default_rng(0).standard_normal(500_000), big, big.copy()


def reference_seconds() -> float:
    """Wall seconds of a fixed single-threaded kernel that shares no code
    with concmeter (about 35 ms).  Its parts follow the ways the host
    slows down: a sort and an exp over 500k doubles that stay in cache, an
    exp and a sum streaming 4M doubles that do not, 300k normal variates
    from numpy's generator, and an interpreter loop.  The host's speed
    drifts by up to 2x over minutes; an operation's time over this
    kernel's time, taken around it, cancels most of that drift."""
    small, big, out = _reference_inputs()
    start = time.perf_counter()
    np.sort(small)
    np.exp(small)
    np.exp(big, out=out)
    out.sum()
    np.random.default_rng(7).standard_normal(300_000)
    total = 0.0
    for i in range(40_000):
        total += i * 0.5
    return time.perf_counter() - start


def run_ops(ops: list[Op]) -> PassOutcome:
    outcome = PassOutcome()
    ref = reference_seconds()
    for op in ops:
        c0, w0 = cpu_seconds(), time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:
            result = exc
        w1, c1 = time.perf_counter(), cpu_seconds()
        ref_after = reference_seconds()
        outcome.times[op.label] = (w1 - w0, c1 - c0, (ref + ref_after) / 2)
        ref = ref_after
        if isinstance(result, Exception):
            ok, why, blob = False, f"{type(result).__name__}: {result}", b""
        else:
            try:
                ok, why, blob = op.check(result)
            except Exception as exc:
                ok, why, blob = False, f"{type(exc).__name__}: {exc}", b""
        outcome.sha.update(op.label.encode() + b"\0" + blob)
        outcome.record(op.label, ok, why)
    return outcome


def build(name: str, seed: int, work_dir: Path, small: bool = False
          ) -> Callable[[], PassOutcome]:
    """Make the inputs of workload ``name`` and return its pass function.

    ``small`` shrinks every size so the benchmark's own tests run quickly;
    the timed benchmark never sets it.
    """
    if name == "demo":
        ops = _demo(seed, work_dir, small)
    elif name == "beta_sweep":
        ops = _beta_sweep(seed, small)
    elif name == "radial_maps":
        ops = _radial_maps(small)
    else:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    return lambda: run_ops(ops)


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

def demo_config(seed: int, small: bool) -> dict:
    cfg = json.loads((HERE / "demo.json").read_text())
    cfg["seed"] = seed
    if small:
        for job in cfg["jobs"]:
            job["N"] = 2000
            if "probes" in job:
                job["probes"] = 2000
            if "num_pairs" in job:
                job["num_pairs"] = 50
    return cfg


def run_demo_config(cfg_path: Path, out_dir: Path, jobs: int = 1) -> int:
    return cli.main(["run", str(cfg_path), "--out", str(out_dir), "--jobs", str(jobs)])


def _demo(seed: int, work_dir: Path, small: bool) -> list[Op]:
    """Each job as its own ``concmeter run`` of a one-job config, so that
    every job is timed on its own.  A job's seed is the config seed, so
    it computes what it computes inside the full config; only the job
    index in its report reads 0."""
    cfg = demo_config(seed, small)
    ops = []
    for job in cfg["jobs"]:
        job_id = job["id"]
        cfg_path = work_dir / f"demo-{job_id}.json"
        cfg_path.write_text(json.dumps({**cfg, "jobs": [job]}, indent=1))

        def run(cfg_path=cfg_path):
            out_dir = Path(tempfile.mkdtemp(prefix="reports-", dir=work_dir))
            return run_demo_config(cfg_path, out_dir), out_dir

        def check(result, job_id=job_id):
            code, out_dir = result
            try:
                report = out_dir / f"{job_id}.json"
                blob = report.read_bytes() if report.exists() else b""
                verdict = json.loads(blob)["verdict"] if blob else "missing"
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            return (code == 0 and verdict in _OK_VERDICTS,
                    f"exit code {code}, verdict {verdict}", blob)

        ops.append(Op(job_id, run, check))
    return ops


# ---------------------------------------------------------------------------
# beta_sweep
# ---------------------------------------------------------------------------

def _beta_sweep(seed: int, small: bool) -> list[Op]:
    count = 2000 if small else 30000
    big, mid = (64, 16) if small else (1024, 256)
    lp = normspace.lp
    inf = normspace.INF
    # (variant, K, measure, L): what `concmeter beta` evaluates per n
    cases = [
        ("beta_tilde", lp(2, mid), measures.haar_sphere(mid), lp(inf, mid)),
        ("beta_tilde", lp(2, big), measures.haar_sphere(big), lp(inf, big)),
        ("beta", lp(2, mid), measures.ggp(1.5, mid), lp(1, mid)),
    ]

    def check(est):
        ok = math.isfinite(est.value) and 1.0 <= est.value <= est.lam.lam
        return (ok, f"value {est.value!r}, lambda {est.lam.lam!r}",
                json.dumps(est.to_config(), sort_keys=True).encode())

    ops = []
    for variant, K, measure, L in cases:
        def run(variant=variant, K=K, measure=measure, L=L):
            return getattr(parameters, variant)(K, measure, L, count=count, seed=seed)

        ops.append(Op(f"{variant}({measure.family}, n={K.dim})", run, check))
    return ops


# ---------------------------------------------------------------------------
# radial_maps
# ---------------------------------------------------------------------------

def _radial_maps(small: bool) -> list[Op]:
    # The maps are analytic, so the workload seed selects nothing here.
    dims = (8, 16) if small else (64, 256, 1024)

    def check(result):
        u, lip = result
        ok = (bool(np.all(np.diff(u.knots) >= 0.0))
              and bool(np.all(np.diff(u.values) >= 0.0))
              and math.isfinite(lip) and lip > 0.0)
        return (ok, f"{u.knots.size} knots, lipschitz {lip!r}",
                u.knots.tobytes() + u.values.tobytes() + repr(lip).encode())

    ops = []
    for p in (1.0, 1.5, 2.0):
        for n in dims:
            def run(p=p, metric=normspace.lp(p, n)):
                u = transport.radial_transport(
                    measures.radial_cdf(measures.ggp(p, metric.dim), metric),
                    measures.radial_cdf(measures.uniform_ball(metric), metric))
                return u, transport.lipschitz_constant(u)

            ops.append(Op(f"radial(p={p}, n={n})", run, check))
    return ops
