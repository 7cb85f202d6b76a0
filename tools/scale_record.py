"""Scale record: verdict, point counts, time, peak memory and report digest
of each job of ``configs/scale.json``, the checks at the stated scale.

Parses the config with ``cli.validate_config`` and runs each job with
``verify.run_check``, as ``concmeter run`` does, in a fresh Python process
with one BLAS thread (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1) and the stream threads' default, one per
usable core; a job added to the config needs no code here.  Per job it
prints the verdict, the violations, the admitted and informative grid
points (``verify.grid_points``), the first admitted eps (a pair's
half-distance for ``separated_sets``), the wall seconds of the check call
(import and interpreter start not counted), the process's peak RSS in MiB
and the SHA-256 of the report's JSON, and last one JSON object with all
of them.  Digests and counts are a function of
the code and the numpy release, seconds and RSS of the host.  An image at
n = 1024 and N = 1e5 is 781 MiB, so such a job needs about 0.9 GiB.  The
library is imported from this checkout's ``src/``, never from an
installed copy.

Usage::

    python tools/scale_record.py
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from concmeter import cli, rng, verify  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"concmeter was imported from {cli.__file__}, not from {ROOT / 'src'}")

CONFIG = "configs/scale.json"
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_job(task: tuple[dict, str, dict]) -> dict:
    """Run one ``cli.validate_config`` task in this process: its verdict,
    point counts, seconds, peak RSS and digest."""
    record, check, params = task
    start = time.perf_counter()
    report = verify.run_check(check, **params)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KiB on Linux
    text = report.to_json()
    admitted, informative = verify.grid_points(json.loads(text))
    return {"job": record["id"], "check": check, "resolved": record["resolved"],
            "verdict": report.verdict, "violations": report.violations,
            "admitted": int(admitted.sum()), "informative": int(informative.sum()),
            "first_admitted_eps": report.eps[admitted.argmax()] if admitted.any() else None,
            "wall_s": round(wall, 3), "peak_rss_mib": round(peak, 1),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "stream_threads": rng._threads()}


def main() -> None:
    os.environ.pop("CONCMETER_SEED", None)   # it would override every seed
    tasks = cli.validate_config(json.loads((ROOT / CONFIG).read_text()))
    if len(sys.argv) == 3 and sys.argv[1] == "--job":   # the child process
        print(json.dumps(run_job(tasks[int(sys.argv[2])])))
        return
    env = {**os.environ, **ONE_BLAS_THREAD}
    print(f"{'job':<20} {'verdict':<14} {'viol':>4} {'adm':>4} {'inf':>4} {'eps0':>8} "
          f"{'wall':>10} {'peak RSS':>12}  sha256", flush=True)
    rows = []
    for index in range(len(tasks)):
        out = subprocess.run([sys.executable, __file__, "--job", str(index)], env=env,
                             capture_output=True, text=True, check=True).stdout
        rows.append(row := json.loads(out.splitlines()[-1]))
        eps0 = "-" if row["first_admitted_eps"] is None else f"{row['first_admitted_eps']:.4g}"
        print(f"{row['job']:<20} {row['verdict']:<14} {row['violations']:>4} {row['admitted']:>4} "
              f"{row['informative']:>4} {eps0:>8} {row['wall_s']:8.3f} s "
              f"{row['peak_rss_mib']:8.1f} MiB  {row['sha256']}", flush=True)
    print(json.dumps({"config": CONFIG, "jobs": rows}))


if __name__ == "__main__":
    main()
