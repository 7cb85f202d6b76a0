"""Scale record: time, peak memory and report digest of three checks at the
stated scale, n = 1024 and N = 1e5.

Runs each job in a fresh Python process with one BLAS thread
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set
to 1) and the stream threads' default, one per usable core:

- ``norm_ratio_transfer``: the sphere pushed from l2 to l1, default eps
  grid, ``sphere`` profile, seed 7;
- ``separated_sets``: 1000 half-space pairs on the sphere in l2,
  ``sphere`` profile, seed 7;
- ``radial_transfer``: ggp(1) pushed to the uniform l1 ball, default eps
  grid and profile, seed 7.  Its sample chunks are whole key blocks of
  256 rows, in which the radial map's norms take chunks of fewer rows:
  the norms run on the stream thread of their sample chunk.

For each job it prints the wall seconds of the check call (the import and
the interpreter start are not counted), the process's peak RSS in MiB
(import included) and the SHA-256 of the report's JSON, and last one JSON
object with all of them.  The digests are a function of the code and the
numpy release; the seconds and the RSS are of the host it runs on.  The
image at this scale is 781 MiB, so each process needs about 0.9 GiB.

Usage::

    PYTHONPATH=src python tools/scale_record.py
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
N_DIM, COUNT, SEED = 1024, 100_000, 7
JOBS = ("norm_ratio_transfer", "separated_sets", "radial_transfer")
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_job(name: str) -> dict:
    """Run one job in this process: its seconds, peak RSS and digest."""
    from concmeter import measures, normspace, rng, verify

    sphere, l1, l2 = (measures.haar_sphere(N_DIM), normspace.lp(1, N_DIM),
                      normspace.lp(2, N_DIM))
    start = time.perf_counter()
    if name == "norm_ratio_transfer":
        report = verify.check_norm_ratio_transfer(
            K=l2, L=l1, measure=sphere, eps_grid=verify.default_eps_grid(),
            count=COUNT, seed=SEED, profile="sphere")
    elif name == "separated_sets":
        report = verify.check_separated_sets(
            measure=sphere, metric=l2, num_pairs=1000, count=COUNT, seed=SEED,
            profile="sphere")
    else:
        report = verify.run_check("radial_transfer", p=1.0, n=N_DIM, count=COUNT, seed=SEED)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KiB on Linux
    return {"job": name, "wall_s": round(wall, 3), "peak_rss_mib": round(peak, 1),
            "sha256": hashlib.sha256(report.to_json().encode()).hexdigest(),
            "stream_threads": rng._threads()}


def main() -> None:
    if len(sys.argv) == 3 and sys.argv[1] == "--job":   # the child process
        print(json.dumps(run_job(sys.argv[2])))
        return
    env = {k: v for k, v in os.environ.items() if k != "CONCMETER_SEED"}
    env.update(ONE_BLAS_THREAD, PYTHONPATH=str(ROOT / "src"))
    rows = []
    for name in JOBS:
        out = subprocess.run([sys.executable, __file__, "--job", name], env=env,
                             capture_output=True, text=True, check=True).stdout
        rows.append(json.loads(out.splitlines()[-1]))
        row = rows[-1]
        print(f"{name:<20} {row['wall_s']:8.3f} s {row['peak_rss_mib']:8.1f} MiB  "
              f"{row['sha256']}", flush=True)
    print(json.dumps({"n": N_DIM, "N": COUNT, "seed": SEED, "jobs": rows}))


if __name__ == "__main__":
    main()
