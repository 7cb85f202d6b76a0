#!/usr/bin/env python3
"""Compare benchmark result files of two commits.

    python3 benchmarks/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Result files with the same name (same workload, seed and trace setting)
form a pair.  Per workload and metric it prints each side's median and
quartiles, the change's median as a share of the parent's, the share of
pairs the change wins (ties count for neither), and whether every pair
has the same output digest.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def better_directions() -> dict:
    spec = json.loads(SPEC.read_text()) if SPEC.exists() else {}
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent_dir, change_dir = (Path(a) for a in argv)
    better = better_directions()
    pairs = defaultdict(list)          # (workload, trace) -> [(parent, change)]
    for path in sorted(parent_dir.glob("*-seed*-trace*.json")):
        other = change_dir / path.name
        if other.exists():
            a, b = json.loads(path.read_text()), json.loads(other.read_text())
            pairs[(a["workload"], a["trace"])].append((a, b))
    if not pairs:
        print("no result files with matching names", file=sys.stderr)
        return 1
    for (workload, trace), runs in sorted(pairs.items()):
        same = sum(a["digest"] == b["digest"] for a, b in runs)
        print(f"{workload} (trace {trace}): {len(runs)} pairs, "
              f"digests equal in {same}/{len(runs)}")
        print(f"  {'metric':<36} {'parent q1/median/q3':>32} "
              f"{'change median':>14} {'ratio':>7} {'wins':>6}")
        for name in runs[0][0]["metrics"]:
            pa = [a["metrics"][name]["value"] for a, _ in runs]
            ch = [b["metrics"][name]["value"] for _, b in runs]
            sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(pa, ch))
            q1, med, q3 = quartiles(pa)
            ratio = statistics.median(ch) / med if med else float("nan")
            print(f"  {name:<36} {q1:>10.4g} {med:>10.4g} {q3:>10.4g} "
                  f"{statistics.median(ch):>14.4g} {ratio:>7.3f} "
                  f"{wins:>3}/{len(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
