"""Spans and counts around the public functions of each concmeter module.

The tracer measures the library from outside: it replaces every public
function of the layer modules with a wrapper that records a span (name,
start, end, parent) and, for a few functions, counts derived from the
result.  A function object is replaced in every ``concmeter`` module
namespace that holds it, so calls made inside the package (``verify``
calling its imported ``sample``, ``rng.gammas`` calling ``normals``
through module globals) are seen too.  Spans stay in memory until the
benchmark writes them out.

Self time of a span is its duration minus the part of it that its child
spans cover; a layer's self time is the sum over its functions' spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "concmeter"
LAYERS = ("rng", "normspace", "measures", "concentration", "transport",
          "parameters", "verify", "cli")

# Draws of the counter-based streams and how many slots each element takes.
_VARIATE_SLOTS = {"rng.uniforms": 1, "rng.signs": 1, "rng.exponentials": 1,
                  "rng.normals": 2}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span in the same list, or -1


class Tracer:
    """Records spans and counts while installed; one record per install."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def installed(self):
        """Patch the layer functions for the duration of the block, starting
        a fresh record of spans and counts."""
        self.spans, self.counts = [], Counter()
        self._stack.clear()
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        undo = []
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    undo.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])
        try:
            yield self
        finally:
            for ns, attr, obj in undo:
                setattr(ns, attr, obj)

    def _inside(self, *names: str) -> bool:
        return any(self.spans[i].name in names for i in self._stack)

    def _wrap(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                count(result)
            return result

        return traced

    # -- counts, each taken from the result of one function --------------

    def _variates(self, name: str, result) -> None:
        if not self._inside(*_VARIATE_SLOTS):
            self.counts["rng.variates"] += result.size * _VARIATE_SLOTS[name]

    def _count_rng_uniforms(self, result):
        self._variates("rng.uniforms", result)

    def _count_rng_signs(self, result):
        self._variates("rng.signs", result)

    def _count_rng_exponentials(self, result):
        self._variates("rng.exponentials", result)

    def _count_rng_normals(self, result):
        self._variates("rng.normals", result)
        if self._inside("rng.gammas"):
            self.counts["rng.gammas.normals"] += result.size

    def _count_rng_gammas(self, result):
        self.counts["rng.gammas.out"] += result.size

    def _count_measures_sample(self, result):
        self.counts["measures.rows"] += result.count

    def _count_parameters_norm_values(self, result):
        self.counts["measures.rows"] += result[0].size

    def _count_normspace_norm_eval(self, result):
        self.counts["normspace.norm_eval.rows"] += result.size

    def _count_measures_gamma_cdf(self, result):
        self.counts["measures.gamma_cdf.calls"] += 1
        self.counts["measures.gamma_cdf.points"] += result.size
        if self._inside("transport.radial_transport"):
            self.counts["transport.gamma_cdf.points"] += result.size

    def _count_concentration_concentration_lower_curve(self, result):
        self.counts["concentration.directions"] += result.family_size
        self.counts["concentration.sort_bytes"] += result.count * result.family_size * 8

    def _count_transport_radial_transport(self, result):
        self.counts["transport.knots"] += result.knots.size


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per span name."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out: dict[str, float] = defaultdict(float)
    for idx, span in enumerate(spans):
        out[span.name] += (span.end - span.start
                           - _covered(children[idx], span.start, span.end))
    return dict(out)


def uncovered(spans: list[Span], start: float, end: float) -> float:
    """Time in [start, end] that no top-level span covers."""
    roots = [(s.start, s.end) for s in spans if s.parent < 0]
    return (end - start) - _covered(roots, start, end)


def layer_metrics(spans: list[Span], counts: Counter, start: float,
                  end: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md)."""
    by_name = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, value in by_name.items():
        out[name.split(".", 1)[0] + ".self_s"] += value
    out["verify.check_separated_sets.self_s"] = by_name.get(
        "verify.check_separated_sets", 0.0)
    for key in ("rng.variates", "measures.rows", "normspace.norm_eval.rows",
                "measures.gamma_cdf.calls", "measures.gamma_cdf.points",
                "concentration.directions", "concentration.sort_bytes",
                "transport.knots"):
        out[key] = float(counts[key])
    out["rng.gammas.accept_ratio"] = _ratio(counts["rng.gammas.out"],
                                            counts["rng.gammas.normals"])
    out["transport.evals_per_knot"] = _ratio(counts["transport.gamma_cdf.points"],
                                             counts["transport.knots"])
    out["unattributed_s"] = uncovered(spans, start, end)
    return out


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when nothing was counted."""
    return num / den if den else 0.0
