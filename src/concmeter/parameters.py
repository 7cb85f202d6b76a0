"""Comparison functionals between normed probability spaces.

beta weighs the containment constant of a pair of norms by how the
reference measure actually sees them: for a transform T making the
sandwich L <= TK <= lam L feasible,

    beta(T) = lam * median(|x|_K) / median(|x|_{T^{-1}L}),

minimized over a restricted transform family (positive scalars by
default, optionally diagonal maps).  beta_tilde replaces medians with
means.  Both are upper bounds on the infimum over all of GL_n, which
itself never exceeds the Banach-Mazur distance of the two bodies; the
payoff is that beta can stay bounded when the Banach-Mazur distance
grows (the Euclidean-ball-to-crosspolytope pair is the canonical
example), which is exactly what makes concentration transfer through
the norm-ratio map useful.

Within the scalar family the scalar cancels algebraically, so

    beta(scalars) = sup_y (|y|_L / |y|_K) * stat(|x|_K) / stat(|x|_L),

which is what the implementation evaluates; replacing L by any dilate
leaves the value untouched, and that invariance is asserted in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .concentration import (MEDIAN_MIN_COUNT, MedianEstimate, StatEstimate,
                            empirical_median, mean_estimate)
from .measures import MeasureSpec, sample_map
from .normspace import ContainmentConstant, NormSpec, containment_constant, norm_evals


@dataclass(frozen=True)
class BetaEstimate:
    """One evaluated comparison functional, with its ingredients.

    ``locations`` carries both the mean and the median of each norm (for
    log-concave measures the two are equivalent up to constants, and the
    report shows how far apart they actually are).
    """

    value: float
    variant: str                    # "beta" (medians) or "beta_tilde" (means)
    transform: dict                 # descriptor of the argmin transform
    lam: ContainmentConstant        # sandwich constants at the argmin
    numerator: MedianEstimate | StatEstimate
    denominator: MedianEstimate | StatEstimate
    dim: int
    count: int
    locations: dict = None

    def to_config(self) -> dict:
        cfg = {
            "variant": self.variant,
            "value": self.value,
            "lambda": self.lam.lam,
            "scale": self.lam.scale,
            "exact_lambda": self.lam.exact,
            "transform": self.transform,
            "numerator": self.numerator.value,
            "numerator_ci": self.numerator.half_width,
            "denominator": self.denominator.value,
            "denominator_ci": self.denominator.half_width,
            "dim": self.dim,
            "count": self.count,
        }
        if self.locations:
            cfg["locations"] = dict(self.locations)
        return cfg


def norm_values(measure: MeasureSpec, norms: Sequence[NormSpec], count: int,
                seed: int) -> list[np.ndarray]:
    """Norm evaluations of a batch, streamed through
    :func:`concmeter.measures.sample_map` so the batch is never held.

    ``norm_evals`` reduces row by row, so results are identical to
    materializing the batch first (up to the last bits of a transform's
    matrix product under more than one BLAS thread).
    """
    return list(sample_map(measure, count, seed, lambda rows: norm_evals(norms, rows)))


def _beta_impl(K: NormSpec, measure: MeasureSpec, L: NormSpec, *, variant: str,
               count: int, seed: int, diagonals: Optional[Sequence[np.ndarray]]
               ) -> BetaEstimate:
    if K.dim != L.dim or K.dim != measure.dim:
        raise ValueError("K, L and the measure must share one dimension")
    if count < MEDIAN_MIN_COUNT:
        raise ValueError(f"{variant} needs at least {MEDIAN_MIN_COUNT} samples, got {count}")

    candidates: list[tuple[dict, NormSpec]] = [({"kind": "scalar", "t": None}, L)]
    if diagonals is not None:
        base = L.transform if L.transform is not None else np.eye(L.dim)
        for d in diagonals:
            d = np.asarray(d, dtype=np.float64)
            if d.shape != (L.dim,) or np.any(d <= 0.0):
                raise ValueError("diagonal candidates must be positive vectors")
            candidates.append(({"kind": "diagonal", "entries": d.tolist()},
                               NormSpec(dim=L.dim, p=L.p, transform=base * d)))

    norms = [K] + [cand for _, cand in candidates]
    values = norm_values(measure, norms, count, seed)
    medians = [empirical_median(v) for v in values]
    means = [mean_estimate(v) for v in values]
    stats = medians if variant == "beta" else means
    num = stats[0]
    if num.value <= 0.0:
        raise ValueError("the K-norm statistic must be positive")

    best: Optional[BetaEstimate] = None
    for k, (desc, normT) in enumerate(candidates, start=1):
        cc = containment_constant(K, normT)
        den = stats[k]
        if den.value <= 0.0:
            continue
        sup_ratio = cc.scale * cc.lam
        value = sup_ratio * num.value / den.value
        if desc["kind"] == "scalar":
            # smallest feasible scalar under the sandwich convention
            desc = {"kind": "scalar", "t": 1.0 / cc.scale}
        locations = {
            "numerator_median": medians[0].value,
            "numerator_mean": means[0].value,
            "denominator_median": medians[k].value,
            "denominator_mean": means[k].value,
        }
        est = BetaEstimate(value=value, variant=variant, transform=desc,
                           lam=cc, numerator=num, denominator=den,
                           dim=K.dim, count=count, locations=locations)
        if best is None or est.value < best.value - 1e-15:
            best = est
    if best is None:
        raise ValueError("no feasible transform in the candidate family")
    return best


def beta(K: NormSpec, measure: MeasureSpec, L: NormSpec, *, count: int = 100000,
         seed: int = 0xBE7A, diagonals: Optional[Sequence[np.ndarray]] = None
         ) -> BetaEstimate:
    """Median-ratio functional, minimized over the transform family.

    The returned value is an upper bound on the full-GL_n infimum: the
    family is restricted, so shrinking it can only raise the minimum.
    """
    return _beta_impl(K, measure, L, variant="beta", count=count, seed=seed,
                      diagonals=diagonals)


def beta_tilde(K: NormSpec, measure: MeasureSpec, L: NormSpec, *,
               count: int = 100000, seed: int = 0xBE7A,
               diagonals: Optional[Sequence[np.ndarray]] = None) -> BetaEstimate:
    """Mean-ratio variant of :func:`beta` (same family, means for medians)."""
    return _beta_impl(K, measure, L, variant="beta_tilde", count=count,
                      seed=seed, diagonals=diagonals)


# ---------------------------------------------------------------------------
# Sup-norm embedding bounds
# ---------------------------------------------------------------------------

def embedding_lower_bound(alpha_at_eps: float, small_ball_mass: float) -> float:
    """Minimum coordinate count (1 - mass) / (2 alpha) forced on any
    sup-norm embedding; +inf when the concentration value is zero."""
    if not 0.0 <= small_ball_mass <= 1.0:
        raise ValueError("small_ball_mass must lie in [0, 1]")
    if alpha_at_eps < 0.0:
        raise ValueError("alpha must be nonnegative")
    if alpha_at_eps == 0.0:
        return math.inf
    return (1.0 - small_ball_mass) / (2.0 * alpha_at_eps)


def cube_concentration_floor(small_ball_mass: float, n: int) -> float:
    """(1 - mass) / (2n): no measure on the cube concentrates faster."""
    if not 0.0 <= small_ball_mass <= 1.0:
        raise ValueError("small_ball_mass must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be positive")
    return (1.0 - small_ball_mass) / (2.0 * n)


def cube_beta_hypothesis_threshold(C: float, n: int) -> float:
    """The median level the cube lower bound needs: m_K must exceed
    (1/2) sqrt(log(16 C) / log(64 C n)) (natural logs)."""
    if C < 1.0 / 16.0:
        raise ValueError("C must be >= 1/16 so log(16 C) is nonnegative")
    return 0.5 * math.sqrt(math.log(16.0 * C) / math.log(64.0 * C * n))


def cube_beta_lower_bound(C: float, c: float, n: int) -> float:
    """Growth floor sqrt(log 16C)/28 * sqrt(c n)/log(64 C n) for the
    median-ratio functional against the cube, natural logs throughout."""
    if C < 1.0 / 16.0:
        raise ValueError("C must be >= 1/16 so log(16 C) is nonnegative")
    if c <= 0.0 or n < 1:
        raise ValueError("need c > 0 and n >= 1")
    return (math.sqrt(math.log(16.0 * C)) / 28.0
            * math.sqrt(c * n) / math.log(64.0 * C * n))
