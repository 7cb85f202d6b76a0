"""The two push-forward maps: norm-ratio rescaling and radial transport.

norm_ratio_map rescales each point so that its L-norm equals its
K-norm, ``x -> x * |x|_K / |x|_L``; it carries any measure on the
K-sphere onto the L-sphere while moving points as little as the norm
gap forces.  Under the sandwich |.|_K <= |.|_L <= lam |.|_K it is
(2 lam + 1)-Lipschitz from the K-metric to the L-metric, which
:func:`ratio_map_lipschitz` probes on pairs of points.  Each map is
defined once by its row norms (:func:`ratio_norms`, :func:`radial_norms`).

radial_transport couples two radially symmetric measures through their
radial quantiles: u = F_target^{-1} o F_source is the unique monotone
map with u(0) = 0 matching the radial laws, and lifting it radially,
``x -> x * u(|x|) / |x|``, pushes one measure onto the other.  The map
is stored as a piecewise-linear interpolant with knots placed where
the source law has mass, plus a handle on the exact composition so the
Lipschitz constant can be resolved by local refinement (for
exponential-to-ball transports the steepest slope sits at the origin,
where fixed grids under-resolve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import rng
from .concentration import median_of_sorted
from .measures import RadialCdf
from .normspace import NormSpec, norm_eval, norm_evals


# ---------------------------------------------------------------------------
# Both maps are x -> x num / den, with the row norms (num, den) of each map
# ---------------------------------------------------------------------------

def ratio_norms(K: NormSpec, L: NormSpec) -> Callable:
    """rows -> (|x|_K, |x|_L): the row norms of the norm-ratio map, from
    one pass over the rows."""
    return lambda rows: norm_evals((K, L), rows)


def radial_norms(u: Callable, L: NormSpec) -> Callable:
    """rows -> (u(|x|_L), |x|_L): the row norms of the radial map."""
    def norms(rows):
        r = norm_eval(L, rows)
        return u(r), r
    return norms


def _lift(norms: Callable, rows: np.ndarray, out: Optional[np.ndarray] = None) -> tuple:
    """``(image, num, den)``: row k of ``rows`` times num[k] / den[k], and 0
    where den[k] = 0, for ``(num, den) = norms(rows)``; ``out`` (``rows``
    itself allowed) receives the image.  Every step is row by row."""
    num, den = norms(rows)
    ratio = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    return np.multiply(rows, ratio[:, None], out=out), num, den


def _push(norms: Callable, x) -> np.ndarray:
    """The lift of a vector, or row-wise of a matrix; 0 -> 0."""
    x = np.asarray(x, dtype=np.float64)
    return _lift(norms, np.atleast_2d(x))[0].reshape(x.shape)


def norm_ratio_map(K: NormSpec, L: NormSpec, x: np.ndarray) -> np.ndarray:
    """x * |x|_K / |x|_L for a vector or row-wise for a matrix; 0 -> 0."""
    return _push(ratio_norms(K, L), x)


def ratio_map_lipschitz(K: NormSpec, L: NormSpec, points: np.ndarray, *,
                        pairs: int = 100000, seed: int = 0x11F) -> float:
    """Empirical sup of |pi(x) - pi(y)|_L / |x - y|_K over probe pairs.

    Half the pairs are independent point pairs, half are local
    perturbations of a point (scale ~ 1e-3 of the typical K-norm),
    which probe the worst-case local ratio.  Coincident pairs count 0.
    The pairs go in chunks through ``rng._chunk_map``, each chunk drawn
    from its own key block, so one chunk of pairs per stream thread is held
    at a time.
    """
    points = np.asarray(points, dtype=np.float64)
    n_pts, dim = points.shape
    half = pairs // 2
    perturbation_scale = 1e-3 * float(median_of_sorted(np.sort(norm_eval(K, points))))
    pi = ratio_norms(K, L)
    step = rng.block_rows(dim)

    def ratios(lo: int, hi: int) -> tuple:
        gen = rng._generator(seed, 0, lo // step)
        xa = points[gen.integers(n_pts, size=hi - lo)]
        xb = points[gen.integers(n_pts, size=hi - lo)]
        local = max(0, min(hi, half) - lo)    # the pairs below half
        noise = gen.standard_normal((local, dim))
        noise *= perturbation_scale / norm_eval(K, noise)[:, None]
        xb[:local] = xa[:local] + noise
        num = norm_eval(L, _lift(pi, xa)[0] - _lift(pi, xb)[0])
        den = norm_eval(K, xa - xb)
        return (np.divide(num, den, out=np.zeros_like(num), where=den > 0.0),)

    ratio, = rng._chunk_map(pairs, step, ratios)
    return float(ratio.max())


# ---------------------------------------------------------------------------
# Monotone radial maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneMap:
    """Nondecreasing scalar map with u(0) = 0, stored piecewise-linear.

    Evaluation interpolates linearly between knots and extrapolates
    linearly with the last slope beyond them.  ``exact`` optionally
    holds the underlying closed-form map for local refinement.
    """

    knots: np.ndarray
    values: np.ndarray
    exact: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if k.ndim != 1 or k.shape != v.shape or k.size < 2:
            raise ValueError("knots/values must be 1-d arrays of equal length >= 2")
        if k[0] != 0.0 or v[0] != 0.0:
            raise ValueError("a monotone radial map must anchor u(0) = 0")
        if np.any(np.diff(k) <= 0.0):
            raise ValueError("knots must be strictly increasing")
        if np.any(np.diff(v) < -1e-12 * max(1.0, float(np.abs(v).max()))):
            raise ValueError("values must be nondecreasing")
        k.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        out = np.interp(r, self.knots, self.values)
        last_slope = ((self.values[-1] - self.values[-2])
                      / (self.knots[-1] - self.knots[-2]))
        beyond = r > self.knots[-1]
        out = np.where(beyond, self.values[-1] + (r - self.knots[-1]) * last_slope, out)
        return out


def radial_transport(F_source: RadialCdf, F_target: RadialCdf, *,
                     knots: int = 4096) -> MonotoneMap:
    """Monotone map matching the radial quantiles of two measures.

    u = F_target.quantile_log o F_source.log_eval (the quantile coupling,
    in log space where the plain CDF underflows), sampled on the union of
    a quantile-spaced grid (dense wherever the source has mass) and a
    uniform grid, then thinned to at most ``knots`` knots.  Fails with a
    diagnostic if either CDF has flat stretches on the probed range
    (quantile matching needs strictly increasing laws).
    """
    q_lo, q_hi = 1e-7, 1.0 - 1e-7    # quantile mass left out at each end
    r_hi = float(F_source.quantile(np.asarray(q_hi)))
    if not np.isfinite(r_hi) or r_hi <= 0.0:
        raise ValueError("source radial law has no usable upper quantile")
    log_q_hi = math.log(q_hi)

    def exact(r):
        lq = np.minimum(np.asarray(F_source.log_eval(r), dtype=np.float64),
                        log_q_hi)
        return np.asarray(F_target.quantile_log(lq), dtype=np.float64)

    # seed grid: quantile-spaced with geometric tails, uniform, and
    # origin-resolving geometric points
    qs = np.unique(np.concatenate([np.linspace(q_lo, q_hi, knots // 8),
                                   np.geomspace(q_lo, 0.5, knots // 16),
                                   1.0 - np.geomspace(q_lo, 0.5, knots // 16)]))
    r_quant = np.asarray(F_source.quantile(qs), dtype=np.float64)
    r_unif = np.linspace(0.0, r_hi, knots // 8)
    r_geo = np.geomspace(max(r_hi * 1e-6, 1e-12), r_hi, knots // 16)
    grid = np.unique(np.concatenate([[0.0], r_quant, r_unif, r_geo]))
    grid = grid[(grid >= 0.0) & (grid <= r_hi)]
    vals = exact(grid)
    vals[grid == 0.0] = 0.0

    # adaptive refinement: bisect every interval whose midpoint deviates
    # from the chord until the interpolant is uniformly tight or the
    # knot budget is exhausted
    span = float(vals[-1] - vals[0]) or 1.0
    tol = 2e-8 * span
    for _ in range(12):
        if grid.size >= knots:
            break
        mids = 0.5 * (grid[:-1] + grid[1:])
        vmids = exact(mids)
        gap = np.abs(vmids - 0.5 * (vals[:-1] + vals[1:]))
        need = (gap > tol) & (np.diff(grid) > 1e-12 * r_hi)
        if not need.any():
            break
        if grid.size + int(need.sum()) > knots:
            worst = np.argsort(gap * need)[::-1][: knots - grid.size]
            mask = np.zeros_like(need)
            mask[worst] = need[worst]
            need = mask
        order = np.argsort(np.concatenate([grid, mids[need]]))
        grid = np.concatenate([grid, mids[need]])[order]
        vals = np.concatenate([vals, vmids[need]])[order]

    if np.any(np.diff(vals) < 0.0):
        raise ValueError("quantile matching failed: target quantile not "
                         "monotone on the probed range (flat CDF region?)")
    flat_frac = float(np.mean(np.diff(vals) <= 0.0))
    if flat_frac > 0.2:
        raise ValueError("quantile matching failed: a CDF is flat on "
                         f"{flat_frac:.0%} of the probed range")
    keep = np.concatenate([[True], np.diff(grid) > 1e-12 * r_hi])
    grid, vals = grid[keep], vals[keep]
    vals = np.maximum.accumulate(vals)

    return MonotoneMap(knots=grid, values=vals, exact=exact)


def lipschitz_constant(u: MonotoneMap) -> float:
    """Max slope of a monotone map, sharpened around the argmax.

    Starts from the knot-interval slopes, then zooms into the steepest
    interval with three shrinking 64-point grids (factor 10 each),
    re-evaluating through the exact map when available.
    """
    k, v = u.knots, u.values
    if k.size < 3:
        raise ValueError("need at least 3 knots")
    slopes = np.diff(v) / np.diff(k)
    best = float(slopes.max())
    idx = int(slopes.argmax())
    lo, hi = float(k[idx]), float(k[idx + 1])
    fn = u.exact if u.exact is not None else u
    for _ in range(3):
        grid = np.linspace(lo, hi, 64)
        vals = np.asarray(fn(grid), dtype=np.float64)
        s = np.diff(vals) / np.diff(grid)
        j = int(s.argmax())
        best = max(best, float(s.max()))
        width = (hi - lo) / 10.0
        center = 0.5 * (grid[j] + grid[j + 1])
        lo = max(lo, center - 0.5 * width)
        hi = min(hi, center + 0.5 * width)
    return best


def radial_map(u: MonotoneMap, L: NormSpec, x: np.ndarray) -> np.ndarray:
    """x * u(|x|_L) / |x|_L for a vector or row-wise matrix; 0 -> 0."""
    return _push(radial_norms(u, L), x)

