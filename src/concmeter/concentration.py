"""Medians and intervals, empirical concentration lower bounds, analytic profiles.

The concentration function of a metric probability space is a supremum
over all Borel sets of measure >= 1/2 of the mass left outside their
eps-expansion.  Estimating that supremum from below only requires a
family of candidate sets whose expansions we can compute exactly; here
the candidates are half-spaces {<theta, x> <= t} cut at the empirical
median of the linear functional, whose eps-expansion in a norm metric
is again a half-space with the threshold pushed out by
``eps * |theta|_dual``.  The resulting curve

    alpha_hat(eps) = max over directions of (mass beyond the expansion)

is therefore a statistical lower bound on the true concentration
function; every report labels it as such.  Upper bounds are never
estimated: they come from the analytic profile catalog of the form
``C exp(-c eps^2 n)``, so all inequality checks downstream are
one-sided and conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng
from .normspace import NormSpec, dual_norm, norm_eval

DEFAULT_EXTRA_DIRECTIONS = 32

_DIRECTION_CHUNK = 32

# OpenBLAS computes a product of at most this many elements with a
# small-matrix kernel whose last bits differ from those of its blocked
# kernel (OpenBLAS 0.3.31 on AVX-512, at n >= 32)
_SMALL_PRODUCT = 1200


# ---------------------------------------------------------------------------
# Medians and intervals: every 95% half-width an estimate or report carries
# ---------------------------------------------------------------------------

_Z95 = 1.959963984540054

# the fewest samples a median estimate takes, and beta and beta_tilde
MEDIAN_MIN_COUNT = 100


def median_of_sorted(v: np.ndarray):
    """Median along the last axis of sorted values with no NaN, bit for bit as
    np.median: the mean of the two middle order statistics, a zero signed +."""
    n = v.shape[-1]
    return 0.5 * (v[..., (n - 1) // 2] + v[..., n // 2]) + 0.0


@dataclass(frozen=True)
class MedianEstimate:
    """Sample median with a distribution-free order-statistic 95% CI."""

    value: float
    ci_low: float
    ci_high: float
    count: int

    @property
    def half_width(self) -> float:
        return max(self.ci_high - self.value, self.value - self.ci_low)


def empirical_median(values: np.ndarray) -> MedianEstimate:
    """Median of a sample with a distribution-free CI: the order statistics
    at the binomial(N, 1/2) 2.5%/97.5% ranks (normal approximation with
    continuity correction).  A sample with a NaN has no median: ValueError."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    if n < MEDIAN_MIN_COUNT:
        raise ValueError(f"need at least {MEDIAN_MIN_COUNT} samples for a median "
                         f"estimate, got {n}")
    if np.isnan(v[-1]):     # np.sort puts NaNs last
        raise ValueError(f"{np.count_nonzero(np.isnan(v))} of {n} samples are NaN: "
                         "no median estimate")
    spread = 0.5 * _Z95 * np.sqrt(n)
    lo_rank = max(int(np.floor(0.5 * n - spread)) - 1, 0)
    hi_rank = min(int(np.ceil(0.5 * n + spread)), n - 1)
    return MedianEstimate(value=float(median_of_sorted(v)), ci_low=float(v[lo_rank]),
                          ci_high=float(v[hi_rank]), count=n)


@dataclass(frozen=True)
class StatEstimate:
    """A sample mean with its CI half-width (ends would not reproduce it exactly)."""

    value: float
    half_width: float
    count: int


def mean_estimate(values: np.ndarray) -> StatEstimate:
    """Sample mean, with the half-width _Z95 * (sample std) / sqrt(N)."""
    n = values.size
    return StatEstimate(value=float(values.mean()),
                        half_width=float(_Z95 * values.std(ddof=1) / math.sqrt(n)),
                        count=n)


def binomial_ci(p_hat: np.ndarray, count: int) -> np.ndarray:
    """95% half-width for a binomial proportion, continuity corrected."""
    p = np.asarray(p_hat, dtype=np.float64)
    return _Z95 * np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / count) + 0.5 / count


def product_ci(pa: np.ndarray, pb: np.ndarray, count: int) -> np.ndarray:
    """Half-width for a product pa pb of masses: delta method, 1.96 (not _Z95), + 1/N."""
    var = (pb * pb * pa * (1 - pa) + pa * pa * pb * (1 - pb)) / count
    return 1.96 * np.sqrt(np.maximum(var, 0.0)) + 1.0 / count


@dataclass(frozen=True)
class ConcentrationCurve:
    """Empirical lower bound of a concentration function on an eps grid."""

    eps: np.ndarray
    alpha_hat: np.ndarray          # lower bound, nonincreasing in eps
    ci: np.ndarray = field(repr=False)
    argmax_direction: np.ndarray = field(repr=False)
    family_size: int = 0
    count: int = 0


def direction_family(dim: int, extra: int, seed: int) -> np.ndarray:
    """The n coordinate axes plus ``extra`` random gaussian directions.

    The gaussian rows are drawn in order from one stream, so the family
    with fewer extra directions is a row prefix of the one with more."""
    return np.vstack([np.eye(dim), rng._generator(seed, 0).standard_normal((extra, dim))])


def _axis_of(directions: np.ndarray) -> np.ndarray:
    """For each direction, i when it is exactly the unit axis e_i (one entry
    1.0, the others zero), else -1."""
    ones = directions == 1.0
    axis = (ones.sum(axis=1) == 1) & ((directions == 0.0) | ones).all(axis=1)
    return np.where(axis, ones.argmax(axis=1), -1)


def reduce_projections(data: np.ndarray, directions: np.ndarray, reduce) -> np.ndarray:
    """The results of ``reduce(row, k)`` for every direction k, stacked in
    the order of ``directions`` (``np.array`` of the list of results).

    ``row`` holds the projections <directions[k], x> of every sample row x,
    in an order of the rows that is not theirs; ``reduce`` may reorder it
    in place (a sort or a partition) and returns what it needs, because
    the next block overwrites it.  The projections are computed block by
    block of up to 32 directions into one ``(min(32, D), N8)`` buffer per
    call, N8 being N rounded up to a multiple of 8.

    Each block runs in two steps on the stream threads of
    ``rng._stream_pool``, made for this call and joined when it ends; copies,
    GEMM, sort and partition release the interpreter lock.  First the block
    is written into the buffer, one piece of sample rows per thread, the
    pieces running at once.  Then each thread calls ``reduce`` on the rows
    of its share of the block's directions.

    A block whose directions are all exact unit axes e_i is filled by
    copying column i of each piece into its buffer row.  On finite data a
    GEMM gives each such projection as x_i * 1 plus exact zeros, which is
    x_i, except that a -0.0 may come out +0.0: the two compare equal, so
    sorted rows and every count of values beyond a cut are the same, and
    ``median_of_sorted`` adds +0.0, so no report changes.

    Any other block is written by GEMMs ``chunk @ piece.T``.  On row-major
    data (C-ordered (N, n)) ``piece.T`` is passed as a transpose flag, and
    OpenBLAS packs it, transposing, for every block; on column-major data
    (an (N, n) view of a C-ordered (n, N) array, as the checks hold their
    images) ``piece.T`` is a plain matrix with leading dimension N and the
    GEMM takes no transpose.  With OpenBLAS a GEMM gives each element the
    bits of the whole product, in either layout, when its piece is a
    multiple of 8 rows long and its output has more than
    ``_SMALL_PRODUCT`` elements, so every piece is cut so, and the result
    depends neither on the number of threads nor on the BLAS thread count.
    A block of one direction is a matrix-vector product instead, whose sum
    order follows the layout (a dot product per row, or one pass per
    column), so on an input that is not row-major it is taken on row-major
    copies of ``rng.block_rows(n)`` rows of the piece at a time, which keep
    the bits of the whole product.
    When N is not a multiple of 8 there are at least two pieces, and the
    last one starts N8 - N rows early and ends at N.  The projections of
    those early rows are computed twice; the last piece then overwrites
    their first copies with the block's last N8 - N columns, so the first
    N columns hold every projection once.  An input too short for such
    pieces is copied, row-major (small products take kernels that differ
    between the layouts), with zero rows appended up to N8, and each block
    is one GEMM.
    """
    count, dim = data.shape
    body, spare = count - count % 8, -count % 8
    last_rows = (directions.shape[0] - 1) % _DIRECTION_CHUNK + 1   # the smallest block
    width = (_SMALL_PRODUCT // last_rows + 8) // 8 * 8    # the fewest columns of a piece
    least = 2 if spare else 1
    parts = min(max(rng._threads(), least), body // width)
    if parts < least:       # too few rows for such pieces: one GEMM on a row-major copy
        padded = np.zeros((count + spare, dim))
        padded[:count] = data
        data, body, spare, parts = padded, count + spare, 0, 1
    step = rng.block_rows(dim)
    results = [None] * directions.shape[0]
    buf = np.empty((min(_DIRECTION_CHUNK, directions.shape[0]), len(data) + spare))
    with rng._stream_pool(max(parts, len(buf))) as spread:
        for lo in range(0, directions.shape[0], _DIRECTION_CHUNK):
            chunk = directions[lo:lo + _DIRECTION_CHUNK]
            block = buf[:chunk.shape[0]]
            axis = _axis_of(chunk)

            def copy(a: int, b: int) -> None:
                for row, i in zip(block, axis):
                    row[a:b] = data[a:b, i]

            def product(piece: np.ndarray, out: np.ndarray) -> None:
                if len(chunk) > 1 or data.flags.c_contiguous:
                    np.matmul(chunk, piece.T, out=out)
                    return
                for s in range(0, len(piece), step):   # a GEMV on row-major chunks
                    np.matmul(chunk, np.ascontiguousarray(piece[s:s + step]).T,
                              out=out[:, s:s + step])

            def gemm(a: int, b: int) -> None:
                if b < body or not spare:
                    product(data[a:b], block[:, a:b])
                else:   # the last piece, from `spare` rows early to N
                    product(data[a - spare:], block[:, a:])
                    block[:, a:a + spare] = block[:, count:]

            if (axis >= 0).all():
                spread(copy, count, 8, parts)
            else:
                spread(gemm, body, 8, parts)

            def each(a: int, b: int) -> None:
                for k in range(a, b):
                    results[lo + k] = reduce(block[k, :count], lo + k)

            spread(each, chunk.shape[0])
    return np.array(results)


def quantile_cuts(row: np.ndarray, q_lo: float, q_hi: float) -> tuple:
    """``(a, b, #{x <= a}, #{x >= b})`` for the q_lo- and q_hi-quantiles a
    and b of ``row``, 0 <= q_lo <= q_hi <= 1, bit for bit as ``np.quantile``
    (numpy's linear rule) and ``np.count_nonzero`` give them.

    A quantile interpolates between the order statistics x(r) at the rank
    r below it and x(r+1).  They are found by selection, reordering the
    row in place: it is partitioned at r1 (a single-kth partition, which
    numpy runs on its SIMD path; a multi-kth one does not) and its tail
    beyond r1 at r2, and x(r1+1) and x(r2+1) are the least values of the
    segments after the two partition points.  When x(r1) <= a < x(r1+1),
    r1 + 1 values lie at or below a, and when x(r2) < b <= x(r2+1),
    N - r2 - 1 lie at or above b, so the row is compared with a cut only
    on ties.
    """
    last = row.size - 1
    (r1, g1), (r2, g2) = (_rank_below(last, q) for q in (q_lo, q_hi))
    row.partition(r1)
    if r2 > r1:
        row[r1 + 1:].partition(r2 - r1 - 1)
    x1, x2 = row[r1], row[r2]
    y2 = row[r2 + 1:].min() if r2 < last else x2
    y1 = row[r1 + 1:r2 + 1].min() if r2 > r1 else y2
    a, b = _lerp(x1, y1, g1), _lerp(x2, y2, g2)
    below = r1 + 1 if x1 <= a < y1 else np.count_nonzero(row <= a)
    above = last - r2 if x2 < b <= y2 else np.count_nonzero(row >= b)
    return a, b, below, above


def _rank_below(last: int, q: float) -> tuple:
    """The rank below the q-quantile of N = last + 1 values and the
    fraction of the way to the next, as numpy's linear rule takes them
    (at or past the last rank, numpy counts the fraction from rank -1)."""
    virtual = last * q
    if virtual >= last:
        return last, virtual + 1.0
    below = math.floor(virtual)
    return below, virtual - below


def _lerp(lo: float, hi: float, gamma: float) -> float:
    """numpy's _lerp: interpolate from the nearer end."""
    diff = hi - lo
    return hi - diff * (1.0 - gamma) if gamma >= 0.5 else lo + diff * gamma


def eps_grid_fault(eps_grid) -> Optional[str]:
    """Why an eps grid is unusable, or None when it is nonempty,
    increasing and nonnegative (NaN entries fail)."""
    eps_grid = np.asarray(eps_grid, dtype=np.float64)
    if eps_grid.size == 0:
        return "empty eps grid"
    if not (np.all(np.diff(eps_grid) > 0.0) and np.all(eps_grid >= 0.0)):
        return "eps grid must be increasing and nonnegative"
    return None


def concentration_lower_curve(data: np.ndarray, metric: NormSpec,
                              eps_grid: np.ndarray, *,
                              direction_seed: int = 0xD1A,
                              directions: Optional[np.ndarray] = None
                              ) -> ConcentrationCurve:
    """Half-space lower bound of the concentration function of a sample.

    For each direction theta the cut threshold is the empirical median
    of <theta, x>, which keeps the candidate set at mass >= 1/2 up to
    CI, and the eps-expansion is computed exactly through the dual
    norm.  alpha_hat is the max over the family; the max over a larger
    family can only grow.  The eps grid is increasing and dual norms are
    nonnegative, so each direction's thresholds increase and its mass
    beyond them cannot; the max of nonincreasing curves is nonincreasing,
    so alpha_hat needs no monotone cleanup.
    """
    data = np.asarray(data, dtype=np.float64)
    eps_grid = np.asarray(eps_grid, dtype=np.float64)
    fault = eps_grid_fault(eps_grid)
    if fault is not None:
        raise ValueError(fault)
    n_samples, dim = data.shape
    if dim != metric.dim:
        raise ValueError("metric dimension mismatch")
    if directions is None:
        directions = direction_family(dim, DEFAULT_EXTRA_DIRECTIONS, direction_seed)
    dual_w = norm_eval(dual_norm(metric), directions)

    def masses(row: np.ndarray, k: int) -> np.ndarray:
        """The mass beyond direction k's expanded half-space, at every eps."""
        row.sort()
        if not (np.isfinite(row[0]) and np.isfinite(row[-1])):  # -inf first, inf, NaN last
            raise ValueError("non-finite projection: the data hold an inf or NaN")
        thresholds = median_of_sorted(row) + eps_grid * dual_w[k]
        inside = np.searchsorted(row, thresholds, side="right")
        return (n_samples - inside) / n_samples

    beyond = reduce_projections(data, directions, masses)
    best = beyond.max(axis=0)
    return ConcentrationCurve(eps=eps_grid, alpha_hat=best, ci=binomial_ci(best, n_samples),
                              argmax_direction=beyond.argmax(axis=0),
                              family_size=directions.shape[0], count=n_samples)


@dataclass(frozen=True)
class AnalyticProfile:
    """Catalog upper bound alpha(eps) <= C exp(-c eps^2 n_scale)."""

    name: str
    C: float
    c: float
    n_scale: float

    def __call__(self, eps) -> np.ndarray:
        eps = np.asarray(eps, dtype=np.float64)
        return self.C * np.exp(-self.c * self.n_scale * eps ** 2)

    def to_config(self) -> dict:
        return {"name": self.name, "C": self.C, "c": self.c,
                "n_scale": self.n_scale}


# Default profile constants.  The sphere entry uses the conservative
# quarter constant; the gaussian entry is dimension-free (n_scale = 1);
# the exponential-product entry is deliberately loose and only valid at
# moderate eps (its true tail is exponential, not gaussian, in eps).
# All of them can be overridden per run and are echoed into reports.
PROFILE_CATALOG = {
    "sphere": dict(C=1.0, c=0.25, dim_free=False),
    "gaussian": dict(C=1.0, c=0.5, dim_free=True),
    "gamma1": dict(C=2.0, c=1.0 / 16.0, dim_free=False),
}


def analytic_profile(name: str, n: int, *, C: Optional[float] = None,
                     c: Optional[float] = None) -> AnalyticProfile:
    """Profile from the catalog, with optional constant overrides; the
    constants must be positive finite numbers (int or float, not bool)."""
    for key, value in (("C", C), ("c", c)):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if value is not None and not (number and 0.0 < value < np.inf):
            raise ValueError(f"profile constant {key} must be a positive finite number, "
                             f"got {value!r}")
    if name == "custom":
        if C is None or c is None:
            raise ValueError("custom profile requires explicit C and c")
        return AnalyticProfile(name=name, C=float(C), c=float(c), n_scale=float(n))
    if name not in PROFILE_CATALOG:
        raise ValueError(f"unknown profile {name!r}; catalog: "
                         f"{sorted(PROFILE_CATALOG)} or 'custom'")
    entry = PROFILE_CATALOG[name]
    return AnalyticProfile(
        name=name,
        C=entry["C"] if C is None else float(C),
        c=entry["c"] if c is None else float(c),
        n_scale=1.0 if entry["dim_free"] else float(n),
    )
