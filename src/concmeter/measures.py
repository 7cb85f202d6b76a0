"""Measure catalog: declarative specs, reproducible samplers, radial laws.

Families
--------
uniform_ball(K)   uniform probability on the unit body of a norm K.
cone_surface(K)   push-forward of uniform_ball(K) to the boundary by
                  x -> x / |x|_K; for the Euclidean ball this is Haar
                  measure on the sphere.
ggp(p)            product measure with per-coordinate density
                  c_p^{-1} exp(-|t|^p / p), c_p = 2 Gamma(1+1/p) p^(1/p),
                  for p in [1, 2].  p=1 is the symmetric exponential
                  product, p=2 the standard gaussian.
gaussian          the law of ggp(2), drawn by its own sampler.
haar_sphere       alias of cone_surface(l2).

Sampling constructions
----------------------
A ggp coordinate is sign * (p W)^(1/p) with W ~ Gamma(1/p, 1).  For the
lp ball, a ggp vector t plus one extra unit exponential Z gives

    x = t / (p (sum_k |t_k|^p / p + Z))^(1/p),

which is exactly uniform in the ball (the classical gaussian-plus-
exponential normalization at p=2).  The radial law of |x|_p is then
r^n, and of a ggp vector it is Gamma(n/p, 1) evaluated at r^p / p; these
two closed forms are the whole catalog of :func:`radial_cdf`.

Transformed bodies: if K carries a map T (|x|_K = |Tx|_p), the body is
T^{-1}(lp ball), so samples are base-body samples mapped through T^{-1}.
A spec builds its body norm once (``MeasureSpec.body_norm``), and that
NormSpec holds the one validated T and its one inverse, which every
sampled chunk reads.

The sample table: every sampler draws from numpy's Philox streams
(:mod:`.rng`), keyed by (seed, stream tag, key block).  The tags are the
values of the rows, the signs of ggp coordinates and the ball's extra
exponential, one per row.  Rows come in key blocks, each drawn whole:

- a product measure (gaussian, ggp) has key blocks of 256 rows in every
  dimension, filled column by column as an (n, 256) array and then
  transposed into rows, so coordinate j of a row is the same variate in
  every dimension above j;
- haar_sphere, uniform_ball and cone_surface have a key block per chunk of
  ``rng.block_rows(n)`` rows, filled row by row; a row is built from all
  of its coordinates, so these have no coordinate property to keep.

The samplers are numpy's: ``standard_normal`` for gaussian and, normalised,
haar_sphere; for ggp(p) the magnitudes ``standard_exponential`` at p = 1,
|``standard_normal``| at p = 2 and (p ``standard_gamma(1/p)``)^(1/p)
otherwise; ``random`` for the l-inf bodies.

Rows [start, stop) are cut from the key blocks that hold them
(:func:`_generate`), so rows [0, N) are the first N rows of any longer
sample, and a chunk of the sample stream is whole key blocks, about
``rng.block_rows`` rows (:func:`_chunk_rows`).  Batches are therefore
reproducible bit for bit under any chunking and any number of stream
threads, and sampling adds one chunk's worth of memory per stream thread
(:func:`sample_map`).  A transformed body's pull-back ``base @ inv.T`` is
a BLAS product, taken once per key block, whose last bits follow the BLAS
thread count: such a body is reproducible at a fixed BLAS thread count.

Layouts: :func:`sample` holds its batch row-major, a C-ordered (N, n)
array, as do the outputs of :func:`sample_map`.  The arrays the checks
project onto directions (a push-forward's image, or the batch itself) are
held column-major instead, an (N, n) view of a C-ordered (n, N) array
into which :func:`sample_image` places the rows a row-wise map returns
(:func:`sample_columns` the batch's rows): a projection onto an axis is
then a contiguous column, and one onto other directions a GEMM that
transposes nothing (``concentration.reduce_projections``).  The values,
and the bits, are the same in both layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from . import rng
from .normspace import (INF, NormSpec, _as_p, _config_dim, _config_object, _config_p,
                        _config_transform, lp, parse_size)

LP_FAMILIES = ("uniform_ball", "cone_surface", "ggp")    # the families that read p
FAMILIES = LP_FAMILIES + ("gaussian", "haar_sphere")

MAX_GAMMA_SHAPE = 2048.0


# ---------------------------------------------------------------------------
# Regularized lower incomplete gamma and its inverse
# ---------------------------------------------------------------------------

def _gamma_series_log(a: float, xs: np.ndarray) -> np.ndarray:
    """log P(a, x) for 0 < x < a + 1 via the ascending series.

    The series total is bounded by (a+1)/(a+1-x), so it never overflows,
    and working in logs keeps the result meaningful far below the double
    underflow threshold (radial transports need P down to e^-600).

    Convergence is tested every 16 terms.  Since x < a + 1 the terms
    decrease, so once every term is at most 1e-17 of its total (below half
    an ulp of it), the terms added before the next test leave the totals
    unchanged: the result is that of a test after every term.
    """
    term = np.ones_like(xs)
    total = np.ones_like(xs)
    k = 0.0
    while True:
        k += 1.0
        term *= xs
        term /= a + k
        total += term
        if k > 10000 or k % 16 == 0 and np.all(term <= 1e-17 * total):
            break
    return np.log(total) + a * np.log(xs) - xs - math.lgamma(a + 1.0)


def _gamma_upper_cf(a: float, xs: np.ndarray) -> np.ndarray:
    """Q(a, x) for x >= a + 1 by the Lentz continued fraction."""
    tiny = 1e-300
    b = xs + 1.0 - a
    c = np.full_like(xs, 1e300)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, 2000):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) < 4e-16):
            break
    return np.exp(a * np.log(xs) - xs - math.lgamma(a)) * h


def _check_gamma_args(shape: float, x) -> tuple[float, np.ndarray, bool]:
    a = float(shape)
    if not 0.0 < a <= MAX_GAMMA_SHAPE:
        raise ValueError(f"shape must be in (0, {MAX_GAMMA_SHAPE}], got {a}")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x) | np.isposinf(x)):
        raise ValueError("non-finite input to gamma_cdf")
    if np.any(x < 0.0):
        raise ValueError("gamma_cdf requires x >= 0")
    return a, np.atleast_1d(x).copy(), x.ndim == 0


def gamma_cdf(shape: float, x) -> np.ndarray:
    """Regularized lower incomplete gamma P(shape, x), vectorized in x.

    Power series for x < shape + 1, Lentz continued fraction for the
    complement otherwise; absolute error <= 1e-12 on shape <= 2048.
    """
    a, x, single = _check_gamma_args(shape, x)
    out = np.zeros_like(x)
    out[np.isposinf(x)] = 1.0
    lo = (x > 0.0) & (x < a + 1.0)
    hi = np.isfinite(x) & (x >= a + 1.0)
    if np.any(lo):
        out[lo] = np.exp(_gamma_series_log(a, x[lo]))
    if np.any(hi):
        out[hi] = 1.0 - _gamma_upper_cf(a, x[hi])
    return out[0] if single else out


def gamma_log_cdf(shape: float, x) -> np.ndarray:
    """log of :func:`gamma_cdf`, exact deep into the lower tail."""
    a, x, single = _check_gamma_args(shape, x)
    out = np.full_like(x, -np.inf)
    out[np.isposinf(x)] = 0.0
    lo = (x > 0.0) & (x < a + 1.0)
    hi = np.isfinite(x) & (x >= a + 1.0)
    if np.any(lo):
        out[lo] = _gamma_series_log(a, x[lo])
    if np.any(hi):
        out[hi] = np.log1p(-_gamma_upper_cf(a, x[hi]))
    return out[0] if single else out


def gamma_quantile(shape: float, q) -> np.ndarray:
    """Inverse of :func:`gamma_cdf` in its second argument, by bisection."""
    a = float(shape)
    q = np.asarray(q, dtype=np.float64)
    single = q.ndim == 0
    q = np.atleast_1d(q)
    if np.any((q < 0.0) | (q >= 1.0)):
        raise ValueError("gamma_quantile requires q in [0, 1)")
    # bracket: the mean plus a generous multiple of the std always covers
    hi0 = a + 40.0 * math.sqrt(a) + 40.0
    lo = np.zeros_like(q)
    hi = np.full_like(q, hi0)
    grow = gamma_cdf(a, hi) < q
    while np.any(grow):
        hi[grow] *= 2.0
        grow = gamma_cdf(a, hi) < q
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = gamma_cdf(a, mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all((hi - lo) <= 1e-14 * np.maximum(hi, 1.0)):
            break
    out = 0.5 * (lo + hi)
    out[q == 0.0] = 0.0
    return out[0] if single else out


def gamma_quantile_log(shape: float, log_q) -> np.ndarray:
    """Inverse of :func:`gamma_log_cdf`: x with log P(shape, x) = log_q.

    For log_q in the ordinary range this defers to the bisection solver;
    deep in the lower tail (where exp(log_q) would underflow) it solves
    the series form  log P = log S(x) + a log x - x - lgamma(a+1)  by
    fixed point in log x, which converges immediately because x is tiny.
    """
    a = float(shape)
    lq = np.asarray(log_q, dtype=np.float64)
    single = lq.ndim == 0
    lq = np.atleast_1d(lq).astype(np.float64)
    if np.any(lq > 0.0):
        raise ValueError("log_q must be <= 0")
    out = np.empty_like(lq)
    ordinary = lq > -600.0
    if np.any(ordinary):
        out[ordinary] = gamma_quantile(a, np.exp(lq[ordinary]))
    deep = ~ordinary & np.isfinite(lq)
    if np.any(deep):
        target = lq[deep] + math.lgamma(a + 1.0)
        x = np.exp(target / a)
        for _ in range(4):
            correction = x - np.log1p(x / (a + 1.0) * (1.0 + x / (a + 2.0)))
            x = np.exp((target + correction) / a)
        out[deep] = x
    out[np.isneginf(lq)] = 0.0
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Measure specifications and sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureSpec:
    """Declarative description of one catalog measure."""

    family: str
    dim: int
    p: Optional[float] = None
    transform: Optional[np.ndarray] = None
    # the norm whose unit body carries the measure, when there is one
    body_norm: Optional[NormSpec] = field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown measure family {self.family!r}")
        object.__setattr__(self, "dim", parse_size(self.dim, "dim"))
        if self.family in LP_FAMILIES:
            if self.p is None:
                raise ValueError(f"{self.family} requires an lp exponent p")
            object.__setattr__(self, "p", _as_p(self.p))
        elif self.p is not None:
            raise ValueError(f"{self.family} reads no lp exponent p, got p={self.p!r}")
        if self.family == "ggp" and not self.p <= 2.0:
            raise ValueError("ggp requires p in [1, 2]")
        body = None
        if self.family in ("uniform_ball", "cone_surface"):
            # validation (invertibility, conditioning) delegated to NormSpec
            body = NormSpec(dim=self.dim, p=self.p, transform=self.transform)
            object.__setattr__(self, "transform", body.transform)
        elif self.transform is not None:
            raise ValueError(f"{self.family} does not accept a transform")
        elif self.family == "haar_sphere":
            body = lp(2, self.dim)
        object.__setattr__(self, "body_norm", body)

    def to_config(self) -> dict:
        cfg = {"family": self.family, "dim": self.dim}
        if self.p is not None:
            cfg["p"] = "inf" if self.p == INF else self.p
        if self.transform is not None:
            cfg["transform"] = self.transform.tolist()
        return cfg

    @staticmethod
    def from_config(cfg, dim: Optional[int] = None, p=None) -> "MeasureSpec":
        """The measure of a family token on R^dim, with exponent ``p`` for
        the LP_FAMILIES, or of a measure object (:meth:`to_config`'s form,
        with its own p; its dim by :func:`normspace._config_dim`)."""
        if isinstance(cfg, str):
            return MeasureSpec(family=cfg, dim=dim, p=p)
        cfg = _config_object(cfg, ("family", "dim", "p", "transform"), "a measure")
        return MeasureSpec(family=cfg["family"], dim=_config_dim(cfg, dim, "measure"),
                           p=_config_p(cfg.get("p")),
                           transform=_config_transform(cfg.get("transform")))


def uniform_ball(norm: NormSpec) -> MeasureSpec:
    return MeasureSpec("uniform_ball", norm.dim, norm.p, norm.transform)


def cone_surface(norm: NormSpec) -> MeasureSpec:
    return MeasureSpec("cone_surface", norm.dim, norm.p, norm.transform)


def ggp(p: float, dim: int) -> MeasureSpec:
    return MeasureSpec("ggp", dim, p)


def gaussian(dim: int) -> MeasureSpec:
    return MeasureSpec("gaussian", dim)


def haar_sphere(dim: int) -> MeasureSpec:
    return MeasureSpec("haar_sphere", dim)


@dataclass(frozen=True)
class SampleBatch:
    """Immutable N x dim matrix of samples plus its provenance."""

    measure: MeasureSpec
    seed: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.data.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def count(self) -> int:
        return self.data.shape[0]


# Stream tags of the sample table (see the module docstring).
_VALUES, _SIGNS, _EXTRA = 0, 1, 2
# Rows per key block of a product measure, the same in every dimension.
_PRODUCT_ROWS = 256


def _key_rows(measure: MeasureSpec) -> int:
    """Rows per key block of the sample table: fixed for a product measure,
    one chunk of ``rng.block_rows`` rows for the others."""
    if measure.family in ("gaussian", "ggp"):
        return _PRODUCT_ROWS
    return rng.block_rows(measure.dim)


def _chunk_rows(measure: MeasureSpec) -> int:
    """Rows per chunk of the sample stream: whole key blocks, about
    ``rng.block_rows`` rows and at least one block."""
    key = _key_rows(measure)
    return max(1, rng.block_rows(measure.dim) // key) * key


def _ggp_values(p: float, seed: int, block: int, shape: tuple) -> np.ndarray:
    """ggp(p) coordinates over ``shape`` in C order, from key block ``block``:
    magnitudes from the values stream, signs from their own."""
    gen = rng._generator(seed, _VALUES, block)
    if p == 1.0:
        x = gen.standard_exponential(shape)
    elif p == 2.0:
        x = gen.standard_normal(shape)
        np.abs(x, out=x)
    else:
        x = gen.standard_gamma(1.0 / p, shape)     # (p * w) ** (1 / p)
        x *= p
        x **= 1.0 / p
    sign = rng._generator(seed, _SIGNS, block).integers(0, 2, shape, dtype=np.int8)
    sign *= 2
    sign -= 1
    x *= sign
    return x


def _fill(measure: MeasureSpec, seed: int, block: int, out: np.ndarray) -> None:
    """Key block ``block`` of the sample table into ``out``, its rows."""
    n, fam, p = measure.dim, measure.family, measure.p
    rows = len(out)
    if fam in ("gaussian", "ggp"):   # column by column, then into rows
        if fam == "gaussian":
            cols = rng._generator(seed, _VALUES, block).standard_normal((n, rows))
        else:
            cols = _ggp_values(p, seed, block, (n, rows))
        out[...] = cols.T
        return
    if fam == "haar_sphere":
        rng._generator(seed, _VALUES, block).standard_normal(out=out)
        out /= np.linalg.norm(out, axis=1, keepdims=True)
        return

    # ball / cone families: build in the plain-lp body, row by row, then pull back
    if p == INF:
        base = rng._generator(seed, _VALUES, block).random((rows, n))
        base *= 2.0
        base -= 1.0
        if fam == "cone_surface":
            base /= np.abs(base).max(axis=1, keepdims=True)
    else:
        base = _ggp_values(p, seed, block, (rows, n))
        w_sum = (np.abs(base) ** p).sum(axis=1, keepdims=True)
        if fam == "cone_surface":
            base /= w_sum ** (1.0 / p)
        else:
            # one extra exponential per row, from its own stream
            w_sum /= p
            w_sum += rng._generator(seed, _EXTRA, block).standard_exponential((rows, 1))
            base /= (p * w_sum) ** (1.0 / p)
    inv = measure.body_norm.transform_inv
    out[...] = base if inv is None else base @ inv.T


def _generate(measure: MeasureSpec, seed: int, start: int, stop: int) -> np.ndarray:
    """Rows [start, stop) of the infinite sample table for (measure, seed):
    the key blocks that hold them, each drawn whole, then sliced."""
    rows = _key_rows(measure)
    first, end = start // rows, -(-stop // rows)
    out = np.empty(((end - first) * rows, measure.dim))
    for k in range(end - first):
        _fill(measure, seed, first + k, out[k * rows:(k + 1) * rows])
    return out[start - first * rows:stop - first * rows]


def sample_chunks(measure: MeasureSpec, count: int, seed: int
                  ) -> Iterator[tuple[int, np.ndarray]]:
    """Rows [0, count) of the sample table as (start, rows) chunks, for
    callers that never hold the whole batch; the bits equal ``sample``'s.

    A chunk holds whole key blocks, about ``rng.block_rows`` rows, so it and
    the temporaries built from it stay near cache size whatever the
    dimension.
    """
    step, count = _chunk_rows(measure), parse_size(count, "count")   # before the first chunk
    return ((start, _generate(measure, seed, start, min(start + step, count)))
            for start in range(0, count, step))


def sample_map(measure: MeasureSpec, count: int, seed: int,
               fn: Callable[[np.ndarray], tuple]) -> tuple:
    """Full-length outputs of a row-wise ``fn`` over rows [0, count) of
    the sample table, which is never held whole.

    For each chunk of :func:`sample_chunks`, ``fn(rows)`` returns a tuple
    of arrays (``rows`` may be changed in place); each is written into the
    chunk's rows of one output, on the stream threads of ``rng._chunk_map``
    (``fn`` must be thread-safe; the bits do not depend on the thread
    count).  Peak memory is the outputs plus one chunk's temporaries per
    stream thread.
    """
    count = parse_size(count, "count")
    return rng._chunk_map(count, _chunk_rows(measure),
                          lambda lo, hi: fn(_generate(measure, seed, lo, hi)))


def sample_image(measure: MeasureSpec, count: int, seed: int,
                 fn: Callable[[np.ndarray], tuple]) -> tuple:
    """``(image, *outputs)``: the outputs of :func:`sample_map`'s row-wise
    ``fn(rows) -> (image_rows, *outputs)``, ``image`` held column-major, an
    (count, width) view of a C-ordered (width, count) array whose columns
    are contiguous.  It is allocated from the first chunk's image rows,
    which ``rng._chunk_map`` runs alone; the source batch is never held.
    """
    count = parse_size(count, "count")
    image = None

    def place(lo: int, hi: int) -> tuple:
        nonlocal image
        rows, *outputs = fn(_generate(measure, seed, lo, hi))
        if lo == 0:     # the first chunk, before any stream thread starts
            image = np.empty((rows.shape[1], count)).T
        image[lo:hi] = rows
        return tuple(outputs)

    outputs = rng._chunk_map(count, _chunk_rows(measure), place)
    return (image, *outputs)


def sample_columns(measure: MeasureSpec, count: int, seed: int) -> np.ndarray:
    """The data of ``sample(measure, count, seed)``, held column-major (see
    :func:`sample_image`)."""
    return sample_image(measure, count, seed, lambda rows: (rows,))[0]


def sample(measure: MeasureSpec, count: int, seed: int) -> SampleBatch:
    """Draw an i.i.d. batch; identical (measure, count, seed) arguments
    reproduce identical bits regardless of chunking or worker count."""
    data, = sample_map(measure, count, seed, lambda rows: (rows,))
    return SampleBatch(measure=measure, seed=seed, data=data)


# ---------------------------------------------------------------------------
# Radial CDFs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialCdf:
    """Analytic CDF/quantile pair of |x| under a measure.

    Each entry also exposes the log CDF and a quantile that consumes log
    probabilities; quantile couplings between two entries are composed
    entirely in log space, which keeps the coupling accurate deep in the
    lower tail where the plain CDF underflows.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    quantile: Callable[[np.ndarray], np.ndarray]
    log_eval: Callable[[np.ndarray], np.ndarray]
    quantile_log: Callable[[np.ndarray], np.ndarray]


def _norms_match(measure: MeasureSpec, norm: NormSpec) -> bool:
    body = measure.body_norm
    if body is None or body.p != norm.p:
        return False
    a = body.transform
    b = norm.transform
    if a is None and b is None:
        return True
    if a is None or b is None:
        return False
    return a.shape == b.shape and np.array_equal(a, b)


def radial_cdf(measure: MeasureSpec, norm: NormSpec) -> RadialCdf:
    """Law of |x|_norm under the measure, for the two catalog pairings.

    uniform_ball with its own body norm has F(r) = min(r, 1)^n; a
    ggp/gaussian product measured in the matching plain lp norm has
    F(r) = P(Gamma(n/p) <= r^p / p).  Any other pairing raises
    ValueError.
    """
    if measure.dim != norm.dim:
        raise ValueError("measure/norm dimension mismatch")
    n = measure.dim

    if measure.family == "uniform_ball" and _norms_match(measure, norm):
        def ball_eval(r):
            r = np.asarray(r, dtype=np.float64)
            return np.clip(r, 0.0, 1.0) ** n

        def ball_quantile(q):
            q = np.asarray(q, dtype=np.float64)
            return q ** (1.0 / n)

        def ball_log_eval(r):
            r = np.asarray(r, dtype=np.float64)
            with np.errstate(divide="ignore"):
                return n * np.log(np.clip(r, 0.0, 1.0))

        def ball_quantile_log(lq):
            return np.exp(np.asarray(lq, dtype=np.float64) / n)

        return RadialCdf(ball_eval, ball_quantile, ball_log_eval, ball_quantile_log)

    fam_p = {"ggp": measure.p, "gaussian": 2.0}.get(measure.family)
    if fam_p is not None and norm.is_plain and norm.p == fam_p:
        p = fam_p
        shape = n / p

        def ggp_eval(r):
            r = np.asarray(r, dtype=np.float64)
            return gamma_cdf(shape, np.maximum(r, 0.0) ** p / p)

        def ggp_quantile(q):
            return (p * gamma_quantile(shape, q)) ** (1.0 / p)

        def ggp_log_eval(r):
            r = np.asarray(r, dtype=np.float64)
            return gamma_log_cdf(shape, np.maximum(r, 0.0) ** p / p)

        def ggp_quantile_log(lq):
            return (p * gamma_quantile_log(shape, lq)) ** (1.0 / p)

        return RadialCdf(ggp_eval, ggp_quantile, ggp_log_eval, ggp_quantile_log)

    pairing = f"{measure.family} in l{norm.p:g}" + ("" if norm.is_plain else " with a transform")
    raise ValueError(f"no analytic radial law for {pairing}; covered: uniform_ball in "
                     "its own body norm, ggp/gaussian in the plain lp norm of matching p")
