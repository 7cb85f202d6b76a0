"""Norm algebra: lp evaluation, dual norms, and containment constants.

A norm here is an lp norm, optionally composed with an invertible linear
map T, i.e. ``|x| = |T x|_p``.  The unit body of such a norm is the
preimage of the lp ball under T, which is how uniform-ball and
cone-surface samplers handle transformed bodies.  Several norms of the
same rows are taken in one pass (:func:`norm_evals`): the norms without
a transform share the rows' absolute values, their maxima and the rows
rescaled by them, and each norm keeps the bits it has alone.

The containment constant of a pair (K, L) is the tightest sandwich

    scale * |x|_K  <=  |x|_L  <=  scale * lam * |x|_K        for all x,

so ``lam`` measures how far the two unit bodies are from being dilates
of each other.  For plain lp/lq pairs the constant is closed form (a
Holder computation); for transformed norms it is estimated from random
and vertex candidate directions and flagged as a heuristic lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rng

MAX_CONDITION = 1e8

INF = float("inf")


def _as_p(p) -> float:
    """An lp exponent p >= 1: a number, or the string 'inf' in any case."""
    text = p
    if isinstance(p, bool):   # float() reads True as 1
        raise ValueError(f"expected an lp exponent, got {p!r}")
    if isinstance(text, str) and text.lower() == "inf":
        return INF
    p = float(p)
    if isinstance(text, str) and p == INF:   # float() also reads 'infinity', '+inf'
        raise ValueError(f"write an infinite lp exponent as 'inf', got {text!r}")
    if not (p >= 1.0):
        raise ValueError(f"lp exponent must satisfy p >= 1, got {p}")
    return p


def _config_p(p):
    """A config's lp exponent as given: a JSON number, 'inf' or null; the
    other text forms of :func:`_as_p` are for flags and 'l<p>' tokens."""
    if isinstance(p, str) and p.lower() != "inf":
        raise ValueError(f"a config writes an lp exponent as a number or 'inf', got {p!r}")
    return p


def _config_object(obj, keys, what: str) -> dict:
    """``obj`` as a config object of the given keys: anything but a dict,
    and any key outside ``keys``, is refused by name."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected {what} object, got {obj!r}")
    extra = sorted(set(obj) - set(keys))
    if extra:
        raise ValueError(f"{what} takes no keys {extra}; it takes {sorted(keys)}")
    return obj


def _config_transform(rows):
    """A config's transform: null, or a list of rows of finite JSON numbers.
    Strings and booleans are refused, which numpy would read as numbers."""
    if rows is None:
        return None
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"a transform is a list of rows, got {rows!r}")
    for row in rows:
        for value in row:
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ValueError(f"transform entries are finite numbers, got {value!r}")
    return rows


@dataclass(frozen=True)
class NormSpec:
    """An lp norm on R^dim, optionally precomposed with an invertible map."""

    dim: int
    p: float
    transform: Optional[np.ndarray] = None
    transform_inv: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        object.__setattr__(self, "p", _as_p(self.p))
        if self.transform is not None:
            t = np.array(self.transform, dtype=np.float64)
            if t.shape != (self.dim, self.dim):
                raise ValueError(f"transform must be {self.dim}x{self.dim}, got {t.shape}")
            cond = np.linalg.cond(t)
            if not np.isfinite(cond) or cond > MAX_CONDITION:
                raise ValueError(f"transform is singular or ill-conditioned (cond={cond:.3g})")
            t.setflags(write=False)
            inv = np.linalg.inv(t)
            inv.setflags(write=False)
            object.__setattr__(self, "transform", t)
            object.__setattr__(self, "transform_inv", inv)

    @property
    def is_plain(self) -> bool:
        return self.transform is None

    def to_config(self) -> dict:
        cfg = {"kind": "lp", "p": "inf" if self.p == INF else self.p, "dim": self.dim}
        if self.transform is not None:
            cfg["transform"] = self.transform.tolist()
        return cfg

    @staticmethod
    def from_config(cfg: dict) -> "NormSpec":
        cfg = _config_object(cfg, ("kind", "p", "dim", "transform"), "a norm")
        if cfg.get("kind", "lp") != "lp":
            raise ValueError(f"unknown norm kind {cfg.get('kind')!r}")
        return NormSpec(dim=int(cfg["dim"]), p=_config_p(cfg["p"]),
                        transform=_config_transform(cfg.get("transform")))


def lp(p, dim: int) -> NormSpec:
    """Shorthand constructor for a plain lp norm."""
    return NormSpec(dim=dim, p=p)


def scaled(norm: NormSpec, factor: float) -> NormSpec:
    """The norm x -> factor * |x| (unit body shrinks by 1/factor)."""
    if not factor > 0:
        raise ValueError("scale factor must be positive")
    t = norm.transform if norm.transform is not None else np.eye(norm.dim)
    return NormSpec(dim=norm.dim, p=norm.p, transform=factor * t)


def _lp_rows(ax: np.ndarray, ps) -> list:
    """The lp norm of each row, one vector per exponent of ``ps``, from
    ``ax``, the rows' absolute values, which it overwrites.

    Finite-p evaluation rescales by the row maxima m before
    exponentiating, so large p cannot overflow; the exponents share m and
    the rescaled rows |x|/m, each finite p raising its own copy of them
    to p but the last, which raises them in place.
    """
    m = ax.max(axis=1)
    finite = [k for k, p in enumerate(ps) if p != INF]
    if finite:
        ax /= np.where(m > 0.0, m, 1.0)[:, None]
    out = [m] * len(ps)
    for k in finite:
        if k == finite[-1]:
            ax **= ps[k]
            powers = ax
        else:
            powers = ax ** ps[k]
        out[k] = m * powers.sum(axis=1) ** (1.0 / ps[k])
    return out


def norm_evals(norms: Sequence[NormSpec], x: np.ndarray) -> tuple:
    """``(|x|_1, |x|_2, ...)`` for the norms of ``norms``, each for a single
    vector or row-wise for an (N, dim) matrix, from one pass over the rows.

    Rows are reduced in chunks of ``rng.block_rows`` rows on the stream
    threads, so the temporaries stay cache-sized; every row is reduced on
    its own, so the chunking moves no bit.  Each chunk is tested for
    finite entries once, and the plain norms share one |x| buffer and its
    rescaled rows (:func:`_lp_rows`), so every norm gets the float
    operations, and the bits, of its own evaluation.  That buffer is
    C-ordered whatever the layout of x (``np.abs`` would keep a column-major
    one, whose row sums run in another order), so a column-major or strided
    x gives the bits of its C-ordered copy.  A transform is applied to the
    whole input first, ``x @ T.T`` in one product per transformed norm: a
    chunked product's last bits would follow the BLAS thread count.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    for norm in norms:
        if x.shape[1] != norm.dim:
            raise ValueError(f"dimension mismatch: norm has dim {norm.dim}, "
                             f"input has {x.shape[1]}")
    # the plain norms reduce x's own rows together, each transformed one its image
    plain = [k for k, norm in enumerate(norms) if norm.is_plain]
    groups = [(plain, x)] if plain else []
    with np.errstate(invalid="ignore"):   # non-finite input raises below
        groups += [([k], x @ norm.transform.T) for k, norm in enumerate(norms)
                   if not norm.is_plain]

    def reduce(lo: int, hi: int) -> tuple:
        if not np.isfinite(x[lo:hi]).all():
            raise ValueError("non-finite input component")
        out = [None] * len(norms)
        for ks, y in groups:
            ax = np.abs(y[lo:hi], out=np.empty((hi - lo, y.shape[1])))
            for k, value in zip(ks, _lp_rows(ax, [norms[k].p for k in ks])):
                out[k] = value
        return tuple(out)

    outs = rng._chunk_map(x.shape[0], rng.block_rows(x.shape[1]), reduce)
    return tuple(out[0] for out in outs) if single else outs


def norm_eval(norm: NormSpec, x: np.ndarray) -> np.ndarray:
    """|x| for a single vector or row-wise for an (N, dim) matrix: the one
    norm of :func:`norm_evals`."""
    return norm_evals((norm,), x)[0]


def dual_norm(norm: NormSpec) -> NormSpec:
    """The dual norm: conjugate exponent, inverse-transpose transform."""
    p = norm.p
    if p == 1.0:
        q = INF
    elif p == INF:
        q = 1.0
    else:
        q = p / (p - 1.0)
    t = None if norm.transform is None else norm.transform_inv.T
    return NormSpec(dim=norm.dim, p=q, transform=t)


@dataclass(frozen=True)
class ContainmentConstant:
    """Constants of the sandwich scale*|x|_K <= |x|_L <= scale*lam*|x|_K."""

    lam: float
    scale: float
    exact: bool

    def __post_init__(self):
        if not (self.lam >= 1.0 - 1e-12):
            raise ValueError(f"containment lam must be >= 1, got {self.lam}")
        if not self.scale > 0:
            raise ValueError("containment scale must be positive")


def _candidate_directions(dim: int, count: int, seed: int) -> np.ndarray:
    """Random gaussian directions plus lp extreme candidates."""
    dirs = rng._generator(seed, 0).standard_normal((count, dim))
    extremes = [np.eye(dim), np.ones((1, dim))]
    # sign-flip diagonals probe the corners that pure axes miss
    alt = np.ones(dim)
    alt[1::2] = -1.0
    extremes.append(alt[None, :])
    return np.vstack([dirs] + extremes)


def containment_constant(K: NormSpec, L: NormSpec) -> ContainmentConstant:
    """Tightest sandwich constants between two norms.

    Plain lp/lq pairs get the exact Holder constants.  Anything with a
    transform falls back to maximizing/minimizing |x|_L / |x|_K over
    candidate directions; the resulting lam is a lower bound on the true
    constant and is flagged ``exact=False``.
    """
    if K.dim != L.dim:
        raise ValueError(f"dimension mismatch: {K.dim} vs {L.dim}")
    n = K.dim
    if K.is_plain and L.is_plain:
        p, q = K.p, L.p
        inv_p = 0.0 if p == INF else 1.0 / p
        inv_q = 0.0 if q == INF else 1.0 / q
        if inv_p >= inv_q:
            # |x|_q <= |x|_p <= n^(1/p-1/q) |x|_q
            scale = float(n) ** (inv_q - inv_p)
            lam = float(n) ** (inv_p - inv_q)
        else:
            # |x|_p <= |x|_q <= n^(1/q-1/p) |x|_p
            scale = 1.0
            lam = float(n) ** (inv_q - inv_p)
        return ContainmentConstant(lam=lam, scale=scale, exact=True)

    cand = _candidate_directions(n, 4096, 0x5EED)
    ratios = norm_eval(L, cand) / norm_eval(K, cand)
    scale = float(ratios.min())
    lam = float(ratios.max() / ratios.min())
    return ContainmentConstant(lam=max(lam, 1.0), scale=scale, exact=False)


def normalize_containment(K: NormSpec, L: NormSpec):
    """Rescale L so that |x|_K <= |x|_L' <= lam |x|_K holds with scale 1.

    Returns ``(L_rescaled, constant)`` where the constant carries the
    original scale for reporting.
    """
    cc = containment_constant(K, L)
    L_r = L if abs(cc.scale - 1.0) < 1e-15 else scaled(L, 1.0 / cc.scale)
    return L_r, cc
