"""Norm-ratio and radial transport maps."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from concmeter import measures as ms
from concmeter import normspace as ns
from concmeter import transport as tr

RNG = np.random.default_rng(31)


# ---------------------------------------------------------------------------
# Norm-ratio map
# ---------------------------------------------------------------------------

def test_ratio_map_identity_when_norms_equal():
    K = ns.lp(2, 5)
    x = RNG.normal(size=(100, 5))
    assert np.allclose(tr.norm_ratio_map(K, K, x), x)


def test_ratio_map_single_vector_example():
    out = tr.norm_ratio_map(ns.lp(2, 2), ns.lp(1, 2), np.array([1.0, 1.0]))
    assert np.allclose(out, np.array([math.sqrt(2) / 2] * 2), atol=1e-12)


def test_ratio_map_norm_identity():
    K, L = ns.lp(2, 7), ns.lp(1, 7)
    x = RNG.normal(size=(500, 7))
    y = tr.norm_ratio_map(K, L, x)
    assert np.max(np.abs(ns.norm_eval(L, y) - ns.norm_eval(K, x))) <= 1e-12


def test_ratio_map_homogeneity_and_zero():
    K, L = ns.lp(2, 4), ns.lp(np.inf, 4)
    x = RNG.normal(size=(50, 4))
    c = 2.75
    assert np.allclose(tr.norm_ratio_map(K, L, c * x),
                       c * tr.norm_ratio_map(K, L, x), atol=1e-12)
    assert np.all(tr.norm_ratio_map(K, L, np.zeros(4)) == 0.0)


def test_ratio_map_lipschitz_identity_case():
    K = ns.lp(2, 6)
    pts = ms.sample(ms.gaussian(6), 5000, seed=1).data
    est = tr.ratio_map_lipschitz(K, K, pts, pairs=20000)
    assert est <= 1.0 + 1e-9


@pytest.mark.parametrize("n", [2, 4, 8])
def test_ratio_map_lipschitz_bound_l2_l1(n):
    K, L = ns.lp(2, n), ns.lp(1, n)
    lam = math.sqrt(n)
    pts = ms.sample(ms.gaussian(n), 20000, seed=2).data
    est = tr.ratio_map_lipschitz(K, L, pts, pairs=50000)
    assert est <= 2 * lam + 1 + 1e-9


# 20000 gaussian points at seed 2, 1e5 pairs at the default seed, recorded
# under numpy 2.4.6
RATIO_MAP_LIPSCHITZ = {16: 1.7977525323670338, 64: 1.2812652093277204,
                       256: 1.110002627159922}


@pytest.mark.parametrize("n", sorted(RATIO_MAP_LIPSCHITZ))
def test_ratio_map_lipschitz_values_frozen_and_pairs_chunked(n):
    K, L = ns.lp(2, n), ns.lp(1, n)
    pts = ms.sample(ms.gaussian(n), 20000, seed=2).data
    tracemalloc.start()
    try:
        est = tr.ratio_map_lipschitz(K, L, pts, pairs=100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est == RATIO_MAP_LIPSCHITZ[n]
    # a chunk of pairs per stream thread, not all 1e5 pairs at once (225 MiB at n = 64)
    assert peak < 16 * 2**20


def test_ratio_map_collinear_pairs():
    # along a ray the map is linear with slope |x|_K / |x|_L <= lam
    K, L = ns.lp(2, 6), ns.lp(1, 6)
    x = RNG.normal(size=(200, 6))
    moved = ns.norm_eval(L, tr.norm_ratio_map(K, L, 2 * x)
                         - tr.norm_ratio_map(K, L, x))
    base = ns.norm_eval(K, x)
    lam = math.sqrt(6)
    assert np.all(moved / base <= lam + 1e-9)


# ---------------------------------------------------------------------------
# Monotone maps
# ---------------------------------------------------------------------------

def test_monotone_map_validation():
    with pytest.raises(ValueError):
        tr.MonotoneMap(knots=np.array([0.1, 1.0]), values=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        tr.MonotoneMap(knots=np.array([0.0, 1.0]), values=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        tr.MonotoneMap(knots=np.array([0.0, 1.0, 1.0]),
                       values=np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        tr.MonotoneMap(knots=np.array([0.0, 0.5, 1.0]),
                       values=np.array([0.0, 0.7, 0.4]))


def test_monotone_map_linear_extrapolation():
    u = tr.MonotoneMap(knots=np.array([0.0, 1.0, 2.0]),
                       values=np.array([0.0, 1.0, 3.0]))
    assert u(3.0) == pytest.approx(5.0)  # last slope is 2
    assert u(0.5) == pytest.approx(0.5)


def test_radial_transport_identity():
    norm = ns.lp(1, 8)
    F = ms.radial_cdf(ms.uniform_ball(norm), norm)
    u = tr.radial_transport(F, F)
    r = np.linspace(0, 1, 500)
    assert np.max(np.abs(u(r) - r)) <= 1e-9


def test_radial_transport_scaling():
    norm = ns.lp(1, 8)
    F = ms.radial_cdf(ms.uniform_ball(norm), norm)
    F2 = ms.RadialCdf(eval=lambda r: F.eval(np.asarray(r) / 2.0),
                      quantile=lambda q: 2.0 * F.quantile(q),
                      log_eval=lambda r: F.log_eval(np.asarray(r) / 2.0),
                      quantile_log=lambda lq: 2.0 * F.quantile_log(lq))
    u = tr.radial_transport(F, F2)
    r = np.linspace(0, 1, 200)
    assert np.max(np.abs(u(r) - 2.0 * r)) <= 1e-9


@pytest.mark.parametrize("n", [4, 16])
def test_radial_transport_exponential_to_ball(n):
    metric = ns.lp(1, n)
    u = tr.radial_transport(ms.radial_cdf(ms.ggp(1.0, n), metric),
                            ms.radial_cdf(ms.uniform_ball(metric), metric))
    # closed form: u(r) = GammaCDF(n, r)^(1/n)
    r = np.linspace(0.1, 3 * n, 300)
    expect = ms.gamma_cdf(n, r) ** (1.0 / n)
    assert np.max(np.abs(u(r) - expect)) <= 1e-6


def test_radial_transport_refuses_flat_cdf():
    norm = ns.lp(2, 4)
    F = ms.radial_cdf(ms.uniform_ball(norm), norm)
    step = ms.RadialCdf(eval=lambda r: (np.asarray(r) >= 1.0).astype(float),
                        quantile=lambda q: np.ones_like(np.asarray(q)),
                        log_eval=lambda r: np.where(np.asarray(r) >= 1.0, 0.0, -np.inf),
                        quantile_log=lambda lq: np.ones_like(np.asarray(lq)))
    with pytest.raises(ValueError):
        tr.radial_transport(step, F)


def test_radial_transport_composition_catalog_chain():
    # exponential-product -> ball -> dilated ball equals the direct map
    n = 16
    metric = ns.lp(1, n)
    F_g = ms.radial_cdf(ms.ggp(1.0, n), metric)
    F_b = ms.radial_cdf(ms.uniform_ball(metric), metric)
    F_b2 = ms.RadialCdf(eval=lambda r: F_b.eval(np.asarray(r) / 2.0),
                        quantile=lambda q: 2.0 * F_b.quantile(q),
                        log_eval=lambda r: F_b.log_eval(np.asarray(r) / 2.0),
                        quantile_log=lambda lq: 2.0 * F_b.quantile_log(lq))
    u1 = tr.radial_transport(F_g, F_b)
    u2 = tr.radial_transport(F_b, F_b2)
    u13 = tr.radial_transport(F_g, F_b2)
    r = np.linspace(0.0, ms.gamma_quantile(n, 0.9999), 3000)
    assert np.max(np.abs(u2(u1(r)) - u13(r))) <= 1e-6


def test_radial_transport_roundtrip():
    # gamma -> ball -> gamma returns to the identity; the inverse leg has
    # an exploding quantile tail, so it gets a larger knot budget
    n = 16
    metric = ns.lp(1, n)
    F_g = ms.radial_cdf(ms.ggp(1.0, n), metric)
    F_b = ms.radial_cdf(ms.uniform_ball(metric), metric)
    u1 = tr.radial_transport(F_g, F_b, knots=32768)
    u2 = tr.radial_transport(F_b, F_g, knots=32768)
    r = np.linspace(ms.gamma_quantile(n, 0.001), ms.gamma_quantile(n, 0.999), 400)
    assert np.max(np.abs(u2(u1(r)) - r) / r) <= 1e-6


def test_radial_transport_interpolant_tracks_exact():
    n = 16
    metric = ns.lp(1, n)
    u = tr.radial_transport(ms.radial_cdf(ms.ggp(1.0, n), metric),
                            ms.radial_cdf(ms.uniform_ball(metric), metric))
    dense = np.linspace(0.0, ms.gamma_quantile(n, 0.999999), 20000)
    assert np.max(np.abs(u(dense) - u.exact(dense))) <= 1e-6


def test_lipschitz_constant_identity():
    k = np.linspace(0.0, 3.0, 16)
    u = tr.MonotoneMap(knots=k, values=k, exact=lambda r: np.asarray(r, float))
    assert tr.lipschitz_constant(u) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_lipschitz_constant_exponential_to_ball(n):
    metric = ns.lp(1, n)
    u = tr.radial_transport(ms.radial_cdf(ms.ggp(1.0, n), metric),
                            ms.radial_cdf(ms.uniform_ball(metric), metric))
    lip = tr.lipschitz_constant(u)
    target = math.exp(-math.lgamma(n + 1) / n)  # slope of F^(1/n) at 0
    assert n * lip == pytest.approx(n * target, abs=1e-6)


def test_lipschitz_constant_without_exact_handle():
    k = np.linspace(0.0, 2.0, 64)
    u = tr.MonotoneMap(knots=k, values=np.sqrt(k) * np.sqrt(2.0))
    lip = tr.lipschitz_constant(u)
    slopes = np.diff(u.values) / np.diff(u.knots)
    assert lip == pytest.approx(float(slopes.max()))


def test_radial_map_examples():
    L = ns.lp(2, 5)
    x = RNG.normal(size=(100, 5))
    k = np.array([0.0, float(ns.norm_eval(L, x).max()) + 1.0])
    ident = tr.MonotoneMap(knots=k, values=k)
    assert np.allclose(tr.radial_map(ident, L, x), x, atol=1e-12)

    doubling = tr.MonotoneMap(knots=np.array([0.0, 1.0]),
                              values=np.array([0.0, 2.0]))
    assert np.allclose(tr.radial_map(doubling, L, x), 2.0 * x, atol=1e-12)


def test_radial_map_norm_identity():
    n = 6
    L = ns.lp(1, n)
    u = tr.radial_transport(ms.radial_cdf(ms.ggp(1.0, n), L),
                            ms.radial_cdf(ms.uniform_ball(L), L))
    x = ms.sample(ms.ggp(1.0, n), 1000, seed=3).data
    y = tr.radial_map(u, L, x)
    assert np.max(np.abs(ns.norm_eval(L, y) - u(ns.norm_eval(L, x)))) <= 1e-12


# ---------------------------------------------------------------------------
# Push-forward batches
# ---------------------------------------------------------------------------

def test_pushforward_sphere_to_l1_boundary():
    # the norm-ratio image of the Euclidean sphere lies on the target
    # boundary because the source gauge is constant 1 there
    n = 8
    K, L = ns.lp(2, n), ns.lp(1, n)
    batch = ms.sample(ms.haar_sphere(n), 5000, seed=5)
    image = tr.norm_ratio_map(K, L, batch.data)
    assert image.shape == batch.data.shape
    assert np.max(np.abs(ns.norm_eval(L, image) - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# Frozen radial transports
# ---------------------------------------------------------------------------

def _digest(a) -> str:
    a = np.ascontiguousarray(a)
    head = f"{a.dtype.str}{a.shape}".encode()
    return hashlib.sha256(head + a.tobytes()).hexdigest()


# SHA-256 of (knots, values, repr of the Lipschitz constant) of the
# ggp(p, n) -> uniform lp ball transport; any change to the transport
# build, the incomplete gamma or the refinement shows here bit for bit
FROZEN_TRANSPORTS = {
    (1.0, 32): ("385fc796b65807fec12e232921ce8e21e505d18d2e0a678c883c84994d16a604",
                "2881cd6d78212c778e078a7f1f95dbceb6e0b97d06564b07cf4a59a94c937b1b",
                "fe14d646ff74a291cbf023647be699b06bb26f7065fff256f9725b1b9f651928"),
    (1.5, 64): ("4b71894f0d2401b11bacf44c95ffa738435c82d2ba5ec7ed0e6602dfc59826ab",
                "4ed3018a1a3d1b61e4d65042692eb5c1a842e94d5459f174e3f5f230fd521c15",
                "bff38f934239e504829d1b91c8c5a753b00c79f4039849a28b26c4e4219aee5d"),
    (2.0, 16): ("4e6daac2d710c2dabda5fc61350792ad05dd5b71b98e62775b9dc387d74c250c",
                "633608e09ac4503ddebdf2e87d8b1b69bda2402bbb6ae9f5c4129daf01b63081",
                "5e6db1f9200b89cde7e52be4d43686e6c1eb139edd45f04c88a351f69c7ca179"),
}


@pytest.mark.parametrize("p, n", sorted(FROZEN_TRANSPORTS))
def test_radial_transport_digests_frozen(p, n):
    metric = ns.lp(p, n)
    u = tr.radial_transport(ms.radial_cdf(ms.ggp(p, n), metric),
                            ms.radial_cdf(ms.uniform_ball(metric), metric))
    lip = hashlib.sha256(repr(tr.lipschitz_constant(u)).encode()).hexdigest()
    assert (_digest(u.knots), _digest(u.values), lip) == FROZEN_TRANSPORTS[(p, n)]
