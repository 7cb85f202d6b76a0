"""Norm axioms, duality, and containment constants."""

import re
import tracemalloc

import numpy as np
import pytest

from concmeter import normspace as ns, rng

RNG = np.random.default_rng(2024)

NORMS = [
    ns.lp(1, 6),
    ns.lp(1.5, 6),
    ns.lp(2, 6),
    ns.lp(4, 6),
    ns.lp(np.inf, 6),
    ns.NormSpec(dim=6, p=2, transform=RNG.normal(size=(6, 6)) + 4 * np.eye(6)),
]


@pytest.mark.parametrize("norm", NORMS)
def test_positive_homogeneity(norm):
    x = RNG.normal(size=(200, 6))
    c = RNG.normal(size=200)
    lhs = ns.norm_eval(norm, x * c[:, None])
    rhs = np.abs(c) * ns.norm_eval(norm, x)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("norm", NORMS)
def test_triangle_inequality(norm):
    x = RNG.normal(size=(500, 6))
    y = RNG.normal(size=(500, 6))
    assert np.all(ns.norm_eval(norm, x + y)
                  <= ns.norm_eval(norm, x) + ns.norm_eval(norm, y) + 1e-12)


@pytest.mark.parametrize("norm", NORMS)
def test_definite_at_zero(norm):
    assert ns.norm_eval(norm, np.zeros(6)) == 0.0
    x = RNG.normal(size=(50, 6))
    assert np.all(ns.norm_eval(norm, x) > 1e-12)


def test_norm_eval_of_no_rows_is_empty():
    for norm in NORMS:
        out = ns.norm_eval(norm, np.empty((0, 6)))
        assert out.shape == (0,) and out.dtype == np.float64


def test_norm_eval_examples():
    assert ns.norm_eval(ns.lp(2, 2), np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert ns.norm_eval(ns.lp(np.inf, 3), np.array([1.0, -2.0, 0.5])) == 2.0
    e2 = np.zeros(5)
    e2[2] = 1.0
    assert ns.norm_eval(ns.lp(1, 5), e2) == 1.0


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, 7.3, 50])
def test_norm_eval_matches_quotient_formula(p):
    # one zero row; the input must come back untouched
    x = RNG.normal(size=(40, 9))
    x[5] = 0.0
    before = x.copy()
    m = np.abs(x).max(axis=1)
    safe = np.where(m > 0.0, m, 1.0)[:, None]
    expect = m * ((np.abs(x) / safe) ** p).sum(axis=1) ** (1.0 / p)
    assert np.array_equal(ns.norm_eval(ns.lp(p, 9), x), expect)
    assert np.array_equal(x, before)


def test_norm_eval_is_chunk_invariant():
    # 40001 rows at n = 3 span four row chunks, the last one partial; each
    # row is reduced on its own, so the result is the whole-array formula
    x = RNG.normal(size=(40001, 3))
    x[7] = 0.0
    m = np.abs(x).max(axis=1)
    safe = np.where(m > 0.0, m, 1.0)[:, None]
    expect = m * ((np.abs(x) / safe) ** 1.5).sum(axis=1) ** (1.0 / 1.5)
    assert np.array_equal(ns.norm_eval(ns.lp(1.5, 3), x), expect)
    assert np.array_equal(ns.norm_eval(ns.lp(np.inf, 3), x), m)
    t = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 3.0]])
    transformed = ns.NormSpec(dim=3, p=2, transform=t)
    assert np.array_equal(ns.norm_eval(transformed, x), ns.norm_eval(ns.lp(2, 3), x @ t.T))
    x[-1, 2] = np.inf   # in the last chunk
    with pytest.raises(ValueError, match="non-finite"):
        ns.norm_eval(transformed, x)


def test_norm_eval_peak_stays_cache_sized():
    x = np.random.default_rng(5).normal(size=(20000, 64))
    tracemalloc.start()
    try:
        ns.norm_eval(ns.lp(1.5, 64), x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20   # the whole input is 9.8 MiB


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(np.asarray(a).view(np.uint64),
                                                 np.asarray(b).view(np.uint64))


def test_norm_evals_match_each_norm_eval():
    # the plain norms share one |x| pass and its rescaled rows, each
    # transformed norm keeps its own product: every norm keeps its bits
    gen = np.random.default_rng(6)
    t = gen.normal(size=(6, 6)) + 4 * np.eye(6)
    mixes = [
        [ns.lp(1, 6), ns.lp(1.5, 6), ns.lp(2, 6), ns.lp(np.inf, 6)],
        [ns.lp(np.inf, 6), ns.lp(2, 6), ns.lp(1.5, 6), ns.lp(1, 6)],
        [ns.NormSpec(dim=6, p=2, transform=t), ns.lp(1.5, 6),
         ns.NormSpec(dim=6, p=1, transform=t), ns.NormSpec(dim=6, p=2, transform=t)],
        [ns.lp(2, 6), ns.lp(2, 6)],
        [ns.lp(np.inf, 6)],
    ]
    x = gen.normal(size=(3000, 6)) * gen.exponential(size=(3000, 1))
    x[11] = 0.0
    for norms in mixes:
        for given in (x, x[7], np.empty((0, 6))):
            got = ns.norm_evals(norms, given)
            assert len(got) == len(norms)
            for norm, value in zip(norms, got):
                assert _same_bits(value, ns.norm_eval(norm, given))


def test_norm_evals_across_chunks():
    # 40001 rows at n = 3 span four row chunks, the last one partial
    x = np.random.default_rng(3).normal(size=(40001, 3))
    x[7] = 0.0
    t = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 3.0]])
    norms = [ns.lp(1.5, 3), ns.lp(np.inf, 3), ns.NormSpec(dim=3, p=2, transform=t),
             ns.lp(1, 3)]
    for norm, value in zip(norms, ns.norm_evals(norms, x)):
        assert _same_bits(value, ns.norm_eval(norm, x))
    x[-1, 2] = np.nan   # in the last chunk
    with pytest.raises(ValueError, match="^non-finite input component$"):
        ns.norm_evals(norms, x)


@pytest.mark.parametrize("n, count", [(64, 2000), (40, 37), (16, 5), (3, 40001)])
def test_norm_eval_bits_do_not_follow_the_input_layout(n, count):
    # column-major (the checks' images) and strided inputs give the bits of
    # the C-ordered rows: each chunk's |x| buffer is C-ordered, so the row
    # sums run in one order; the transforms' products keep their bits too
    x = np.random.default_rng(n).normal(size=(count, n))
    layouts = [np.asfortranarray(x), np.repeat(x, 2, axis=0)[::2],
               np.repeat(x, 2, axis=1)[:, ::2]]
    t = np.eye(n) + 0.1 * np.tri(n)
    for p in (1, 1.5, 2, np.inf):
        for norm in (ns.lp(p, n), ns.NormSpec(dim=n, p=p, transform=t)):
            want = ns.norm_eval(norm, x)
            for given in layouts:
                assert _same_bits(ns.norm_eval(norm, given), want), (p, norm.is_plain)


def test_norm_evals_peak_for_two_norms(monkeypatch):
    # two plain finite-p norms hold the two outputs plus, per stream thread,
    # two chunk-sized buffers (|x|/m and the first norm's powers): bounded
    # by three chunks of 256 KiB per thread, 1.11 MB at one thread and
    # 1.89 MB at two (the whole input is 9.8 MiB)
    x = np.random.default_rng(5).normal(size=(20000, 64))
    chunk = rng.block_rows(64) * 64 * 8
    outputs = 2 * 20000 * 8
    for threads in (1, 2):
        monkeypatch.setattr(rng, "_pool_size", threads)
        tracemalloc.start()
        try:
            ns.norm_evals((ns.lp(1.5, 64), ns.lp(2, 64)), x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= outputs + threads * 3 * chunk, threads


def test_large_p_no_overflow():
    x = np.full(4, 1e200)
    assert np.isfinite(ns.norm_eval(ns.lp(300, 4), x))


def test_norm_eval_errors():
    with pytest.raises(ValueError):
        ns.norm_eval(ns.lp(2, 3), np.ones(4))
    with pytest.raises(ValueError):
        ns.norm_eval(ns.lp(2, 3), np.array([1.0, np.nan, 0.0]))


def test_dual_examples():
    assert ns.dual_norm(ns.lp(1, 4)).p == np.inf
    assert ns.dual_norm(ns.lp(np.inf, 4)).p == 1.0
    assert ns.dual_norm(ns.lp(2, 4)).p == 2.0
    assert ns.dual_norm(ns.lp(4, 4)).p == pytest.approx(4.0 / 3.0)


@pytest.mark.parametrize("norm", NORMS)
def test_dual_involution(norm):
    dd = ns.dual_norm(ns.dual_norm(norm))
    x = RNG.normal(size=(200, 6))
    assert np.allclose(ns.norm_eval(dd, x), ns.norm_eval(norm, x),
                       rtol=1e-12, atol=1e-12)


def test_lp_monotonicity_in_p():
    x = RNG.normal(size=(300, 6))
    for p, q in [(1, 1.5), (1.5, 2), (2, 4), (4, np.inf)]:
        assert np.all(ns.norm_eval(ns.lp(q, 6), x)
                      <= ns.norm_eval(ns.lp(p, 6), x) + 1e-12)


def test_containment_closed_forms():
    n = 7
    cc = ns.containment_constant(ns.lp(2, n), ns.lp(1, n))
    assert cc.exact and cc.scale == 1.0 and cc.lam == pytest.approx(np.sqrt(n))
    cc = ns.containment_constant(ns.lp(1.2, n), ns.lp(3, n))
    assert cc.exact
    assert cc.scale * cc.lam == pytest.approx(1.0)
    assert cc.lam == pytest.approx(n ** (1 / 1.2 - 1 / 3))
    cc = ns.containment_constant(ns.lp(2, n), ns.lp(2, n))
    assert cc.lam == 1.0 and cc.scale == 1.0


@pytest.mark.parametrize("pair", [(1, 2), (2, 1), (1.5, np.inf), (2, 4)])
def test_exact_containment_zero_violations(pair):
    # 1e5 random points must satisfy both sandwich sides with 1e-9 slack
    n = 5
    K, L = ns.lp(pair[0], n), ns.lp(pair[1], n)
    cc = ns.containment_constant(K, L)
    assert cc.exact
    x = RNG.normal(size=(100000, n))
    vk = ns.norm_eval(K, x)
    vl = ns.norm_eval(L, x)
    assert np.all(cc.scale * vk <= vl * (1 + 1e-9))
    assert np.all(vl <= cc.scale * cc.lam * vk * (1 + 1e-9))


def test_heuristic_containment_flagged_and_sound():
    n = 5
    K = ns.lp(2, n)
    L = ns.NormSpec(dim=n, p=1, transform=RNG.normal(size=(n, n)) + 3 * np.eye(n))
    cc = ns.containment_constant(K, L)
    assert not cc.exact
    x = RNG.normal(size=(20000, n))
    ratios = ns.norm_eval(L, x) / ns.norm_eval(K, x)
    # heuristic sandwich can only be too narrow, never wrong on probed dirs
    assert ratios.min() >= cc.scale * (1 - 0.2)
    assert cc.lam >= 1.0


def test_transform_validation():
    with pytest.raises(ValueError):
        ns.NormSpec(dim=3, p=2, transform=np.zeros((3, 3)))
    bad = np.diag([1.0, 1.0, 1e-12])
    with pytest.raises(ValueError):
        ns.NormSpec(dim=3, p=2, transform=bad)
    with pytest.raises(ValueError):
        ns.containment_constant(ns.lp(2, 3), ns.lp(2, 4))


def test_normalize_containment():
    n = 6
    K, L = ns.lp(1.2, n), ns.lp(3, n)
    L_r, cc = ns.normalize_containment(K, L)
    x = RNG.normal(size=(5000, n))
    vk = ns.norm_eval(K, x)
    vl = ns.norm_eval(L_r, x)
    assert np.all(vk <= vl * (1 + 1e-9))
    assert np.all(vl <= cc.lam * vk * (1 + 1e-9))


def test_serialization_roundtrip():
    for norm in NORMS:
        back = ns.NormSpec.from_config(norm.to_config())
        x = RNG.normal(size=(20, 6))
        assert np.allclose(ns.norm_eval(back, x), ns.norm_eval(norm, x))


def test_exponent_spells_infinity_only_as_inf():
    for text in ("inf", "INF", "Inf"):
        assert ns.NormSpec(dim=3, p=text).p == np.inf
    assert ns.NormSpec(dim=3, p=np.inf).p == np.inf
    for text, message in (("linf", "could not convert string to float: 'linf'"),
                          ("infinity", "as 'inf', got 'infinity'"),
                          ("+inf", "as 'inf', got '+inf'"),
                          ("-inf", "p >= 1, got -inf"), ("nan", "p >= 1, got nan")):
        with pytest.raises(ValueError, match=re.escape(message)):
            ns.NormSpec(dim=3, p=text)
