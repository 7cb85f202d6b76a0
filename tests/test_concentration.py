"""Median estimates, half-space expansion, and the lower-bound curve."""

import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from concmeter import concentration as con
from concmeter import measures as ms
from concmeter import normspace as ns
from concmeter import rng
from reference import curve_oracle

N = 100000


def test_median_law_on_uniform_ball():
    # Lebesgue measure on the unit body puts median of the gauge at 2^(-1/n)
    norm = ns.lp(2, 8)
    batch = ms.sample(ms.uniform_ball(norm), N, seed=1)
    est = con.empirical_median(ns.norm_eval(norm, batch.data))
    assert est.value == pytest.approx(2 ** (-1 / 8), abs=0.01)
    assert est.ci_low <= est.value <= est.ci_high


def test_median_constant_function():
    batch = ms.sample(ms.haar_sphere(6), 1000, seed=2)
    est = con.empirical_median(np.linalg.norm(batch.data, axis=1))
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.half_width <= 1e-12


def test_median_of_symmetric_coordinate():
    for spec in [ms.gaussian(5), ms.uniform_ball(ns.lp(1, 5)), ms.haar_sphere(5)]:
        batch = ms.sample(spec, N, seed=3)
        est = con.empirical_median(batch.data[:, 0])
        assert est.ci_low <= 0.0 <= est.ci_high


def test_median_order_statistic_coverage():
    values = np.random.default_rng(5).normal(size=12345)
    est = con.empirical_median(values)
    n = values.size
    assert (values <= est.ci_high).sum() >= math.ceil(n / 2)
    assert (values >= est.ci_low).sum() >= math.ceil(n / 2)


@pytest.mark.parametrize("size", [101, 3000, 4999, 50000])
def test_median_value_is_numpys_median(size):
    # the mean of the two middle order statistics, bit for bit as np.median
    # takes it, which gives a median of negative zeros the sign +
    values = np.random.default_rng(size).normal(size=size)
    zeros = values.copy()
    zeros[:size // 2 + 1] = -0.0
    for sample in (values, zeros, -zeros):
        med, ref = con.empirical_median(sample).value, np.median(sample)
        assert (med, math.copysign(1.0, med)) == (ref, math.copysign(1.0, ref))


def test_median_needs_samples():
    with pytest.raises(ValueError):
        con.empirical_median(np.arange(10))


def test_median_refuses_nan():
    # np.sort puts NaNs last, where a finite median of the other values
    # would be read; np.median gives nan
    with pytest.raises(ValueError, match="^3 of 203 samples are NaN"):
        con.empirical_median(np.r_[np.arange(200.0), [np.nan] * 3])
    with pytest.raises(ValueError, match="^1 of 100 samples are NaN"):
        con.empirical_median(np.r_[[np.nan], np.arange(99.0)])
    assert con.empirical_median(np.r_[np.arange(200.0), [np.inf] * 3]).value == 101.0


@pytest.mark.parametrize("metric_p", [1.0, 2.0, np.inf])
def test_halfspace_expansion_against_projection_oracle(metric_p):
    # the curve expands {<theta, x> <= t} by eps to {<theta, x> <= t + eps
    # |theta|_dual}; oracle: distance from x to {<theta, a> <= t} is the value
    # of the linear program min |x - a|_metric s.t. <theta, a> = t (x outside)
    rng = np.random.default_rng(7)
    n = 4
    metric = ns.lp(metric_p, n)
    theta = rng.normal(size=n)
    t = 0.3
    eps = 0.25
    t_exp = t + eps * ns.norm_eval(ns.dual_norm(metric), theta)
    pts = rng.normal(size=(200, n))

    def dist_to_halfspace(x):
        if theta @ x <= t:
            return 0.0
        if metric_p == 2.0:
            return (theta @ x - t) / np.linalg.norm(theta)
        # min |d|_p s.t. <theta, d> = <theta, x> - t, via scipy
        gap = theta @ x - t
        res = optimize.linprog(
            c=np.zeros(n + 1),
            A_eq=np.concatenate([theta, [0.0]])[None, :],
            b_eq=[gap],
            A_ub=np.block([
                [np.eye(n), -np.ones((n, 1))],
                [-np.eye(n), -np.ones((n, 1))],
            ]) if metric_p == np.inf else None,
            b_ub=np.zeros(2 * n) if metric_p == np.inf else None,
            bounds=[(None, None)] * n + [(0, None)],
        ) if metric_p == np.inf else None
        if metric_p == np.inf:
            return res.fun if res.status == 0 else np.inf
        # l1 distance to a hyperplane: gap / max|theta_i|
        return gap / np.abs(theta).max()

    if metric_p == np.inf:
        # minimize the sup norm -> objective is the bound variable
        def dist_to_halfspace(x):  # noqa: F811
            if theta @ x <= t:
                return 0.0
            gap = theta @ x - t
            c = np.zeros(n + 1)
            c[-1] = 1.0
            res = optimize.linprog(
                c=c, A_eq=np.concatenate([-theta, [0.0]])[None, :], b_eq=[-gap],
                A_ub=np.block([[np.eye(n), -np.ones((n, 1))],
                               [-np.eye(n), -np.ones((n, 1))]]),
                b_ub=np.zeros(2 * n), bounds=[(None, None)] * n + [(0, None)])
            assert res.status == 0
            return res.fun

    member_est = pts @ theta <= t_exp
    member_oracle = np.array([dist_to_halfspace(x) <= eps + 1e-9 for x in pts])
    assert np.array_equal(member_est, member_oracle)


def test_curve_cube_coordinate_value():
    # uniform cube, metric linf, n=2: expanding the median half-cut by 0.5
    # leaves (1 - 0.5)/2 of the mass outside
    batch = ms.sample(ms.uniform_ball(ns.lp(np.inf, 2)), N, seed=8)
    curve = con.concentration_lower_curve(batch.data, ns.lp(np.inf, 2),
                                          np.array([0.5]))
    assert curve.alpha_hat[0] == pytest.approx(0.25, abs=0.01)


def test_curve_basic_shape():
    batch = ms.sample(ms.haar_sphere(32), 20000, seed=9)
    eps = np.linspace(1e-6, 1.2, 25)
    curve = con.concentration_lower_curve(batch.data, ns.lp(2, 32), eps)
    assert curve.alpha_hat[0] <= 0.5 + curve.ci[0]
    assert np.all(np.diff(curve.alpha_hat) <= 0.0)
    assert curve.family_size == 32 + con.DEFAULT_EXTRA_DIRECTIONS


def test_curve_grows_with_direction_family():
    batch = ms.sample(ms.haar_sphere(8), 20000, seed=10)
    eps = np.linspace(0.05, 1.0, 10)
    dirs = con.direction_family(8, 64, seed=123)
    small = con.concentration_lower_curve(batch.data, ns.lp(2, 8), eps,
                                          directions=dirs[:16])
    big = con.concentration_lower_curve(batch.data, ns.lp(2, 8), eps,
                                        directions=dirs)
    assert np.all(big.alpha_hat >= small.alpha_hat - 1e-12)


@pytest.mark.parametrize("measure, metric, eps, within_ci", [
    (ms.ggp(1, 32), ns.lp(1, 32), np.linspace(0.5, 9.0, 18), False),
    (ms.haar_sphere(64), ns.lp(2, 64), np.linspace(0.02, 0.6, 30), True),
    (ms.gaussian(16), ns.lp(2, 16), np.linspace(0.1, 3.0, 30), False),
    (ms.uniform_ball(ns.lp(np.inf, 8)), ns.lp(np.inf, 8), np.linspace(0.1, 0.9, 9), True)],
    ids=["ggp1_l1_n32", "sphere_l2_n64", "gaussian_l2_n16", "cube_linf_n8"])
def test_default_family_is_a_prefix_of_the_256_family(measure, metric, eps, within_ci):
    # the default family's extra directions are the first rows of any longer
    # family from the same seed, so its curve is that prefix's, bit for bit,
    # and lies below the longer family's; on the cube and the isotropic
    # sphere it stays within the longer family's CI of it
    data = ms.sample(measure, 5000, seed=3).data
    n, seed = metric.dim, 77
    curve = con.concentration_lower_curve(data, metric, eps, direction_seed=seed)
    dirs = con.direction_family(n, 256, seed)
    prefix = con.concentration_lower_curve(data, metric, eps, directions=dirs[:n + 32])
    assert curve.family_size == n + 32
    for key in ("alpha_hat", "ci", "argmax_direction"):
        assert np.array_equal(getattr(curve, key), getattr(prefix, key))
    big = con.concentration_lower_curve(data, metric, eps, directions=dirs)
    assert np.all(curve.alpha_hat <= big.alpha_hat)
    if within_ci:
        assert np.all(curve.alpha_hat >= big.alpha_hat - big.ci)


@pytest.mark.parametrize("n, count, p, ties", [
    (1, 999, 2, False), (7, 999, 1, False), (7, 1000, np.inf, True),
    (64, 1001, 2, False), (64, 999, 1.5, True)])
def test_curve_matches_column_sort_oracle(n, count, p, ties):
    data = ms.sample(ms.gaussian(n), count, seed=21 + n).data
    if ties:
        data = np.round(data, 1)
    metric = ns.lp(p, n)
    eps = np.geomspace(0.01, 3.0, 17)
    # n + 256 directions in nine or ten projection blocks: 257, 263 and 320
    # rows, two of them not a multiple of 64
    for dirs in (con.direction_family(n, 256, seed=5),
                 con.direction_family(n, 93, seed=6)[:100]):
        curve = con.concentration_lower_curve(data, metric, eps, directions=dirs)
        best, best_dir = curve_oracle(data, metric, eps, dirs)
        assert np.array_equal(curve.alpha_hat, best)
        assert np.array_equal(curve.argmax_direction, best_dir)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("family", ["default", "gaussian"])
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
def test_curve_refuses_non_finite_data(bad, family):
    # an axis block copies a bad coordinate and a GEMM block turns it into
    # NaN or an infinity, so a curve of such data would follow the block path
    data = ms.sample(ms.gaussian(4), 2000, seed=1).data.copy()
    data[1234, 2] = bad
    dirs = None if family == "default" else rng._generator(5, 0).standard_normal((8, 4))
    with pytest.raises(ValueError, match="non-finite"):
        con.concentration_lower_curve(data, ns.lp(2, 4), np.linspace(0.1, 1.0, 5),
                                      directions=dirs)


def _sorted_projections(data, dirs):
    """The sorted projections onto every direction, stacked by one
    ``reduce_projections`` call, and ``(k, shape, strides, base shape,
    (buffer row, column))`` of the row each ``reduce`` call saw, in order
    of k."""
    calls = []

    def record(row, k):
        row.sort()
        start = row.__array_interface__["data"][0] - row.base.__array_interface__["data"][0]
        calls.append((k, row.shape, row.strides, row.base.shape,
                      divmod(start // 8, row.base.shape[1])))
        return row.copy()

    return con.reduce_projections(data, dirs, record), sorted(calls)


def _blocks_of_rows(calls, count):
    """The (first, stop) of each 32-direction block, from the rows of
    ``calls``: one per direction, in order, and each the first ``count``
    unit-stride columns of its block's row of one block buffer, so no
    block crosses another."""
    for seen, (k, shape, strides, base, (buf_row, column)) in enumerate(calls):
        assert k == seen and shape == (count,) and strides == (8,)
        assert base[0] <= con._DIRECTION_CHUNK
        assert buf_row == k % con._DIRECTION_CHUNK and column == 0
    return [(lo, min(lo + con._DIRECTION_CHUNK, len(calls)))
            for lo in range(0, len(calls), con._DIRECTION_CHUNK)]


def test_sorted_projections_blocks():
    # N = 501 is not a multiple of 8: rows are the first 501 columns of a
    # 504-column block, with the bits of data @ chunk.T
    data = ms.sample(ms.gaussian(5), 501, seed=3).data
    dirs = con.direction_family(5, 70, seed=4)
    rows, calls = _sorted_projections(data, dirs)
    blocks = _blocks_of_rows(calls, 501)
    assert blocks[-1][1] == 75 and calls[0][3] == (32, 504)
    for lo, hi in blocks:
        chunk = dirs[lo:hi]
        assert np.array_equal(rows[lo:hi], np.sort((data @ chunk.T).T, axis=1))


@pytest.mark.parametrize("size", [1, 2, 3])
def test_sorted_projections_at_any_pool_size(monkeypatch, size):
    # at n >= 32 a small GEMM takes other bits: every cut (one GEMM over a
    # padded copy at N = 100 and 96 with a last block of 9 directions,
    # pieces with an early start at N = 999 and 5001, a last block of one
    # direction at N = 5001) gives the rows of the whole zero-padded
    # product, on row-major data and on the same data held column-major
    monkeypatch.setattr(rng, "_pool_size", size)
    for count, extra in ((100, 33), (96, 33), (999, 8), (5000, 70), (5001, 70), (5001, 25)):
        data = ms.sample(ms.gaussian(40), count, seed=3).data
        dirs = con.direction_family(40, extra, seed=4)
        padded = np.concatenate([data, np.zeros((-count % 8, 40))])
        for given in (data, ms.sample_columns(ms.gaussian(40), count, seed=3)):
            rows, calls = _sorted_projections(given, dirs)
            blocks = _blocks_of_rows(calls, count)
            assert blocks[-1][1] == dirs.shape[0]
            for lo, hi in blocks:
                chunk = dirs[lo:hi]
                assert np.array_equal(rows[lo:hi],
                                      np.sort((chunk @ padded.T)[:, :count], axis=1))


class _Stop(Exception):
    pass


def test_projection_pool_leaves_no_thread_behind(monkeypatch):
    # the executor lives for one call: a whole curve, and a call whose
    # reduce raises in the first block, leave the thread count as it was
    monkeypatch.setattr(rng, "_pool_size", 2)
    data = ms.sample(ms.gaussian(16), 5000, seed=3).data
    before = threading.active_count()
    con.concentration_lower_curve(data, ns.lp(2, 16), np.linspace(0.1, 1.0, 5))
    assert threading.active_count() == before
    seen = []

    def stop(row, k):
        seen.append(threading.active_count())
        raise _Stop

    with pytest.raises(_Stop):
        con.reduce_projections(data, con.direction_family(16, 64, seed=4), stop)
    assert max(seen) == before + 1     # the block used a worker
    assert threading.active_count() == before


_THREAD_PROBE = """
import hashlib, json
import numpy as np
from concmeter import concentration as con, measures as ms, normspace as ns
from concmeter import rng, verify as vf
out = {}
for size in (1, 2, 3):
    rng._set_pool_size(size)
    for count in (5000, 5001):
        digests = set()   # of the row-major and the column-major sample
        for data in (ms.sample(ms.gaussian(64), count, seed=3).data,
                     ms.sample_columns(ms.gaussian(64), count, seed=3)):
            dirs = con.direction_family(64, 256, seed=5)

            def record(row, k):
                row.sort()
                return row.copy()

            rows = con.reduce_projections(data, dirs, record)
            digest = hashlib.sha256(rows.tobytes())
            curve = con.concentration_lower_curve(data, ns.lp(2, 64),
                                                  np.linspace(0.02, 1.0, 25), directions=dirs)
            digest.update(curve.alpha_hat.tobytes())
            digest.update(curve.argmax_direction.tobytes())
            digests.add(digest.hexdigest())
        out[f"pool {size}, N {count}"] = " ".join(sorted(digests))
    rep = vf.check_separated_sets(measure=ms.haar_sphere(64), metric=ns.lp(2, 64),
                                  num_pairs=100, count=5001, seed=9, profile="sphere")
    out[f"pool {size}, pairs"] = hashlib.sha256(rep.to_json().encode()).hexdigest()
print(json.dumps(out))
"""

# recorded under numpy 2.4.6, at one OpenBLAS thread and pool size 1
_PROJECTION_DIGESTS = {
    "N 5000": "6ed49248fb907f598f7e8eb4cee570c802690dc58a6e3421ea29efdf50aa9e5f",
    "N 5001": "04d769611c8f84c4c83ea4608f0c53ed8242c848abbb0751d39e57a34cb105fc",
    "pairs": "9e4157a3f45850746611d82d221f33fb9f8ef6aca1eca8fa9552779529dcd0da",
}


def test_projections_do_not_depend_on_blas_threads():
    # every pool size at one and two OpenBLAS threads gives the recorded
    # bits, on row-major and column-major data alike; N = 5001 is not a
    # multiple of 8, where an unpadded GEMM's last bits follow the OpenBLAS
    # thread count
    env = dict(os.environ, PYTHONPATH=str(Path(con.__file__).parents[1]))
    for threads in ("1", "2"):
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        res = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        digests = json.loads(res.stdout)
        assert digests == {f"pool {size}, {key}": value for size in (1, 2, 3)
                           for key, value in _PROJECTION_DIGESTS.items()}, threads


def test_sorted_projections_block_allocates_no_copy():
    # 32-direction blocks: the GEMM writes the (32, N) rows and the sort
    # works in place, so the peak is one block, not block plus copy
    data = ms.sample(ms.gaussian(16), 20000, seed=3).data
    dirs = con.direction_family(16, 48, seed=4)
    bases = []

    def sort(row, k):
        row.sort()
        bases.append(row.base.shape)

    tracemalloc.start()
    try:
        con.reduce_projections(data, dirs, sort)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert set(bases) == {(con._DIRECTION_CHUNK, 20000)} == {(32, 20000)}
    assert peak <= 1.25 * 32 * 20000 * 8


def test_curve_holds_one_projection_block():
    # 16 + 32 = 48 directions in two blocks, both written into one buffer
    data = ms.sample(ms.gaussian(16), 20000, seed=3).data
    block = con._DIRECTION_CHUNK * 20000 * 8
    tracemalloc.start()
    try:
        con.concentration_lower_curve(data, ns.lp(2, 16), np.linspace(0.1, 2.0, 20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * block


@pytest.mark.parametrize("count", [1, 2, 3, 101, 999, 1000, 5001])
def test_quantile_cuts_match_numpy(count):
    gen = np.random.default_rng(count)
    q = np.concatenate([[0.0, 1e-12, 1e-6, 0.02, 0.25, 0.45, 0.5, 0.55, 0.75, 0.98,
                         1 - 1e-6, 1 - 1e-12, 1.0],
                        gen.uniform(size=40), 0.02 + 0.43 * gen.uniform(size=15),
                        0.55 + 0.43 * gen.uniform(size=15)])
    other = gen.permutation(q)
    # q_lo <= q_hi, with the ends of the set pairs' ranges among them
    pairs = np.concatenate([np.column_stack([np.minimum(q, other), np.maximum(q, other)]),
                            [[0.02, 0.98], [0.02, 0.55], [0.45, 0.98], [0.45, 0.55],
                             [0.02, 0.02], [0.98, 0.98]]])
    smooth = gen.normal(size=(len(pairs), count))
    tied = gen.integers(-3, 4, size=(len(pairs), count)).astype(np.float64)
    zeros = np.zeros((len(pairs), count))
    for rows in (smooth, tied, 1e-300 * tied, zeros, -zeros):
        expect = []
        for row, (q_lo, q_hi) in zip(rows, pairs):
            a, b = np.quantile(row, q_lo), np.quantile(row, q_hi)
            expect.append((a, b, np.count_nonzero(row <= a), np.count_nonzero(row >= b)))
        # selection reorders each row in place: sorted or not, the values stay
        for given in (np.sort(rows, axis=1), rows.copy()):
            for row, (q_lo, q_hi), want in zip(given, pairs, expect):
                got = con.quantile_cuts(row, q_lo, q_hi)
                assert got[2:] == want[2:]
                cuts = np.array(got[:2], dtype=np.float64)
                assert np.array_equal(cuts.view(np.uint64),
                                      np.array(want[:2]).view(np.uint64))
            assert np.array_equal(np.sort(given, axis=1), np.sort(rows, axis=1))


def test_curve_validation():
    batch = ms.sample(ms.haar_sphere(4), 1000, seed=11)
    with pytest.raises(ValueError):
        con.concentration_lower_curve(batch.data, ns.lp(2, 4), np.array([]))
    with pytest.raises(ValueError):
        con.concentration_lower_curve(batch.data, ns.lp(2, 5),
                                      np.array([0.1, 0.2]))


def test_lower_bound_soundness_sphere():
    n = 64
    batch = ms.sample(ms.haar_sphere(n), N, seed=12)
    eps = np.linspace(0.05, 1.0, 20)
    curve = con.concentration_lower_curve(batch.data, ns.lp(2, n), eps)
    prof = con.analytic_profile("sphere", n)
    assert np.all(curve.alpha_hat - curve.ci <= prof(eps))


def test_lower_bound_soundness_gaussian():
    batch = ms.sample(ms.gaussian(16), N, seed=13)
    eps = np.linspace(0.05, 3.0, 20)
    curve = con.concentration_lower_curve(batch.data, ns.lp(2, 16), eps)
    prof = con.analytic_profile("gaussian", 16)
    assert np.all(curve.alpha_hat - curve.ci <= prof(eps))


@pytest.mark.parametrize("n,eps_hi", [(16, 1.0), (32, 0.6), (64, 0.4)])
def test_lower_bound_soundness_exponential_product(n, eps_hi):
    # the exponential-product entry has true exponential tails, so its
    # eps^2 profile form is an upper bound only below ~16/n + 0.4; the
    # test grids stay inside that window
    batch = ms.sample(ms.ggp(1.0, n), N, seed=19)
    eps = np.linspace(0.05, eps_hi, 12)
    curve = con.concentration_lower_curve(batch.data, ns.lp(1, n), eps)
    prof = con.analytic_profile("gamma1", n)
    assert np.all(curve.alpha_hat - curve.ci <= prof(eps))


def test_profiles():
    prof = con.analytic_profile("sphere", 32)
    assert prof(0.0) == prof.C == 1.0
    eps = np.linspace(0, 2, 50)
    assert np.all(np.diff(prof(eps)) <= 0.0)
    assert con.analytic_profile("gaussian", 99).n_scale == 1.0
    assert con.analytic_profile("gamma1", 10).C == 2.0
    custom = con.analytic_profile("custom", 8, C=3.0, c=0.1)
    assert custom(1.0) == pytest.approx(3.0 * math.exp(-0.8))
    with pytest.raises(ValueError):
        con.analytic_profile("nope", 8)
    with pytest.raises(ValueError):
        con.analytic_profile("custom", 8)
    override = con.analytic_profile("sphere", 8, c=0.5)
    assert override.c == 0.5
