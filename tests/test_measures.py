"""Sampler laws, radial CDFs, and the incomplete-gamma kernel."""

import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

from concmeter import measures as ms
from concmeter import normspace as ns
from concmeter import parameters as par
from concmeter import rng

N_BIG = 100000


# ---------------------------------------------------------------------------
# gamma_cdf / gamma_quantile
# ---------------------------------------------------------------------------

def test_gamma_cdf_closed_forms():
    x = np.linspace(0.0, 20.0, 200)
    assert np.allclose(ms.gamma_cdf(1.0, x), 1.0 - np.exp(-x), atol=1e-13)
    # shape 2: 1 - e^-x (1 + x)
    assert ms.gamma_cdf(2.0, 2.0) == pytest.approx(1.0 - math.exp(-2.0) * 3.0,
                                                   abs=1e-13)
    assert ms.gamma_cdf(7.0, 0.0) == 0.0


@pytest.mark.parametrize("shape", [0.3, 1.0, 4.5, 64.0, 700.0, 2048.0])
def test_gamma_cdf_against_scipy(shape):
    x = np.linspace(0.0, 3.0 * shape + 20.0, 500)
    assert np.max(np.abs(ms.gamma_cdf(shape, x)
                         - special.gammainc(shape, x))) < 1e-12


def test_gamma_cdf_validation():
    with pytest.raises(ValueError):
        ms.gamma_cdf(4096.0, 1.0)
    with pytest.raises(ValueError):
        ms.gamma_cdf(2.0, np.nan)
    with pytest.raises(ValueError):
        ms.gamma_cdf(2.0, -1.0)


def test_gamma_log_cdf_deep_tail():
    # log CDF must agree with log(CDF) where both are representable and
    # keep full meaning far below the underflow threshold
    a = 64.0
    x = np.array([1.0, 5.0, 30.0])
    assert np.allclose(ms.gamma_log_cdf(a, x), np.log(ms.gamma_cdf(a, x)),
                       rtol=1e-12)
    deep = ms.gamma_log_cdf(a, 1e-3)
    expected = (a * math.log(1e-3) - 1e-3 - math.lgamma(a + 1.0)
                + math.log1p(1e-3 / (a + 1.0)))
    assert deep == pytest.approx(expected, abs=1e-6)


def test_gamma_quantile_roundtrip():
    q = np.array([1e-6, 0.001, 0.3, 0.5, 0.9, 0.999])
    for a in (0.7, 3.0, 64.0):
        x = ms.gamma_quantile(a, q)
        assert np.max(np.abs(ms.gamma_cdf(a, x) - q)) < 1e-12


def test_gamma_quantile_log_roundtrip():
    a = 32.0
    lq = np.array([-1000.0, -700.0, -300.0, -50.0, -2.0])
    x = ms.gamma_quantile_log(a, lq)
    assert np.max(np.abs(ms.gamma_log_cdf(a, x) - lq) / np.abs(lq)) < 1e-9


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def test_cube_marginals_uniform():
    batch = ms.sample(ms.uniform_ball(ns.lp(np.inf, 4)), N_BIG, seed=1)
    for k in range(4):
        d = stats.kstest(batch.data[:, k], stats.uniform(loc=-1, scale=2).cdf)
        assert d.statistic <= 0.01


def test_cone_surface_radius_exact():
    for p in (1.0, 2.0, np.inf):
        norm = ns.lp(p, 9)
        batch = ms.sample(ms.cone_surface(norm), 2000, seed=2)
        assert np.max(np.abs(ns.norm_eval(norm, batch.data) - 1.0)) <= 1e-12


def test_haar_sphere_matches_cone_l2():
    batch = ms.sample(ms.haar_sphere(7), 2000, seed=3)
    assert np.max(np.abs(np.linalg.norm(batch.data, axis=1) - 1.0)) <= 1e-12


def test_l1_ball_2d_radial_law_with_rejection_oracle():
    # oracle: uniform on the square, accepted inside the cross-polytope
    rng = np.random.default_rng(99)
    pts = rng.uniform(-1, 1, size=(400000, 2))
    pts = pts[np.abs(pts).sum(axis=1) <= 1.0][:50000]
    oracle_r = np.sort(np.abs(pts).sum(axis=1))
    grid = (np.arange(1, oracle_r.size + 1) - 0.5) / oracle_r.size
    assert np.max(np.abs(oracle_r ** 2 - grid)) <= 0.015  # law is r^2

    batch = ms.sample(ms.uniform_ball(ns.lp(1, 2)), N_BIG, seed=4)
    r = np.sort(ns.norm_eval(ns.lp(1, 2), batch.data))
    pos = (np.arange(1, N_BIG + 1) - 0.5) / N_BIG
    assert np.max(np.abs(r ** 2 - pos)) <= 0.01


@pytest.mark.parametrize("p,n", [(1.0, 3), (1.5, 6), (2.0, 5), (np.inf, 4)])
def test_ball_radial_law(p, n):
    norm = ns.lp(p, n)
    batch = ms.sample(ms.uniform_ball(norm), N_BIG, seed=5)
    r = np.sort(ns.norm_eval(norm, batch.data))
    pos = (np.arange(1, N_BIG + 1) - 0.5) / N_BIG
    ks = np.max(np.abs(r ** n - pos))
    assert ks <= 1.36 / math.sqrt(N_BIG) + 0.005


def test_transformed_ball_supported_in_body():
    rng = np.random.default_rng(12)
    t = rng.normal(size=(4, 4)) + 3 * np.eye(4)
    norm = ns.NormSpec(dim=4, p=2, transform=t)
    batch = ms.sample(ms.uniform_ball(norm), 20000, seed=6)
    r = ns.norm_eval(norm, batch.data)
    assert r.max() <= 1.0 + 1e-12
    pos = (np.arange(1, 20001) - 0.5) / 20000
    assert np.max(np.abs(np.sort(r) ** 4 - pos)) <= 0.02


def test_ggp_density_normalization():
    # numeric integral of c_p^{-1} exp(-|t|^p / p) over R equals 1
    for p in (1.0, 1.3, 1.7, 2.0):
        c_p = 2.0 * math.gamma(1.0 + 1.0 / p) * p ** (1.0 / p)
        val, err = integrate.quad(lambda t: math.exp(-abs(t) ** p / p) / c_p,
                                  -np.inf, np.inf)
        assert abs(val - 1.0) <= 1e-9


@pytest.mark.parametrize("p,n", [(1.0, 5), (1.5, 4), (2.0, 6)])
def test_ggp_radial_gamma_law(p, n):
    batch = ms.sample(ms.ggp(p, n), N_BIG, seed=7)
    w = (np.abs(batch.data) ** p).sum(axis=1) / p
    assert stats.kstest(w, "gamma", args=(n / p,)).statistic <= 0.01


def test_gaussian_coordinates():
    batch = ms.sample(ms.gaussian(3), N_BIG, seed=8)
    assert stats.kstest(batch.data[:, 1], "norm").statistic <= 0.01


def test_symmetry_of_batch_means():
    for spec in [ms.uniform_ball(ns.lp(1, 6)), ms.cone_surface(ns.lp(2, 6)),
                 ms.ggp(1.5, 6), ms.gaussian(6), ms.haar_sphere(6)]:
        batch = ms.sample(spec, 50000, seed=9)
        sd = batch.data.std(axis=0)
        bound = 5.0 * sd / math.sqrt(batch.count)
        assert np.all(np.abs(batch.data.mean(axis=0)) <= bound)


def test_batch_determinism_and_immutability():
    spec = ms.ggp(1.5, 4)
    a = ms.sample(spec, 3000, seed=10)
    b = ms.sample(spec, 3000, seed=10)
    assert np.array_equal(a.data, b.data)
    with pytest.raises(ValueError):
        a.data[0, 0] = 7.0


CHUNK_FAMILIES = [ms.haar_sphere, ms.gaussian, lambda n: ms.ggp(1.5, n),
                  lambda n: ms.uniform_ball(ns.lp(1.5, n))]


@pytest.mark.parametrize("n", [3, 100, 1024])
@pytest.mark.parametrize("make", CHUNK_FAMILIES)
def test_sample_is_chunk_invariant(make, n):
    # a count that spans several chunks and leaves a partial last one
    spec = make(n)
    step = rng.block_rows(n)
    count = 2 * step + step // 2 + 1
    whole = ms._generate(spec, 5, 0, count)
    assert np.array_equal(ms.sample(spec, count, seed=5).data, whole)
    norms = [ns.lp(2, n), ns.lp(np.inf, n)]
    for norm, vals in zip(norms, par.norm_values(spec, norms, count, seed=5)):
        assert np.array_equal(vals, ns.norm_eval(norm, whole))


PREFIX_FAMILIES = {
    "gaussian": ms.gaussian, "ggp 1.5": lambda n: ms.ggp(1.5, n),
    "haar_sphere": ms.haar_sphere, "ball l1": lambda n: ms.uniform_ball(ns.lp(1, n)),
    "cone linf": lambda n: ms.cone_surface(ns.lp(np.inf, n)),
    "transformed ball": lambda n: ms.uniform_ball(ns.NormSpec(
        dim=n, p=2, transform=np.eye(n) + 0.1 * np.tri(n)))}


@pytest.mark.parametrize("name", sorted(PREFIX_FAMILIES))
def test_sample_is_a_prefix_of_a_longer_sample(name):
    # N ends inside a key block, whose rows are drawn whole and then cut
    spec = PREFIX_FAMILIES[name](24)
    count = 2 * ms._key_rows(spec) + 77
    longer = ms.sample(spec, 3 * ms._chunk_rows(spec) + 5, seed=4).data
    assert np.array_equal(ms.sample(spec, count, seed=4).data, longer[:count])


@pytest.mark.parametrize("make", [ms.gaussian, lambda n: ms.ggp(1.5, n)], ids=["gaussian", "ggp1.5"])
def test_product_coordinate_is_the_same_in_every_dimension(make):
    # a product measure's key blocks are filled column by column, so
    # coordinate j is the same stream at any dimension above j
    count = 3 * ms._PRODUCT_ROWS + 100
    narrow = ms.sample(make(3), count, seed=6).data
    for n in (4, 17, 300):
        wide = ms.sample(make(n), count, seed=6).data
        assert np.array_equal(wide[:, :3], narrow), n


def test_empty_row_range_gives_an_empty_array():
    for make in PREFIX_FAMILIES.values():
        rows = ms._generate(make(5), 1, 300, 300)
        assert rows.shape == (0, 5) and rows.dtype == np.float64


@pytest.mark.parametrize("n", [40, 100])
def test_transformed_body_pulls_back_chunk_by_chunk(n):
    # a GEMM's last bits follow its row count, even at one BLAS thread, so
    # the pull-back is taken once per key block, on the whole block also
    # where the rows end inside it
    t = np.eye(n) + 0.1 * np.cos(np.add.outer(np.arange(n), 2.0 * np.arange(n)))
    spec = ms.uniform_ball(ns.NormSpec(dim=n, p=1.5, transform=t))
    step = ms._key_rows(spec)
    assert step == ms._chunk_rows(spec) == rng.block_rows(n)
    count = 6 * step + 7
    blocks = np.concatenate([ms._generate(spec, 5, lo, lo + step)
                             for lo in range(0, count, step)])
    assert np.array_equal(ms.sample(spec, count, seed=5).data, blocks[:count])
    assert np.array_equal(ms._generate(spec, 5, 0, count), blocks[:count])
    assert np.array_equal(ms._generate(spec, 5, 3, count - 5), blocks[3:count - 5])


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec, bound", [(ms.haar_sphere(64), 1.25),
                                         (ms.ggp(1.5, 64), 1.5)])
def test_sample_peak_is_batch_plus_one_chunk(monkeypatch, spec, bound):
    # the batch plus (bound - 1) batches of chunk temporaries per stream
    # thread; at one thread the bound is bound * batch
    count = 20000
    batch = count * 64 * 8
    for threads in (1, 2):
        monkeypatch.setattr(rng, "_pool_size", threads)
        peak = _peak_bytes(lambda: ms.sample(spec, count, seed=2))
        assert peak <= batch + threads * (bound - 1) * batch, threads


def test_norm_values_peak_stays_cache_sized(monkeypatch):
    # 2048 rows of dim 1024 are 16 MiB as a batch; streamed, the two norm
    # vectors plus a few chunks per stream thread (4 MiB in all at one)
    spec = ms.haar_sphere(1024)
    norms = [ns.lp(2, 1024), ns.lp(np.inf, 1024)]
    outputs = 2 * 2048 * 8
    for threads in (1, 2):
        monkeypatch.setattr(rng, "_pool_size", threads)
        peak = _peak_bytes(lambda: par.norm_values(spec, norms, 2048, seed=2))
        assert peak <= outputs + threads * (4 * 2**20 - outputs), threads


_POOL_PROBE = """
import hashlib, json, sys
import numpy as np
from concmeter import cli, measures as ms, normspace as ns, rng, verify as vf
sys.setswitchinterval(1e-5)     # threads trade the interpreter lock often
n = 40
step = rng.block_rows(n)
t = np.eye(n) + 0.1 * np.cos(np.add.outer(np.arange(n), 2.0 * np.arange(n)))
# a run config job that samples a transformed body
(_, job_check, job_params), = cli.validate_config({"seed": 6, "jobs": [{
    "check": "lipschitz_transfer", "n": n, "N": 3 * step + 11, "eps": [0.1, 0.5, 1.0],
    "measure": {"family": "uniform_ball", "p": 1.5, "transform": t.tolist()},
    "map": {"kind": "identity"}, "lip": 1.0, "metric": "l2", "profile": {"name": "gaussian"}}]})
plain = {"gaussian": ms.gaussian(n), "haar_sphere": ms.haar_sphere(n),
         "ggp 1": ms.ggp(1, n), "ggp 1.5": ms.ggp(1.5, n), "ggp 2": ms.ggp(2, n),
         "ball l1": ms.uniform_ball(ns.lp(1, n)), "ball l2": ms.uniform_ball(ns.lp(2, n)),
         "ball linf": ms.uniform_ball(ns.lp(np.inf, n)),
         "cone l1": ms.cone_surface(ns.lp(1, n)), "cone linf": ms.cone_surface(ns.lp(np.inf, n))}
body = ms.uniform_ball(ns.NormSpec(dim=n, p=1.5, transform=t))
cone = ms.cone_surface(ns.NormSpec(dim=n, p=1, transform=t))
K, L = ns.lp(2, n), ns.NormSpec(dim=n, p=1, transform=t)
angles = np.arange(32) * np.pi / 32
out = {}

def put(key, *arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    out.setdefault(key, []).append(digest.hexdigest())

for size in (1, 2, 3):
    rng._set_pool_size(size)
    for count in (step // 2, step, 3 * step + step // 2 + 1):
        for name, spec in {**plain, "transformed ball": body, "transformed cone": cone}.items():
            put(f"{name}, N {count}", ms.sample(spec, count, 5).data)
        put(f"pushed, N {count}", *vf._pushed_batch(
            body, count, 5, lambda rows: (ns.norm_eval(K, rows), ns.norm_eval(L, rows))))
    rep = vf.check_sup_embedding(
        K=ns.lp(2, 2), measure=ms.uniform_ball(ns.lp(2, 2)),
        functionals=np.column_stack([np.cos(angles), np.sin(angles)]), d=1.01,
        eps_grid=[0.05, 0.2, 0.5], count=3 * rng.block_rows(2) + 7, seed=4, profile="gaussian")
    out.setdefault("sup_embedding", []).append(hashlib.sha256(rep.to_json().encode()).hexdigest())
    rep = vf.run_check(job_check, **job_params)
    out.setdefault("transformed job", []).append(hashlib.sha256(rep.to_json().encode()).hexdigest())
for count in (step // 2, step, 3 * step + step // 2 + 1):
    for name, spec in plain.items():
        put(f"{name}, N {count}", ms._generate(spec, 5, 0, count))
print(json.dumps(out))
"""


def test_sample_map_bits_do_not_depend_on_pool_size():
    # at one BLAS thread every family, a transformed ball and cone, the
    # pushed image of a transformed body, a sup_embedding report and the
    # report of a run config job on a transformed body take the same bits
    # at pool sizes 1, 2 and 3, below, at and beyond one chunk; a plain
    # family's batch equals the rows of the whole table
    env = dict(os.environ, PYTHONPATH=str(Path(ms.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    res = subprocess.run([sys.executable, "-c", _POOL_PROBE], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    digests = json.loads(res.stdout)
    # 3 counts of 10 plain families (pool sizes and the whole table), of
    # the transformed ball and cone and of the pushed image, and two reports
    assert sorted(map(len, digests.values())) == [3] * 11 + [4] * 30
    for key, values in digests.items():
        assert len(set(values)) == 1, key


def _recording_chunk_map(monkeypatch, seen):
    """Install an ``rng._chunk_map`` that appends each chunk's row count to
    ``seen``: it shows the chunks of a row loop that calls the helper."""
    real = rng._chunk_map

    def recorded(count, step, fn):
        return real(count, step, lambda lo, hi: seen.append(hi - lo) or fn(lo, hi))

    monkeypatch.setattr(rng, "_chunk_map", recorded)


def _chunks(step, count):
    return sorted([step] * (count // step) + [count % step] * (count % step > 0))


@pytest.mark.parametrize("size", [1, 2, 3])
def test_sample_map_keeps_its_chunks_at_any_pool_size(monkeypatch, size):
    # sample_map sees its chunks of whole key blocks, and the row-loop
    # helper and norm_eval the chunks of rng.block_rows rows, at every pool
    # size, so a matrix product in a chunk keeps its row counts (and its bits)
    monkeypatch.setattr(rng, "_pool_size", size)
    spec = ms.gaussian(40)
    step = ms._chunk_rows(spec)
    assert step == 768 and step % ms._key_rows(spec) == 0
    count = 3 * step + step // 2 + 1
    seen = []

    def first_column(rows):
        seen.append(len(rows))
        return (rows[:, 0],)

    ms.sample_map(spec, count, 5, first_column)
    assert sorted(seen) == _chunks(step, count), "sample_map"

    step = rng.block_rows(40)
    seen.clear()
    index, = rng._chunk_map(count, step, lambda lo, hi: (
        seen.append(hi - lo) or np.arange(lo, hi),))
    assert sorted(seen) == _chunks(step, count), "_chunk_map"
    assert np.array_equal(index, np.arange(count))

    data = ms.sample(spec, count, 5).data
    norm = ns.lp(1.5, 40)
    seen.clear()
    _recording_chunk_map(monkeypatch, seen)
    vals = ns.norm_eval(norm, data)
    assert sorted(seen) == _chunks(step, count), "norm_eval"
    # every row is reduced on its own: pieces of 7 rows give the same bits
    assert np.array_equal(vals, np.concatenate(
        [ns.norm_eval(norm, data[lo:lo + 7]) for lo in range(0, count, 7)]))


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("n", [3, 64, 1024])
def test_sample_map_hands_fn_one_chunk_at_a_time(monkeypatch, size, n):
    # fn sees one chunk of whole key blocks at a time, about rng.block_rows
    # rows, so a callback's temporaries stay those of one chunk
    monkeypatch.setattr(rng, "_pool_size", size)
    seen = []
    for spec in (ms.gaussian(n), ms.ggp(1.5, n), ms.uniform_ball(ns.lp(1.5, n))):
        step, key = ms._chunk_rows(spec), ms._key_rows(spec)
        assert step % key == 0 and step == max(key, rng.block_rows(n) // key * key)
        count = 3 * step + step // 2 + 1
        seen.clear()
        rows, = ms.sample_map(spec, count, 5, lambda rows: seen.append(len(rows)) or (rows,))
        assert sorted(seen) == _chunks(step, count)
        assert np.array_equal(rows, ms._generate(spec, 5, 0, count))


def test_sample_map_reraises_a_worker_error_and_leaves_no_thread(monkeypatch):
    # an error raised in a chunk on a worker thread of sample_map, of the
    # row-loop helper or of norm_eval reaches the caller, and no stream
    # thread outlives a call
    monkeypatch.setattr(rng, "_pool_size", 2)
    spec, norm = ms.gaussian(16), ns.lp(2, 16)
    step = ms._chunk_rows(spec)
    assert step == rng.block_rows(16)
    count = 3 * step   # so that a worker thread takes a chunk
    caller = threading.get_ident()

    def poisoned(rows):
        if threading.get_ident() != caller:
            rows[0, 0] = np.nan
        return (ns.norm_eval(norm, rows),)

    def failing(lo, hi):
        if threading.get_ident() != caller:
            raise ValueError("non-finite chunk on a worker")
        return (np.zeros(hi - lo),)

    before = threading.active_count()
    vals, = ms.sample_map(spec, count, 3, lambda rows: (ns.norm_eval(norm, rows),))
    data = ms.sample(spec, count, 3).data.copy()
    assert np.array_equal(vals, ns.norm_eval(norm, data))
    assert threading.active_count() == before
    data[count - 1, 0] = np.inf     # the last chunk: not the caller's first
    for name, call in [("sample_map", lambda: ms.sample_map(spec, count, 3, poisoned)),
                       ("_chunk_map", lambda: rng._chunk_map(count, step, failing)),
                       ("norm_eval", lambda: ns.norm_eval(norm, data))]:
        with pytest.raises(ValueError, match="non-finite"):
            call()
        assert threading.active_count() == before, name


def test_one_chunk_starts_no_thread(monkeypatch):
    # a call of at most one chunk runs in the calling thread: a norm_eval
    # inside a stream worker, on that worker's chunk, nests no pool
    def no_pool(most):
        raise AssertionError("a one-chunk call started a stream pool")

    monkeypatch.setattr(rng, "_pool_size", 2)
    monkeypatch.setattr(rng, "_stream_pool", no_pool)
    spec, norm = ms.gaussian(16), ns.lp(2, 16)
    step = rng.block_rows(16)
    for count in (1, step):
        rows, = ms.sample_map(spec, count, 3, lambda rows: (rows,))
        assert ns.norm_eval(norm, rows).shape == (count,)
        index, = rng._chunk_map(count, step, lambda lo, hi: (np.arange(lo, hi),))
        assert np.array_equal(index, np.arange(count))


@pytest.mark.parametrize("size", [1, 2, 3])
def test_sample_image_is_held_column_major(monkeypatch, size):
    # the image is an (N, width) view of a C-ordered (width, N) array into
    # which the image rows that fn returns are copied, one chunk of whole key
    # blocks at a time; the values, and the bits, are those of the row-major
    # batch
    monkeypatch.setattr(rng, "_pool_size", size)
    for spec in (ms.gaussian(40), ms.haar_sphere(64), ms.uniform_ball(ns.lp(1.5, 7))):
        step = ms._chunk_rows(spec)
        count = 3 * step + step // 2 + 1
        batch = ms.sample(spec, count, 5).data
        columns = ms.sample_columns(spec, count, 5)
        assert columns.T.flags.c_contiguous and np.array_equal(columns, batch)
        seen = []

        def halves(rows):
            seen.append(len(rows))
            return 0.5 * rows[:, :2], rows[:, 0]

        image, first = ms.sample_image(spec, count, 5, halves)
        assert image.shape == (count, 2) and image.T.flags.c_contiguous
        assert sorted(seen) == _chunks(step, count)
        assert np.array_equal(image, 0.5 * batch[:, :2]) and np.array_equal(first, batch[:, 0])
    with pytest.raises(ValueError):
        ms.sample_columns(ms.gaussian(3), 0, seed=1)


def test_sample_validation():
    with pytest.raises(ValueError):
        ms.sample(ms.gaussian(3), 0, seed=1)
    with pytest.raises(ValueError):
        ms.MeasureSpec("ggp", 4, p=3.0)
    with pytest.raises(ValueError):
        ms.MeasureSpec("nonsense", 4)
    # p is read by the lp families only, and they need it
    for family in ms.FAMILIES:
        with pytest.raises(ValueError, match=r"lp exponent p"):
            ms.MeasureSpec(family, 4, p=None if family in ms.LP_FAMILIES else 2.0)


def test_measure_spec_roundtrip():
    for spec in [ms.uniform_ball(ns.lp(np.inf, 3)), ms.ggp(1.2, 5),
                 ms.haar_sphere(4)]:
        back = ms.MeasureSpec.from_config(spec.to_config())
        assert back == spec


_TRANSFORM = [[2.0, 0.5], [0.0, 1.0]]


@pytest.mark.parametrize("spec", [
    ms.uniform_ball(ns.lp(np.inf, 2)), ms.cone_surface(ns.lp(1.5, 2)), ms.ggp(1.2, 2),
    ms.gaussian(2), ms.haar_sphere(2),
    ms.MeasureSpec("uniform_ball", 2, "inf", _TRANSFORM),
    ms.MeasureSpec("cone_surface", 2, 1.0, _TRANSFORM)])
def test_from_config_round_trips_and_refuses_an_unknown_key(spec):
    # a misspelled key once gave a measure or norm without its transform
    cases = [(ms.MeasureSpec, spec.to_config(), "a measure")]
    if spec.body_norm is not None:
        cases.append((ns.NormSpec, spec.body_norm.to_config(), "a norm"))
    for cls, cfg, what in cases:
        assert cls.from_config(cfg).to_config() == cfg
        with pytest.raises(ValueError, match=re.escape(f"{what} takes no keys ['transfrom']")):
            cls.from_config({**cfg, "transfrom": _TRANSFORM})


@pytest.mark.parametrize("entry", ["2", True, math.inf, math.nan])
def test_from_config_refuses_a_transform_entry_that_is_no_finite_number(entry):
    # numpy reads "2" and True as numbers, so a config once ran [[2, 0], [1, 2]]
    rows = [[2.0, 0.0], [entry, 2.0]]
    configs = [(ms.MeasureSpec, {"family": "uniform_ball", "dim": 2, "p": 2, "transform": rows}),
               (ns.NormSpec, {"kind": "lp", "p": 2, "dim": 2, "transform": rows})]
    for cls, cfg in configs:
        with pytest.raises(ValueError, match="transform entries are finite numbers"):
            cls.from_config(cfg)
        with pytest.raises(ValueError, match="a transform is a list of rows"):
            cls.from_config({**cfg, "transform": "[[2, 0], [0, 2]]"})
    # the constructors still take arrays
    assert ns.NormSpec(dim=2, p=2, transform=np.eye(2)).transform_inv is not None


def test_body_norm_is_built_once():
    spec = ms.MeasureSpec("uniform_ball", 2, 2.0, _TRANSFORM)
    body = spec.body_norm
    assert spec.body_norm is body and body.transform is spec.transform
    assert np.array_equal(body.transform_inv, np.linalg.inv(spec.transform))
    assert ms.haar_sphere(3).body_norm.to_config() == ns.lp(2, 3).to_config()
    assert ms.ggp(1.5, 3).body_norm is None and ms.gaussian(3).body_norm is None


# ---------------------------------------------------------------------------
# Radial CDFs
# ---------------------------------------------------------------------------

def test_radial_cdf_ball_analytic():
    norm = ns.lp(1, 3)
    cdf = ms.radial_cdf(ms.uniform_ball(norm), norm)
    r = np.linspace(0, 1, 11)
    assert np.allclose(cdf.eval(r), r ** 3)
    assert cdf.quantile(0.5) == pytest.approx(2 ** (-1 / 3))


def test_radial_cdf_ggp_entries():
    cdf = ms.radial_cdf(ms.ggp(1.0, 5), ns.lp(1, 5))
    r = np.linspace(0.0, 20.0, 50)
    assert np.allclose(cdf.eval(r), special.gammainc(5, r), atol=1e-12)

    chi = ms.radial_cdf(ms.ggp(2.0, 6), ns.lp(2, 6))
    assert np.allclose(chi.eval(r), special.gammainc(3, r ** 2 / 2), atol=1e-12)
    # the gaussian alias shares the chi law
    alias = ms.radial_cdf(ms.gaussian(6), ns.lp(2, 6))
    assert np.allclose(alias.eval(r), chi.eval(r))


@pytest.mark.parametrize("make", [
    lambda: ms.radial_cdf(ms.uniform_ball(ns.lp(2, 4)), ns.lp(2, 4)),
    lambda: ms.radial_cdf(ms.ggp(1.5, 4), ns.lp(1.5, 4)),
])
def test_radial_cdf_quantile_inverse(make):
    cdf = make()
    u = np.linspace(0.001, 0.999, 200)
    assert np.max(np.abs(cdf.eval(cdf.quantile(u)) - u)) <= 1e-9


@pytest.mark.parametrize("measure, norm", [
    (ms.uniform_ball(ns.lp(2, 4)), ns.lp(1, 4)),   # a ball in a foreign norm
    (ms.haar_sphere(4), ns.lp(1, 4)),              # a family outside the catalog
], ids=["l2_ball_in_l1", "sphere_in_l1"])
def test_radial_cdf_refuses_pairings_outside_the_catalog(measure, norm):
    with pytest.raises(ValueError, match="covered: uniform_ball in its own body norm"):
        ms.radial_cdf(measure, norm)


def test_radial_cdf_monte_carlo_consistency():
    # ggp(1) radii against the analytic Gamma law
    cdf = ms.radial_cdf(ms.ggp(1.0, 5), ns.lp(1, 5))
    batch = ms.sample(ms.ggp(1.0, 5), N_BIG, seed=12)
    r = np.sort(ns.norm_eval(ns.lp(1, 5), batch.data))
    pos = (np.arange(1, N_BIG + 1) - 0.5) / N_BIG
    assert np.max(np.abs(cdf.eval(r) - pos)) <= 0.01
