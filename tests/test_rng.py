"""Stream keys, statistical quality and frozen bits of the sample streams."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from concmeter import concentration as con
from concmeter import measures as ms
from concmeter import normspace as ns
from concmeter import rng

ROWS = 20000
CUTS = [0, 250, 1234, 4097, 5000, 9000]     # inside key blocks of every family


def _families(n):
    return {"gaussian": ms.gaussian(n), "haar_sphere": ms.haar_sphere(n),
            "ggp 1": ms.ggp(1, n), "ggp 1.5": ms.ggp(1.5, n), "ggp 2": ms.ggp(2, n),
            "ball l1.5": ms.uniform_ball(ns.lp(1.5, n)),
            "ball linf": ms.uniform_ball(ns.lp(np.inf, n)),
            "cone l1": ms.cone_surface(ns.lp(1, n)),
            "cone linf": ms.cone_surface(ns.lp(np.inf, n))}


def test_pure_function_of_key():
    a = rng._generator(123, 4, 5).random(1000)
    b = rng._generator(123, 4, 5).random(1000)
    assert np.array_equal(a, b)


def test_partition_independence():
    # rows cut anywhere, also inside a key block, are the rows of the whole
    for name, spec in _families(8).items():
        whole = ms._generate(spec, 9, 0, CUTS[-1])
        parts = [ms._generate(spec, 9, lo, hi) for lo, hi in zip(CUTS[:-1], CUTS[1:])]
        assert np.array_equal(whole, np.vstack(parts)), name


def test_streams_differ_across_keys():
    base = rng._generator(1, 0, 0).random(800)
    for key in ((2, 0, 0), (1, 1, 0), (1, 0, 1), (-1, 0, 0)):
        assert not np.array_equal(base, rng._generator(*key).random(800)), key
    # the blocks of one stream are runs of one Philox sequence, 2^128
    # counter steps apart
    bits = np.random.Philox(key=1)
    bits.advance(3 << 128)
    assert np.array_equal(np.random.Generator(bits).random(8),
                          rng._generator(1, 0, 3).random(8))


def test_uniforms_in_unit_interval_and_uniform():
    u = rng._generator(7, 0).random(8 * ROWS)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert stats.kstest(u, "uniform").statistic < 0.005
    cube = ms.sample(ms.uniform_ball(ns.lp(np.inf, 8)), ROWS, seed=7).data.ravel()
    assert cube.min() >= -1.0 and cube.max() < 1.0
    assert stats.kstest(cube, "uniform", args=(-1, 2)).statistic < 0.005


def test_uniform_lattice_correlation():
    u = ms.sample(ms.uniform_ball(ns.lp(np.inf, 8)), ROWS, seed=21).data
    flat = u.ravel()
    lag1 = np.corrcoef(flat[:-1], flat[1:])[0, 1]
    cross = np.corrcoef(u[:, 0], u[:, 1])[0, 1]
    assert abs(lag1) < 0.01 and abs(cross) < 0.02


def test_normals_moments_and_law():
    z = ms.sample(ms.gaussian(8), ROWS, seed=3).data.ravel()
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert stats.kstest(z, "norm").statistic < 0.005


def test_signs_balanced():
    for p in (1.0, 1.5, 2.0):
        s = np.sign(ms.sample(ms.ggp(p, 8), ROWS, seed=5).data).ravel()
        assert set(np.unique(s)) == {-1.0, 1.0}
        assert abs(s.mean()) < 0.01, p


def test_exponentials_law():
    e = np.abs(ms.sample(ms.ggp(1, 8), ROWS, seed=11).data).ravel()
    assert stats.kstest(e, "expon").statistic < 0.005


# |x|_p^p / p of ggp(p, n) is Gamma(n / p): each shape with its (p, n)
GAMMA_CASES = {0.5: (2.0, 1), 2.0 / 3.0: (1.5, 1), 1.0: (1.0, 1), 1.5: (2.0, 3),
               4.0: (1.5, 6)}


@pytest.mark.parametrize("shape", sorted(GAMMA_CASES))
def test_gamma_law(shape):
    p, n = GAMMA_CASES[shape]
    x = ms.sample(ms.ggp(p, n), 8 * ROWS, seed=13).data
    g = (np.abs(x) ** p).sum(axis=1) / p
    assert stats.kstest(g, "gamma", args=(shape,)).statistic < 0.006


def test_gamma_deterministic_under_partition():
    # the gamma path: 1000 rows are the first rows of 4000
    full = ms.sample(ms.ggp(1.5, 8), 4000, seed=17).data
    top = ms.sample(ms.ggp(1.5, 8), 1000, seed=17).data
    assert np.array_equal(full[:1000], top)


def test_gamma_rejects_bad_shape():
    # a ggp magnitude draws Gamma(1 / p): p outside [1, 2] is refused first
    for p in (0.5, 3.0):
        with pytest.raises(ValueError):
            ms.ggp(p, 4)


def _gammas_round_by_round(shape, seed, block, size):
    """Gamma(shape) variates of one key block of the values stream, one
    variate per round of a Python loop, in C order of ``size``."""
    gen = rng._generator(seed, ms._VALUES, block)
    return np.array([gen.standard_gamma(shape) for _ in range(int(np.prod(size)))]).reshape(size)


# (key block, array shape) of a draw: a chunk's (rows, n) block, a long
# 1-D run, a longer run from a later block, a thin column layout
GAMMA_KEYS = {"chunk": (0, (128, 256)), "1d": (1, (5000,)),
              "scalar_i_long_j": (7, (40000,)), "column_row": (3, (300, 3))}


@pytest.mark.parametrize("keys", sorted(GAMMA_KEYS))
@pytest.mark.parametrize("shape", [0.5, 2.0 / 3.0, 0.9, 1.0, 4.0])
def test_gamma_equals_the_round_by_round_loop(shape, keys):
    # numpy's gamma sampler rejects a varying number of draws per variate
    # (both branches, shape below and above 1); it takes them from the
    # stream in order, so a variate is a function of its position in the
    # key block whatever array shape the block is drawn in
    block, size = GAMMA_KEYS[keys]
    got = rng._generator(4, ms._VALUES, block).standard_gamma(shape, size)
    assert got.shape == size
    assert np.array_equal(got, _gammas_round_by_round(shape, 4, block, size))
    p = 1.0 / shape
    if 1.0 < p < 2.0:    # ggp(p) magnitudes: (p Gamma(1 / p))^(1 / p) of that stream
        want = (p * _gammas_round_by_round(1.0 / p, 4, block, size)) ** (1.0 / p)
        assert np.array_equal(np.abs(ms._ggp_values(p, 4, block, size)), want)


def test_adjacent_key_blocks_are_independent():
    # rows r and r + block of a product measure, and of a sphere, are drawn
    # from different key blocks: uncorrelated coordinate by coordinate
    for spec in (ms.gaussian(64), ms.ggp(1.5, 64), ms.haar_sphere(64)):
        block = ms._key_rows(spec)
        x = ms._generate(spec, 19, 0, 8 * block).reshape(4, 2, block, 64)
        a, b = x[:, 0].ravel(), x[:, 1].ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / np.sqrt(a.size), spec.family


def test_signs_are_independent_of_magnitudes():
    # the sign and magnitude streams: |x| has the same law on both signs
    for p in (1.0, 1.5, 2.0):
        x = ms.sample(ms.ggp(p, 8), ROWS, seed=23).data.ravel()
        pos, neg = np.abs(x[x > 0]), np.abs(x[x < 0])
        assert stats.ks_2samp(pos, neg).pvalue > 1e-3, p
        assert abs(np.corrcoef(np.sign(x), np.abs(x))[0, 1]) < 0.01, p


def test_a_draw_holds_two_block_buffers_besides_its_output():
    # one chunk of ggp(1.5, 256), a key block: the rows plus the column
    # array the gamma sampler fills and its int8 signs, 1.125 block buffers,
    # and numpy's iteration buffer for the int8 to float64 cast (64 KiB)
    spec = ms.ggp(1.5, 256)
    rows = ms._chunk_rows(spec)
    buffer = rows * 256 * 8
    ms._generate(spec, 3, 0, rows)
    tracemalloc.start()
    try:
        ms._generate(spec, 3, 0, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == ms._key_rows(spec)
    output = buffer
    assert peak <= output + 1.125 * buffer + 128 * 2**10


def test_derive_seed_spreads():
    seeds = {rng.derive_seed(42, t) for t in range(100)}
    assert len(seeds) == 100


# SHA-256 of each sampler's output on a keyed stream, of each family's
# sample and of the random direction families, recorded under numpy 2.4.6.
# NEP 19 fixes Philox's raw output, not the streams of Generator's
# samplers: a numpy release that changes a sampler changes its *_grid or
# gammas_* digest together with the samples that draw from it.  Any change
# here changes every sample of every report.
GRID = (1237, 67)


def _transformed_ball():
    a = np.array([[2.0, 0.3, 0.0], [0.1, 1.0, -0.4], [0.0, 0.2, 0.5]])
    return ms.sample(ms.uniform_ball(ns.NormSpec(dim=3, p=1.5, transform=a)), 20000, 8).data


def _ggp_batch(p, n):
    return ms.sample(ms.ggp(p, n), 3000, 11).data


STREAM_CASES = {
    "uniforms_grid": lambda: rng._generator(5, 3).random(GRID),
    "signs_grid": lambda: rng._generator(5, 1).integers(0, 2, GRID, dtype=np.int8),
    "exponentials_grid": lambda: rng._generator(5, 1).standard_exponential(GRID),
    "normals_grid": lambda: rng._generator(5, 0).standard_normal(GRID),
    **{f"gammas_{name}": (lambda a=a: rng._generator(9, 1, 2).standard_gamma(a, (700, 67)))
       for name, a in (("0.5", 0.5), ("2/3", 2.0 / 3.0), ("1", 1.0), ("4", 4.0))},
    # the signed ggp(1.5) values of key block 1 of a product chunk, in
    # their (n, rows) column layout, and a long gamma run of a later block
    "gammas_chunk": lambda: ms._ggp_values(1.5, 3, 1, (256, ms._PRODUCT_ROWS)),
    "gammas_scalar_i_long_j": lambda: rng._generator(9, ms._VALUES, 5).standard_gamma(0.5, 70001),
    # one coordinate over three key blocks and a tail of the l-inf body's
    # uniforms, and one row of a product measure over many coordinates
    "uniforms_rows_scalar_j": lambda: ms._generate(ms.uniform_ball(ns.lp(np.inf, 1)), 6, 0, 70001),
    "normals_scalar_i_cols": lambda: ms._generate(ms.gaussian(4099), 6, 300, 301),
    # one draw from each of several stream tags
    "uniforms_slot_array": lambda: np.stack(
        [rng._generator(7, t).random(500) for t in range(67)], axis=1),
    "normals_slot_array": lambda: np.stack(
        [rng._generator(7, t, 2).standard_normal((500, 5)) for t in (0, 4, 9)], axis=-1),
    "derive_seed": lambda: np.array(
        [rng.derive_seed(42, t) for t in (0, 1, 0xA0, 0xB1, 0xC2, 0xD17, 2**64 - 1)]
        + [rng.derive_seed(42), rng.derive_seed(42, 3, 5), rng.derive_seed(-1, 7)],
        dtype=np.uint64),
    "uniform_ball_transformed": _transformed_ball,
    **{f"ggp_{p}_n{n}": (lambda p=p, n=n: _ggp_batch(p, n)) for p in (1.2, 1.5) for n in (3, 256)},
    **{f"sample {name} n33": (lambda spec=spec: ms.sample(spec, 5001, 7).data)
       for name, spec in _families(33).items()},
    "direction_family": lambda: con.direction_family(40, 300, 6),
    "candidate_directions": lambda: ns._candidate_directions(40, 300, 6),
}

FROZEN_DIGESTS = {
    "candidate_directions": "25541f3d6f973d56140656c6a6caefc5128955d07a37f4c09ca8a621dd8580e1",
    "derive_seed": "fd1a06f79e163b6886779101db774e9fa4e5880ce9107097556c485ebb0d1ae3",
    "direction_family": "f03dd45b53eea589901b0ce5f6f1c58aab4200e971704fe0e947c12117dc3379",
    "exponentials_grid": "ff50cdc3df93806f171fa4c5157d8b702a406cf97743ea9d59a53a4d3d7d1101",
    "gammas_0.5": "94bc63ef9267284d0f711bf39fe6df5dd1feee6a39b0195ff9931adf7aae410a",
    "gammas_1": "947bb918aa3427ddbb96f2c868f620688701a9036a555492b1e8b06382d6ad88",
    "gammas_2/3": "a71bce4da127e5a31e72e6a1d950294312ce2984dba8fd755491c7c9f3709d00",
    "gammas_4": "da1b70c3187b126b59f2fcecbd7435984dad080604ea31a0af42d893b86bed7e",
    "gammas_chunk": "39656ca50092cde90c263ec9fb3613a105c18358e78f9e5c12bdf67a42ee4d4a",
    "gammas_scalar_i_long_j": "f9827979b922f6eaa9fa892696c4f3bad7e90b1b7099ef678ac11b2c2eb7b4dd",
    "ggp_1.2_n256": "a44342e8f6c356b2fa4467afbb8334773b5abc237e6c33fc65563056799c4a4b",
    "ggp_1.2_n3": "d6b2915e2ab050dd51fd1607190e1e2536359b0aedfccf855456276645d8c5b4",
    "ggp_1.5_n256": "6630137210eb72adc46573e1676723420011d492c800eea060b47ffec092d481",
    "ggp_1.5_n3": "904977fbd7adaa7d477e5135755b7d2fb937f53e7b20c495e0bdd61e0c4b3df3",
    "normals_grid": "362f2b9c37f41a933624389a1ae559ea3a00228634ffc383b1b1792359ea86f1",
    "normals_scalar_i_cols": "a24d7cf19351b6421c5e75305c3e4518dfdb92d5c2bd9563b8a4fb8cbe0d2edf",
    "normals_slot_array": "a6b49d0da2a4a3fd784cc9584e29890051ecffe41996cd77a6a6529864a800ed",
    "sample ball l1.5 n33": "6154a6a7cb4052bde80ffcc23ae05dae9248b2b62cf434cf22e5e73e8a6959ed",
    "sample ball linf n33": "f09233eeac40cf69df7801020017144568fa70df673d6981f18cae883270923c",
    "sample cone l1 n33": "ff38c866ff0c9cf465a0e1fded97d1022058605ea15dfecf8a24930fbd2401f2",
    "sample cone linf n33": "d83fb91d8e9d58b715618ed5eae413cd23e0e9aaddfce4463b1fb5190f098dc8",
    "sample gaussian n33": "2c92fb411f10141f20f41001a0374b302ea976e8e24d9e4fdc38478b6689846b",
    "sample ggp 1 n33": "61258da3ad0ba36b6eaeb3144f877945a73d3586913c43f3ed2b8ffccbe993fd",
    "sample ggp 1.5 n33": "27e077fbcc5fc0a29c77c171b4e5965838cf10996125f5cb0a216108f44386cb",
    "sample ggp 2 n33": "34fffb4d86f1a6d5c5ca5ca2ed06b393a890452cd78c3e6224c90271a4167ca2",
    "sample haar_sphere n33": "7c2a2c5765295d295734de78691b94e891232bd7236df7048afd3fc3f6691e53",
    "signs_grid": "5901b6257f0ad0d501120420a6194d70208eb2ea567a10439bb72b1666565450",
    "uniform_ball_transformed": "3903e8487964cfa2b75c4ad71bef289742a78d4717ef2d1f15f6c747df050d47",
    "uniforms_grid": "dfe61a0497192e0984712e948f71256e978248857923443ceac3aa0b0e696110",
    "uniforms_rows_scalar_j": "4889015c3a9140ee663197a3eac7deda6c35c37d474ffc410730783d3a6c62da",
    "uniforms_slot_array": "0fb861bc76969a80fbf16ca7ee96b6a2f8e44f14bd21589fc283c6834066294f",
}


def _digest(a) -> str:
    a = np.ascontiguousarray(a)
    head = f"{a.dtype.str}{a.shape}".encode()
    return hashlib.sha256(head + a.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_stream_digests_frozen(name):
    assert _digest(STREAM_CASES[name]()) == FROZEN_DIGESTS[name]
