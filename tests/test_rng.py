"""Stream quality and reproducibility of the counter-based generator."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from concmeter import rng

ROWS = np.arange(20000, dtype=np.uint64)[:, None]
COLS = np.arange(8, dtype=np.uint64)[None, :]


def test_pure_function_of_key():
    a = rng.uniforms(123, ROWS, COLS, 0)
    b = rng.uniforms(123, ROWS, COLS, 0)
    assert np.array_equal(a, b)


def test_partition_independence():
    # 9000 x 8 elements span three generator blocks; the cuts fall inside blocks
    cuts = [0, 250, 1234, 4097, 5000, 9000]
    for draw in (rng.uniforms, rng.normals):
        full = draw(9, np.arange(9000, dtype=np.uint64)[:, None], COLS, 2)
        parts = [draw(9, np.arange(lo, hi, dtype=np.uint64)[:, None], COLS, 2)
                 for lo, hi in zip(cuts[:-1], cuts[1:])]
        assert np.array_equal(full, np.vstack(parts))


def test_streams_differ_across_keys():
    base = rng.uniforms(1, ROWS[:100], COLS, 0)
    assert not np.array_equal(base, rng.uniforms(2, ROWS[:100], COLS, 0))
    assert not np.array_equal(base, rng.uniforms(1, ROWS[:100], COLS, 1))
    assert not np.array_equal(base, rng.uniforms(1, ROWS[100:200], COLS, 0))


def test_uniforms_open_interval_and_uniform():
    u = rng.uniforms(7, ROWS, COLS, 0).ravel()
    assert u.min() > 0.0 and u.max() < 1.0
    assert stats.kstest(u, "uniform").statistic < 0.005


def test_uniform_lattice_correlation():
    u = rng.uniforms(21, ROWS, COLS, 0)
    flat = u.ravel()
    lag1 = np.corrcoef(flat[:-1], flat[1:])[0, 1]
    cross = np.corrcoef(u[:, 0], u[:, 1])[0, 1]
    assert abs(lag1) < 0.01 and abs(cross) < 0.02


def test_normals_moments_and_law():
    z = rng.normals(3, ROWS, COLS, 0).ravel()
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert stats.kstest(z, "norm").statistic < 0.005


def test_signs_balanced():
    s = rng.signs(5, ROWS, COLS, 0).ravel()
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(s.mean()) < 0.01


def test_exponentials_law():
    e = rng.exponentials(11, ROWS, COLS, 0).ravel()
    assert stats.kstest(e, "expon").statistic < 0.005


@pytest.mark.parametrize("shape", [0.5, 2.0 / 3.0, 1.0, 1.5, 4.0])
def test_gamma_law(shape):
    g = rng.gammas(shape, 13, ROWS, COLS).ravel()
    assert stats.kstest(g, "gamma", args=(shape,)).statistic < 0.006


def test_gamma_deterministic_under_partition():
    idx = np.arange(4000, dtype=np.uint64)[:, None]
    full = rng.gammas(0.75, 17, idx, COLS)
    top = rng.gammas(0.75, 17, idx[:1000], COLS)
    assert np.array_equal(full[:1000], top)


def test_gamma_rejects_bad_shape():
    with pytest.raises(ValueError):
        rng.gammas(0.0, 1, ROWS[:10], COLS)


def _gammas_round_by_round(shape, seed, i, j, base_slot=0):
    """The gamma sampler one rejection round at a time, each round drawn
    with the public generators: the reference for the batched late rounds."""
    a = float(shape)
    boost = a < 1.0
    d = (a + 1.0 if boost else a) - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    i, j = np.asarray(i, dtype=np.uint64), np.asarray(j, dtype=np.uint64)
    shape = np.broadcast_shapes(i.shape, j.shape)

    def attempt(ki, kj, r):
        s0 = base_slot + 1 + 3 * r
        z = np.reshape(rng.normals(seed, ki, kj, s0), -1)
        u = np.reshape(rng.uniforms(seed, ki, kj, s0 + 2), -1)
        v = (1.0 + c * z) ** 3
        with np.errstate(divide="ignore", invalid="ignore"):
            logv = np.log(v)
        ok = (v > 0.0) & (np.log(u) < 0.5 * z * z + d - d * v + d * logv)
        return d * v, ok

    out, ok = attempt(i, j, 0)
    todo = np.flatnonzero(~ok)
    i_all, j_all = np.broadcast_to(i, shape), np.broadcast_to(j, shape)
    for r in range(1, rng._GAMMA_MAX_ROUNDS):
        if todo.size == 0:
            break
        at = np.unravel_index(todo, shape)
        value, ok = attempt(i_all[at], j_all[at], r)
        out[todo[ok]] = value[ok]
        todo = todo[~ok]
    if todo.size:
        raise RuntimeError("no accepting round within the cap")
    out = out.reshape(shape)
    if boost:
        out *= rng.uniforms(seed, i, j, base_slot) ** (1.0 / a)
    return out


GAMMA_KEYS = {
    "chunk": (np.arange(128, dtype=np.uint64)[:, None], np.arange(256, dtype=np.uint64)[None, :]),
    "1d": (np.arange(5000, dtype=np.uint64), np.arange(5000, dtype=np.uint64)),
    "scalar_i_long_j": (7, np.arange(40000, dtype=np.uint64)),
    "column_row": (np.arange(300, dtype=np.uint64)[:, None], np.arange(3, dtype=np.uint64)[None, :]),
}


@pytest.mark.parametrize("keys", sorted(GAMMA_KEYS))
@pytest.mark.parametrize("shape", [0.5, 2.0 / 3.0, 0.9, 1.0, 4.0])
def test_gamma_equals_the_round_by_round_loop(shape, keys):
    i, j = GAMMA_KEYS[keys]
    got = rng.gammas(shape, 4, i, j, base_slot=2)
    want = _gammas_round_by_round(shape, 4, i, j, base_slot=2)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_gamma_scalar_keys_reach_the_late_rounds(monkeypatch):
    # round 0 rejects (seed 129, i = j = 0) at shape 1.5, so a scalar key
    # takes a late round; it equals the one-element key's variate
    got = rng.gammas(1.5, 129, 0, 0)
    assert got.shape == ()
    assert got == _gammas_round_by_round(1.5, 129, np.zeros(1, dtype=np.uint64), 0)[0]
    monkeypatch.setattr(rng, "_GAMMA_MAX_ROUNDS", 1)
    with pytest.raises(RuntimeError):
        rng.gammas(1.5, 129, 0, 0)


# j keys of seed 2 (i = 0, shape 1) whose first accepting round is 1 .. 5;
# every j below 16 accepts in round 0
LATE_J = {1: 16, 2: 46, 3: 898, 4: 159137, 5: 177739}


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
def test_gamma_cap_cuts_the_late_rounds_where_the_loop_stops(monkeypatch, cap):
    # the cap ends the first three-round batch after 1, 2 or 3 rounds, or the
    # second after one; an element that needs round `cap` exceeds it
    monkeypatch.setattr(rng, "_GAMMA_MAX_ROUNDS", cap)
    within = np.array(list(range(16)) + [LATE_J[r] for r in range(1, cap)], dtype=np.uint64)
    assert np.array_equal(rng.gammas(1.0, 2, 0, within), _gammas_round_by_round(1.0, 2, 0, within))
    beyond = np.append(within, np.uint64(LATE_J[cap]))
    for sampler in (rng.gammas, _gammas_round_by_round):
        with pytest.raises(RuntimeError):
            sampler(1.0, 2, 0, beyond)


def test_empty_broadcast_shape_gives_an_empty_array():
    # keys that broadcast to no element: an empty array of that shape,
    # also when one key alone is not empty
    full, empty = np.arange(5, dtype=np.uint64)[:, None], np.arange(0, dtype=np.uint64)
    for i, j in ((full, empty), (empty, full), (empty[:, None], empty)):
        shape = np.broadcast_shapes(i.shape, j.shape)
        for out in (rng.uniforms(1, i, j, 0), rng.signs(1, i, j, 0), rng.normals(1, i, j, 0),
                    rng.exponentials(1, i, j, 0), rng.gammas(0.5, 1, i, j),
                    rng.gammas(2.5, 1, i, j)):
            assert out.shape == shape and out.dtype == np.float64


def test_a_draw_holds_two_block_buffers_besides_its_output():
    # one rng.normals call of one draw block: the output plus the prefix and
    # the spare buffer, each of the block's size, and at most 160 KiB of
    # small arrays and numpy's fixed iteration buffers (128 KiB) for the
    # broadcast key hash; a third block buffer would be 512 KiB
    i = np.arange(rng._DRAW_BLOCK // 1024, dtype=np.uint64)[:, None]
    j = np.arange(1024, dtype=np.uint64)[None, :]
    buffer = rng._DRAW_BLOCK * 8
    rng.normals(3, i, j, 0)
    tracemalloc.start()
    try:
        rng.normals(3, i, j, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rng._DRAW_BLOCK == 2 * rng._BLOCK
    output = buffer
    assert peak <= output + 2 * buffer + 160 * 2**10


def test_derive_seed_spreads():
    seeds = {rng.derive_seed(42, t) for t in range(100)}
    assert len(seeds) == 100


# SHA-256 of each generator's output on fixed keys, recorded before the
# generator was rewritten as a shared prefix plus one mix per slot in
# blocks.  Any change here changes every sample of every report.
GRID_I = np.arange(1237, dtype=np.uint64)[:, None]   # 1237 x 67: three blocks and a tail
GRID_J = np.arange(67, dtype=np.uint64)[None, :]
LONG = np.arange(70001, dtype=np.uint64)


def _transformed_ball():
    from concmeter.measures import sample, uniform_ball
    from concmeter.normspace import NormSpec
    a = np.array([[2.0, 0.3, 0.0], [0.1, 1.0, -0.4], [0.0, 0.2, 0.5]])
    return sample(uniform_ball(NormSpec(dim=3, p=1.5, transform=a)), 20000, 8).data


def _ggp_batch(p, n):
    from concmeter.measures import ggp, sample
    return sample(ggp(p, n), 3000, 11).data


STREAM_CASES = {
    "uniforms_grid": lambda: rng.uniforms(5, GRID_I, GRID_J, 3),
    "signs_grid": lambda: rng.signs(5, GRID_I, GRID_J, 0),
    "exponentials_grid": lambda: rng.exponentials(5, GRID_I, GRID_J, 1),
    "normals_grid": lambda: rng.normals(5, GRID_I, GRID_J, 0),
    "uniforms_rows_scalar_j": lambda: rng.uniforms(6, LONG, 1, 7),
    "normals_scalar_i_cols": lambda: rng.normals(6, 0, LONG, 0),
    "uniforms_slot_array": lambda: rng.uniforms(
        7, GRID_I[:500], 2, np.arange(67, dtype=np.uint64)[None, :]),
    "normals_slot_array": lambda: rng.normals(
        7, GRID_I[:500, :, None], GRID_J[:, :5, None], np.array([0, 4, 9], dtype=np.uint64)),
    "gammas_0.5": lambda: rng.gammas(0.5, 9, GRID_I[:700], GRID_J, base_slot=1),
    "gammas_2/3": lambda: rng.gammas(2.0 / 3.0, 9, GRID_I[:700], GRID_J, base_slot=1),
    "gammas_1": lambda: rng.gammas(1.0, 9, GRID_I[:700], GRID_J, base_slot=1),
    "gammas_4": lambda: rng.gammas(4.0, 9, GRID_I[:700], GRID_J, base_slot=1),
    "derive_seed": lambda: np.array(
        [rng.derive_seed(42, t) for t in (0, 1, 0xA0, 0xB1, 0xC2, 0xD17, 2**64 - 1)]
        + [rng.derive_seed(42), rng.derive_seed(42, 3, 5), rng.derive_seed(-1, 7)],
        dtype=np.uint64),
    "uniform_ball_transformed": _transformed_ball,
    # recorded before the gamma sampler drew its uniforms and late rounds
    # from one hash of the (seed, i, j) prefix
    "gammas_chunk": lambda: rng.gammas(
        1.0 / 1.5, 3, GRID_I[:128], np.arange(256, dtype=np.uint64)[None, :], base_slot=1),
    "gammas_scalar_i_long_j": lambda: rng.gammas(0.5, 9, 5, LONG),
    **{f"ggp_{p}_n{n}": (lambda p=p, n=n: _ggp_batch(p, n)) for p in (1.2, 1.5) for n in (3, 256)},
}

FROZEN_DIGESTS = {
    "derive_seed": "fd1a06f79e163b6886779101db774e9fa4e5880ce9107097556c485ebb0d1ae3",
    "exponentials_grid": "d17e08ce0ea9259c5cf3fda9d5fcd67020a708a83835b488fa1c086a28ad5daf",
    "gammas_0.5": "4d7deba09034b5d43df1c9f80594f7900b39653db817f78348fc7e7b4e1ea520",
    "gammas_1": "812f375af33656c662a40038a589624c87dc1be43961558b046938e7f50205b7",
    "gammas_2/3": "6a88be13863b0197a5937a70862653612cfc0998b8de8e4c930dc695115131f1",
    "gammas_4": "f6c44e2faaf325faf755974c7684f1fef0d630cda81f25ea9185a94ec800c221",
    "gammas_chunk": "649a1e514caa16d8ca2cc088bfbd47ee1fe514c84bed6920b86a7ab6ed1688b0",
    "gammas_scalar_i_long_j": "5af9833ee5de887313abd5c7398b8042b4426e66526e01781ff59422be7bfe00",
    "ggp_1.2_n256": "fc70efb060a54a15f77da5a1ed3ddf0eb3abcccc76f500d5038ae52d9e77ba9c",
    "ggp_1.2_n3": "1a237301e3a0b863eacb9c340b97adf0132eab9451919f63cc071dd0e8feebf7",
    "ggp_1.5_n256": "b5d141bcbd3828858037b28cdd4436bade43756f24a2c5c8ab6cd8ef6d8a2be2",
    "ggp_1.5_n3": "60cf87daf3ff5062b73c50d50adc72b047c01357ff015ddd636f52719cbbec66",
    "normals_grid": "bdcb6dc18f0622a0b560b4985884c3961ce0db97d395bb2378dde6ac3bf19489",
    "normals_scalar_i_cols": "017c7f9901974e7e9294948bb3eb2c587a1daccc93d86fa889c8502c7baaba29",
    "normals_slot_array": "4575991f8fba8f1bec2ec4b500164d0f2c7d160a9aeab602ac490c0908e97cd8",
    "signs_grid": "8f7ad0feeb84667a94c5d610d7a44afee67ccc5bf63ffef0afbaccc7a2fa7d2e",
    "uniform_ball_transformed": "34c4b9ec2c12eb976e2e7f37cd0abf57c08258fa72ec1619e665d9ee07779613",
    "uniforms_grid": "862d622130a70af6804a113404baa9fb01357d12d0e505c6e61f8706f153883e",
    "uniforms_rows_scalar_j": "d037f438c856db87b9fe50b44dc1c1fbe5f5ee00475cb5b1cf081d970feda3fe",
    "uniforms_slot_array": "f48987fd2a330ec02fe78354312447f893c783fa4e5885da0836a325b130b2c8",
}


def _digest(a) -> str:
    a = np.ascontiguousarray(a)
    head = f"{a.dtype.str}{a.shape}".encode()
    return hashlib.sha256(head + a.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_stream_digests_frozen(name):
    assert _digest(STREAM_CASES[name]()) == FROZEN_DIGESTS[name]
