"""Counter-based random streams for reproducible parallel Monte Carlo.

Every variate is a pure function of ``(seed, sample index, coordinate
index, slot)``.  There is no generator state: a batch can be produced in
one pass, in chunks, or split across any number of workers, and the
result is bit-identical in all cases.  That reproducibility contract is
what the rest of the package builds on.

The stream is a keyed hash chain built from the SplitMix64 finalizer
(three xorshift-multiply rounds), applied once per key word:

    h = mix(seed) ; h = mix(h ^ i) ; h = mix(h ^ j) ; h = mix(h ^ slot)

It is evaluated as a shared prefix plus one mix per slot: the slot-free
(seed, i, j) part is hashed once per element of the broadcast (i, j)
shape, and each slot an element consumes (two for a normal) costs one
more ``mix(prefix ^ slot)``.  The work runs in place, in draw blocks of
about 64k output elements (``_DRAW_BLOCK``, two row chunks of the sample
stream), so peak memory is bounded by the block rather than by the
output.  Neither changes a bit: the result is the chain above, element by
element.  The gamma sampler is the exception to the block bound: it keeps
the prefix of every element for its later slots, in uint64 arrays of its
output's size.

A block needs two buffers besides its output: the prefix, in which the
last slot is mixed, and a float64 spare that is also the shift scratch of
every mix; every earlier slot is mixed in the output block itself and
converted there before the next slot is mixed (:func:`_draw`).  The block
is two row chunks long because the stream threads share the interpreter
lock: a numpy pass over one 32k-element chunk lasts 10-15 us, shorter
than a waiting thread takes to wake, so at one chunk per block the two
threads handed the lock back and forth after nearly every pass
(10.7-12.9k voluntary context switches in one ``beta_tilde`` call at
n = 1024 and N = 3e4, 3.7-4.1k at two chunks).  Two buffers of the
doubled block hold 1 MiB, against 1.25 MiB for the five of the one-chunk
block they replace.

Rejection samplers (the gamma generator below) draw from a per-element
sub-stream indexed by the slot, so the number of attempts one element
needs never shifts the stream of any other element.

Statistical quality (uniformity, moments, independence across indices)
is exercised in the test suite at Monte Carlo scale; SplitMix64 is more
than adequate for desk-scale experiments.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import math
import os

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SEED_TAG = np.uint64(0x5DEECE66D1CE4E5B)
_S11, _S27, _S30, _S31, _S63 = (np.uint64(k) for k in (11, 27, 30, 31, 63))

# Output elements per row chunk: the temporaries of a chunk stay in cache,
# and peak memory grows with the chunk, not with the output.
_BLOCK = 1 << 15
# Row chunks per draw of the sample stream, and so per block of _draw: one
# numpy pass over a block lasts long enough that the stream threads do not
# trade the interpreter lock after every pass.
_DRAW_CHUNKS = 2
_DRAW_BLOCK = _DRAW_CHUNKS * _BLOCK


def block_rows(dim: int) -> int:
    """Rows of ``dim`` elements per chunk of a row loop: about one block,
    a multiple of 8 and at least 8.  With OpenBLAS a matrix-vector product
    taken in such chunks has the whole product's bits at one thread (odd
    chunks do not), and the same bits under any thread count."""
    return max(8, _BLOCK // dim // 8 * 8)


# Streamed work (sample chunks, projection pieces) runs on the calling
# thread plus a pool made for one call; numpy and BLAS release the
# interpreter lock inside their loops, so the threads share the cores.
_pool_size = 0          # threads per streamed call; 0: one per usable core


def _usable_cpus() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _set_pool_size(size: int) -> None:
    """Use ``size`` threads per streamed call in this process (the
    initializer of each ``run`` worker process, which shares the cores with
    its siblings)."""
    global _pool_size
    _pool_size = size


def _threads() -> int:
    """Threads for one streamed call: the size set for this process, else
    one per usable core."""
    return _pool_size or _usable_cpus()


def _cuts(stop: int, parts: int, step: int = 1) -> list:
    """At most ``parts`` ranges ``(a, b)`` of nearly equal length that
    cover [0, stop), cut at multiples of ``step``."""
    cuts = sorted({stop * k // parts // step * step for k in range(parts)} | {stop})
    return list(zip(cuts[:-1], cuts[1:]))


@contextlib.contextmanager
def _stream_pool(most: int):
    """The stream threads of one call, at most ``most`` of them.

    Yields ``spread(work, stop, step=1, parts=threads)``, which calls
    ``work(a, b)`` for each range of ``_cuts(stop, parts, step)``: the first
    in the calling thread and the others on an executor of ``threads - 1``
    workers (none for one thread).  The executor is shut down on exit, so no
    thread outlives the call or is inherited through fork.
    """
    threads = min(_threads(), most)
    pool = concurrent.futures.ThreadPoolExecutor(threads - 1) if threads > 1 else None

    def spread(work, stop: int, step: int = 1, parts: int = threads) -> None:
        ranges = _cuts(stop, parts, step)
        if pool is None:
            for r in ranges:
                work(*r)
            return
        rest = [pool.submit(work, *r) for r in ranges[1:]]
        for r in ranges[:1]:
            work(*r)
        for done in rest:
            done.result()

    try:
        yield spread
    finally:
        if pool is not None:
            pool.shutdown()


def _chunk_map(count: int, step: int, fn) -> tuple:
    """Full-length outputs of ``fn(lo, hi)``, a tuple of arrays for rows
    [lo, hi), over the chunks of ``step`` rows of [0, count) from row 0: the
    row loop of :func:`_draw_map` at one chunk per call."""
    return _draw_map(count, step, 1, lambda lo, hi: (fn(lo, hi),))


def _draw_map(count: int, step: int, chunks: int, draw) -> tuple:
    """Full-length outputs of a row loop over [0, count) whose calls
    ``draw(lo, hi)`` take up to ``chunks`` chunks of ``step`` rows each and
    yield, for each chunk of [lo, hi) in order, a tuple of arrays for its
    rows, which are written into the outputs as they come.

    The first chunk is drawn alone in the calling thread and sizes the
    outputs (a call of one chunk starts no thread); the stream threads take
    the rest in contiguous ranges of whole draws, so ``draw`` must be
    thread-safe.  The chunks, and the bits, do not depend on the number of
    threads.
    """
    first, = draw(0, min(step, count))
    outs = tuple(np.empty((count,) + part.shape[1:], part.dtype) for part in first)

    def put(start: int, pieces) -> None:
        for k, piece in enumerate(pieces):
            for out, part in zip(outs, piece):
                out[start + k * step:start + k * step + len(part)] = part

    put(0, (first,))
    del first
    width = chunks * step

    def fill(lo: int, hi: int) -> None:
        for start in range(lo, hi, width):
            put(start, draw(start, min(start + width, hi)))

    if count > step:
        rest = count - step
        with _stream_pool(-(-rest // width)) as spread:    # the draws after the first chunk
            spread(lambda a, b: fill(step + a, step + b), rest, width)
    return outs


# Slots consumed per rejection round of the gamma sampler (two for the
# normal draw, one for the accept test); the rounds after the first are
# drawn _GAMMA_LATE_ROUNDS at a time, up to the cap of _GAMMA_MAX_ROUNDS.
_GAMMA_ROUND_SLOTS = 3
_GAMMA_LATE_ROUNDS = 3
_GAMMA_MAX_ROUNDS = 64


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on uint64 ``z`` (wraps mod 2^64);
    ``tmp`` is scratch of z's shape."""
    z += _GOLDEN
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z


def _view(buf: np.ndarray, shape) -> np.ndarray:
    return buf[:math.prod(shape)].reshape(shape)


def _prefix(seed: int, i: np.ndarray, j: np.ndarray, out: np.ndarray,
            tmp: np.ndarray) -> np.ndarray:
    """The slot-free head of the chain, ``mix(mix(mix(seed) ^ i) ^ j)``, into
    ``out`` (the broadcast shape of i and j, contiguous); ``tmp`` is a flat
    uint64 buffer of at least ``out.size`` elements.  The row hash
    ``mix(mix(seed) ^ i)`` is built in ``tmp`` with the head of ``out`` as
    its shift scratch, so the call allocates nothing of the keys' size."""
    h = np.array(seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    h ^= _SEED_TAG
    _mix64(h, np.empty_like(h))
    hi = _view(tmp, i.shape)
    np.bitwise_xor(h, i, out=hi)
    _mix64(hi, _view(out.reshape(-1), i.shape))
    np.bitwise_xor(hi, j, out=out)
    return _mix64(out, _view(tmp, out.shape))


def _draw(seed: int, i, j, slots: tuple, fill) -> np.ndarray:
    """Variates over the broadcast shape of ``(i, j, *slots)``, block by block.

    The output is cut along its first axis into blocks of about
    ``_DRAW_BLOCK`` elements.  Per block the (seed, i, j) prefix is hashed
    once, then ``fill(out, bits, spare)`` writes the block's variates into
    ``out``, where ``spare`` is a float64 buffer of out's size and
    ``bits(k)`` returns ``mix(prefix ^ slots[k])`` in place:

    - every slot but the last is mixed in ``out`` itself, viewed as uint64,
      so a fill converts one slot's bits into out before it asks for the
      next;
    - the last slot is mixed in the prefix buffer, which it consumes;
    - ``spare``, viewed as uint64, is the shift scratch of every mix, so a
      fill writes it only after its last ``bits`` call.

    The prefix and the spare are the only buffers, allocated once per call.
    A fill sees its arrays flat: numpy casts a 1-d array onto its own memory
    in place, but copies it first when it has more dimensions.
    """
    keys = [np.asarray(a, dtype=np.uint64) for a in (i, j, *slots)]
    shape = np.broadcast_shapes(*(k.shape for k in keys))
    size = math.prod(shape)
    if size == 0:   # no variate, and no key to hash
        return np.empty(shape)
    nd = max(len(shape), 1)
    keys = [k.reshape((1,) * (nd - k.ndim) + k.shape) for k in keys]
    lead, *rest = (1,) * (nd - len(shape)) + shape
    inner = math.prod(rest)
    step = max(1, min(lead, _DRAW_BLOCK // inner))
    out = np.empty(size)
    prefix_buf = np.empty(step * inner, dtype=np.uint64)
    spare_buf = np.empty(step * inner, dtype=np.float64)
    tmp_buf = spare_buf.view(np.uint64)
    last = len(slots) - 1
    for lo in range(0, lead, step):
        ib, jb, *sb = (k if k.shape[0] == 1 else k[lo:lo + step] for k in keys)
        block = (min(step, lead - lo), *rest)
        m = math.prod(block)
        ob, spare, tmp = out[lo * inner:lo * inner + m], spare_buf[:m], tmp_buf[:m]
        prefix = _prefix(seed, ib, jb, _view(prefix_buf, np.broadcast_shapes(ib.shape, jb.shape)),
                         tmp_buf)

        def slot_bits(k: int) -> np.ndarray:
            head = prefix
            if k < last:
                bits = ob.view(np.uint64)
            else:
                bits = prefix_buf[:ob.size]
                if prefix.shape != block:
                    # slot keys broadcast past (i, j): spread the prefix over
                    # the block from a copy, as it shares bits' memory
                    head = _view(tmp_buf, prefix.shape)
                    np.copyto(head, prefix)
            np.bitwise_xor(head, sb[k], out=bits.reshape(block))
            return _mix64(bits, tmp)

        fill(ob, slot_bits, spare)
    return out.reshape(shape)[()]  # scalar keys give a numpy scalar, as ufuncs do


def _to_unit(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The top 53 bits as doubles in (0, 1), written into ``out``."""
    bits >>= _S11
    np.copyto(out, bits, casting="unsafe")
    out += 0.5
    out *= 2.0 ** -53
    return out


def uniforms(seed: int, i, j, slot) -> np.ndarray:
    """Doubles in the open interval (0, 1); shape broadcast from (i, j, slot)."""
    return _draw(seed, i, j, (slot,), lambda out, bits, spare: _to_unit(bits(0), out))


def signs(seed: int, i, j, slot) -> np.ndarray:
    """Random signs (+1.0 / -1.0) from the top bit of the stream."""
    def fill(out, bits, spare):
        top = bits(0)
        top >>= _S63
        np.copyto(out, top, casting="unsafe")
        out *= 2.0
        out -= 1.0
    return _draw(seed, i, j, (slot,), fill)


def _box_muller(out: np.ndarray, bits, spare: np.ndarray) -> None:
    """Standard normals into ``out`` from the radius bits ``bits(0)`` and the
    angle bits ``bits(1)``; ``spare`` is a float64 buffer of out's shape."""
    radius = _to_unit(bits(0), out)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = _to_unit(bits(1), spare)
    angle *= 2.0 * np.pi
    np.cos(angle, out=angle)
    radius *= angle


def normals(seed: int, i, j, slot) -> np.ndarray:
    """Standard normals via Box-Muller; consumes slots (slot, slot+1)."""
    slot = np.asarray(slot, dtype=np.uint64)
    return _draw(seed, i, j, (slot, slot + np.uint64(1)), _box_muller)


def exponentials(seed: int, i, j, slot) -> np.ndarray:
    """Unit-rate exponentials by inverse transform; consumes one slot."""
    def fill(out, bits, spare):
        u = _to_unit(bits(0), out)
        np.log(u, out=u)
        np.negative(u, out=u)
    return _draw(seed, i, j, (slot,), fill)


def gammas(shape: float, seed: int, i, j, base_slot: int = 0) -> np.ndarray:
    """Gamma(shape, 1) variates on the (i, j) sub-streams.

    Uses the Marsaglia-Tsang squeeze for shape >= 1 and the boost
    Gamma(a) = Gamma(a+1) * U^(1/a) for shape < 1.  Slot layout per
    element: ``base_slot`` holds the boost uniform, round r consumes
    slots ``base_slot + 1 + 3r .. base_slot + 3 + 3r`` (the normal, then
    the accept uniform).  Acceptance is ~95% per round, so the 64-round
    cap is unreachable in practice.

    The (seed, i, j) prefix is hashed once per call, and every slot but
    round 0's normal is drawn from it: round 0's uniform, the boost
    uniform, and the normal and uniform of each later round.  Round 0's
    normal is a call of :func:`normals`, which hashes the prefix again per
    block; it stays public so that a tracer of this module sees the one
    normal draw per element.  The elements that round 0 rejects draw the
    next ``_GAMMA_LATE_ROUNDS`` rounds at once, on a (rejected, rounds)
    slot grid, and take their first accepting round; the rest repeat
    until none is left.  Every variate is that of the round-by-round
    loop, bit for bit.

    Memory: beside the float64 output and its round-0 temporaries, the
    call holds up to three uint64 arrays of the output's size at once (the
    prefix and one ``mix`` with its scratch), 24 bytes an element, not one
    block's worth as :func:`normals` does.
    """
    a = float(shape)
    if not a > 0.0:
        raise ValueError(f"gamma shape must be positive, got {a}")
    boost = a < 1.0
    ash = a + 1.0 if boost else a
    d = ash - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)

    i, j = np.asarray(i, dtype=np.uint64), np.asarray(j, dtype=np.uint64)
    shape = np.broadcast_shapes(i.shape, j.shape)
    if math.prod(shape) == 0:   # no variate, and no key to hash
        return np.empty(shape)
    base = int(base_slot)
    z = np.reshape(normals(seed, i, j, base + 1), -1)
    prefix = _prefix(seed, i, j, np.empty(shape, dtype=np.uint64),
                     np.empty(math.prod(shape), dtype=np.uint64)).reshape(-1)

    def mixed(pre: np.ndarray, slot) -> np.ndarray:
        """``mix(pre ^ slot)``, in a new array of their broadcast shape."""
        h = np.bitwise_xor(pre, slot)
        return _mix64(h, np.empty_like(h))

    def accept(z: np.ndarray, u: np.ndarray):
        """The candidates d*v of normals z and their accept flags against
        uniforms u (z and u are overwritten)."""
        v = c * z
        v += 1.0
        v **= 3
        ok = v > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            logv = np.log(v)   # v <= 0 is rejected by ok's first factor
        logv *= d
        v *= d
        # (z * z) * 0.5 is (0.5 * z) * z: a Box-Muller |z| exceeds 1e-30, so
        # halving is exact
        rhs = z
        rhs *= z
        rhs *= 0.5
        rhs += d
        rhs -= v
        rhs += logv
        ok &= np.log(u, out=u) < rhs
        return v, ok

    u = mixed(prefix, base + 3)
    u = _to_unit(u, u.view(np.float64))
    out, ok = accept(z, u)
    todo = np.flatnonzero(~ok)
    r = 1
    while todo.size:
        if r == _GAMMA_MAX_ROUNDS:
            raise RuntimeError("gamma sampler failed to accept within the slot budget")
        # rounds r .. r + m - 1 of the rejected elements, on a (k, m) slot grid
        rounds = np.arange(r, min(r + _GAMMA_LATE_ROUNDS, _GAMMA_MAX_ROUNDS), dtype=np.uint64)
        slot = base + 1 + _GAMMA_ROUND_SLOTS * rounds
        pre = prefix[todo, None]
        z, late_u = np.empty((2, todo.size, rounds.size))
        _box_muller(z, lambda k: mixed(pre, slot + k), late_u)
        value, ok = accept(z, _to_unit(mixed(pre, slot + 2), late_u))
        hit = ok.any(axis=1)
        out[todo[hit]] = value[hit, ok[hit].argmax(axis=1)]
        todo = todo[~hit]
        r += rounds.size

    out = out.reshape(shape)
    if boost:   # the last slot: mixed in u's memory, the spent prefix its scratch
        bits = np.bitwise_xor(prefix, base, out=u.view(np.uint64))
        b = _to_unit(_mix64(bits, prefix), u).reshape(shape)
        b **= 1.0 / a
        out *= b
    return out


def derive_seed(seed: int, *tags: int) -> int:
    """Derive an independent stream seed from a parent seed and integer tags."""
    zero = np.zeros(1, dtype=np.uint64)
    h, tmp = np.empty((2, 1), dtype=np.uint64)
    _prefix(seed, zero, zero, h, tmp)
    for t in (0, *tags):  # slot 0 ends the (seed, 0, 0, 0) key; then one mix per tag
        h ^= np.uint64(t & 0xFFFFFFFFFFFFFFFF)
        _mix64(h, tmp)
    return int(h[0])
