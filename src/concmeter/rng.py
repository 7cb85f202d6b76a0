"""Counter-based random streams for reproducible parallel Monte Carlo.

Every variate comes from numpy's Philox generator (Salmon, Moraes, Dror
and Shaw, *Parallel random numbers: as easy as 1, 2, 3*, SC 2011) through
numpy's own samplers.  A generator is keyed by ``(seed, stream tag)`` and
starts its counter at the start of a key block (:func:`_generator`), so a
variate is a pure function of

    (seed, stream tag, key block, position in the block).

There is no shared generator state: each block is drawn whole by whoever
needs it, so a batch can be produced in one pass, in chunks of whole key
blocks, or split across any number of threads, and the result is
bit-identical in all cases.  That reproducibility contract is what the
rest of the package builds on; the sample table's layout of key blocks is
in :mod:`.measures`.

NEP 19 fixes the raw output of numpy's bit generators, not the streams of
``Generator``'s samplers, which a numpy release may change; the frozen
digests of the test suite name the numpy version they were recorded under.
``numpy.random`` (about 16 ms to import) is imported on the first draw,
not with the package.

:func:`derive_seed` is a SplitMix64 hash chain over Python ints; every
check keys its directions and probes by derived seeds, so its values are
frozen too.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import os

import numpy as np

_M64 = (1 << 64) - 1

# Output elements per row chunk: the temporaries of a chunk stay in cache,
# and peak memory grows with the chunk, not with the output.
_BLOCK = 1 << 15


def block_rows(dim: int) -> int:
    """Rows of ``dim`` elements per chunk of a row loop: about one block,
    a multiple of 8 and at least 8.  With OpenBLAS a matrix-vector product
    taken in such chunks has the whole product's bits at one thread (odd
    chunks do not), and the same bits under any thread count."""
    return max(8, _BLOCK // dim // 8 * 8)


def _generator(seed: int, tag: int, block: int = 0):
    """numpy's Philox generator of key block ``block`` of stream ``tag``.

    The key is the 128 bits (seed, tag) and the counter starts at
    ``block * 2**128``, so the blocks of one stream are disjoint runs of
    one Philox sequence, each far longer than any draw."""
    bits = np.random.Philox(key=(seed & _M64) | (tag & _M64) << 64, counter=block << 128)
    return np.random.Generator(bits)


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
    [lo, hi), over the chunks of ``step`` rows of [0, count) from row 0.

    The first chunk runs alone in the calling thread and sizes the outputs
    (a call of one chunk starts no thread); the stream threads take the
    rest in contiguous ranges of whole chunks, so ``fn`` must be
    thread-safe.  The chunks, and the bits, do not depend on the number of
    threads.  ``fn`` may instead write rows [lo, hi) of an array it holds,
    in place, and return fewer or no outputs (``measures.sample_image``).
    """
    first = fn(0, min(step, count))
    outs = tuple(np.empty((count,) + part.shape[1:], part.dtype) for part in first)

    def put(lo: int, parts) -> None:
        for out, part in zip(outs, parts):
            out[lo:lo + len(part)] = part

    put(0, first)
    del first

    def fill(lo: int, hi: int) -> None:
        for start in range(lo, hi, step):
            put(start, fn(start, min(start + step, hi)))

    if count > step:
        rest = count - step
        with _stream_pool(-(-rest // step)) as spread:    # the chunks after the first
            spread(lambda a, b: fill(step + a, step + b), rest, step)
    return outs


def _mix64(z: int) -> int:
    """The SplitMix64 finalizer of a 64-bit int."""
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
    return z ^ z >> 31


def derive_seed(seed: int, *tags: int) -> int:
    """Derive an independent stream seed from a parent seed and integer tags:
    a SplitMix64 hash chain with one mix per key word (seed, 0, 0, 0, *tags)."""
    h = _mix64((seed & _M64) ^ 0x5DEECE66D1CE4E5B)
    for t in (0, 0, 0, *tags):
        h = _mix64(h ^ (t & _M64))
    return h
