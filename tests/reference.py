"""Whole-array reference computations that the tests compare the library's
fast paths with: no threads, no chunks, no reduce callbacks."""

import numpy as np

from concmeter import normspace as ns


def curve_oracle(data, metric, eps_grid, directions):
    """The curve as a column sort of each 64-direction block of projections."""
    count = data.shape[0]
    dual = ns.dual_norm(metric)
    best = np.full(eps_grid.size, -1.0)
    best_dir = np.zeros(eps_grid.size, dtype=np.int64)
    for lo in range(0, directions.shape[0], 64):
        chunk = directions[lo:lo + 64]
        proj = np.sort(data @ chunk.T, axis=0)
        med = 0.5 * (proj[(count - 1) // 2] + proj[count // 2])
        dual_w = ns.norm_eval(dual, chunk)
        for k in range(chunk.shape[0]):
            beyond = count - np.searchsorted(proj[:, k], med[k] + eps_grid * dual_w[k],
                                             side="right")
            frac = beyond / count
            better = frac > best
            best = np.where(better, frac, best)
            best_dir = np.where(better, lo + k, best_dir)
    return best, best_dir
