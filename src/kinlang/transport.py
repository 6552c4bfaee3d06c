"""Exact L^1 Wasserstein distances between empirical measures.

Empirical measures here are uniform over n support points, given as
``(x, y)`` pairs of (n, d) position and velocity arrays; for equal sizes
the W_1 distance is the assignment problem on the matrix of ground costs:

    W_1(A, B) = min over permutations pi of mean_i d(a_i, b_pi(i)).

``cost_matrix_zw`` builds that matrix and ``wasserstein_from_costs``
solves it with a shortest-augmenting-path assignment (O(n^3)); exactness
matters more than speed here, so sizes are capped and larger inputs should
be subsampled.  ``wasserstein_from_costs`` loads the solver on its first
call from scipy's compiled ``scipy.optimize._lsap`` alone
(``_scipy.kernel``), so no run imports ``scipy.optimize`` itself and runs
that compute no exact distance load no scipy.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import rng
from ._scipy import kernel

Array = np.ndarray

SIZE_CAP = 2048

# elements per difference buffer of `cost_matrix_zw`
BLOCK_ELEMENTS = 2 ** 16


class TransportError(ValueError):
    pass


def cost_matrix_zw(cost_zw: Callable, ax: Array, ay: Array, bx: Array,
                   by: Array) -> Array:
    """Costs ``cost_zw(ax[i] - bx[j], ay[i] - by[j])`` of two batches of
    supports (e.g. ``GroundMetric.dist_zw``), filled in blocks of rows.

    Each block's differences are written into two buffers of about
    BLOCK_ELEMENTS values, allocated once per call; ``cost_zw`` may
    overwrite them.
    """
    m = ax.shape[0]
    rows = max(1, min(m, BLOCK_ELEMENTS // bx.size))
    out = np.empty((m, bx.shape[0]))
    z_buf = np.empty((rows,) + bx.shape)
    w_buf = np.empty((rows,) + by.shape)
    for i in range(0, m, rows):
        z, w = z_buf[:m - i], w_buf[:m - i]
        np.subtract(ax[i:i + rows, None], bx, out=z)
        np.subtract(ay[i:i + rows, None], by, out=w)
        out[i:i + rows] = cost_zw(z, w)
    return out


def wasserstein_from_costs(costs: Array) -> float:
    """Exact W_1 from a precomputed ground-cost matrix; every exact
    distance goes through here, so the size and cap checks hold on all."""
    if costs.shape[0] != costs.shape[1]:
        raise TransportError("assignment needs equally sized supports")
    if costs.shape[0] > SIZE_CAP:
        raise TransportError(
            f"support size {costs.shape[0]} exceeds the exact-solver cap {SIZE_CAP}; "
            "subsample the supports first")
    linear_sum_assignment = kernel("optimize", "_lsap", "linear_sum_assignment")
    rows, cols = linear_sum_assignment(costs)
    return float(np.mean(costs[rows, cols]))


def bootstrap_se(costs: Array, seed: int, n_boot: int) -> float:
    """Bootstrap standard error of ``wasserstein_from_costs(costs)``:
    resample b redraws both supports at the ``rng.integers`` keys ``2 b``
    and ``2 b + 1``."""
    n = costs.shape[0]
    vals = np.empty(n_boot)
    # costs[np.ix_(ia, ib)], gathered rows first into buffers reused by every
    # resample; the indices lie in [0, n), so mode "clip" changes none of
    # them and spares np.take the buffering of "raise"
    picked_rows, resampled = np.empty((n, n)), np.empty((n, n))
    for b in range(n_boot):
        ia = rng.integers(seed, rng.SUB_BOOTSTRAP, 2 * b, 0, n, (n,))
        ib = rng.integers(seed, rng.SUB_BOOTSTRAP, 2 * b + 1, 0, n, (n,))
        np.take(costs, ia, axis=0, out=picked_rows, mode="clip")
        np.take(picked_rows, ib, axis=1, out=resampled, mode="clip")
        vals[b] = wasserstein_from_costs(resampled)
    return float(np.std(vals, ddof=1))
