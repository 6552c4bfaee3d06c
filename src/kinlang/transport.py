"""Wasserstein distances between empirical measures.

Empirical measures here are uniform over n support points, given as
``(x, y)`` pairs of (n, d) position and velocity arrays; for equal sizes
the L^p Wasserstein distance is the assignment problem on the matrix of
p-th powers of the ground cost:

    W_p(A, B) = (min over permutations pi of mean_i d(a_i, b_pi(i))^p)^(1/p).

The exact solver delegates to a shortest-augmenting-path assignment
(O(n^3)); exactness matters more than speed here, so sizes are capped and
larger inputs should be subsampled.  ``wasserstein_from_costs`` loads the
solver on its first call from scipy's compiled ``scipy.optimize._lsap``
alone (``_scipy.kernel``), so no run imports ``scipy.optimize`` itself and
runs that compute no exact distance load no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def wasserstein_from_costs(costs: Array, p: int = 1) -> float:
    """Exact W_p from a precomputed ground-cost matrix; every exact
    distance goes through here, so the size and cap checks hold on all."""
    if costs.shape[0] != costs.shape[1]:
        raise TransportError("assignment needs equally sized supports")
    if costs.shape[0] > SIZE_CAP:
        raise TransportError(
            f"support size {costs.shape[0]} exceeds the exact-solver cap {SIZE_CAP}; "
            "subsample the supports first")
    if p not in (1, 2):
        raise TransportError("p must be 1 or 2")
    linear_sum_assignment = kernel("optimize", "_lsap", "linear_sum_assignment")
    # x ** 1 is exact, so p = 1 assigns on `costs` itself rather than a copy
    powered = costs if p == 1 else costs ** p
    rows, cols = linear_sum_assignment(powered)
    return float(np.mean(powered[rows, cols]) ** (1.0 / p))


def wasserstein_exact(cost_zw: Callable, a: tuple, b: tuple, p: int = 1) -> float:
    """Exact L^p Wasserstein distance between two equal-size empirical
    measures with supports ``a = (ax, ay)`` and ``b = (bx, by)`` of (n, d)
    arrays, under the cost ``cost_zw(z, w)`` of a pair whose difference is
    (z, w) (e.g. ``GroundMetric.dist_zw``)."""
    return wasserstein_from_costs(cost_matrix_zw(cost_zw, *a, *b), p)


# ---------------------------------------------------------------------------
# distance curves with bootstrap error bars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceCurve:
    times: Array
    w: Array
    w_se: Array


def distance_curve(run_a, run_b, cost_zw: Callable, n_boot: int = 200,
                   seed: int = 0) -> DistanceCurve:
    """Per-dump W_1 estimates between two trajectories.

    ``run_a``/``run_b`` are trajectories with aligned dump times whose
    (N, d) snapshots ``x[k]``, ``y[k]`` provide the supports, and
    ``cost_zw`` is the ground cost as in :func:`wasserstein_exact`.  The
    standard error is a bootstrap over support points (resampling indices
    into the precomputed cost matrix, so the assignment is re-solved but
    costs are not); dump k draws its resamples at ``first = k n_boot``.
    """
    if run_a.x.shape[0] != run_b.x.shape[0] or not np.allclose(run_a.times, run_b.times):
        raise TransportError("dump times of the two runs are not aligned")
    ws, ses = [], []
    for k in range(len(run_a.times)):
        costs = cost_matrix_zw(cost_zw, run_a.x[k], run_a.y[k], run_b.x[k], run_b.y[k])
        ws.append(wasserstein_from_costs(costs))
        ses.append(bootstrap_se(costs, seed, n_boot, first=k * n_boot))
    return DistanceCurve(times=np.array(run_a.times), w=np.array(ws), w_se=np.array(ses))


def bootstrap_se(costs: Array, seed: int, n_boot: int, first: int = 0,
                 p: int = 1) -> float:
    """Bootstrap standard error of ``wasserstein_from_costs(costs, p)``:
    resample b redraws both supports at the ``rng.integers`` keys
    ``2 (first + b)`` and ``2 (first + b) + 1``, so matrices bootstrapped
    under one seed take disjoint ``first`` offsets."""
    n = costs.shape[0]
    vals = np.empty(n_boot)
    # costs[np.ix_(ia, ib)], gathered rows first into buffers reused by every
    # resample; the indices lie in [0, n), so mode "clip" changes none of
    # them and spares np.take the buffering of "raise"
    picked_rows, resampled = np.empty((n, n)), np.empty((n, n))
    for b in range(n_boot):
        key = 2 * (first + b)
        ia = rng.integers(seed, rng.SUB_BOOTSTRAP, key, 0, n, (n,))
        ib = rng.integers(seed, rng.SUB_BOOTSTRAP, key + 1, 0, n, (n,))
        np.take(costs, ia, axis=0, out=picked_rows, mode="clip")
        np.take(picked_rows, ib, axis=1, out=resampled, mode="clip")
        vals[b] = wasserstein_from_costs(resampled, p)
    return float(np.std(vals, ddof=1))
