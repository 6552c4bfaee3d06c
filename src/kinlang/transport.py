"""Wasserstein distances between empirical measures.

Empirical measures here are uniform over n support points, given as
``(x, y)`` pairs of (n, d) position and velocity arrays; for equal sizes the L^p Wasserstein distance is the assignment problem on the
matrix of p-th powers of the ground cost:

    W_p(A, B) = (min over permutations pi of mean_i d(a_i, b_pi(i))^p)^(1/p).

The exact solver delegates to a shortest-augmenting-path assignment
(O(n^3)); exactness matters more than speed here, so sizes are capped and
larger inputs should be subsampled.  One-dimensional marginals take the
classical sorted quantile coupling instead, which is exact for convex
ground costs on the line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import rng

Array = np.ndarray

SIZE_CAP = 2048

# elements per difference temporary of `cost_matrix_zw`
BLOCK_ELEMENTS = 2 ** 16


class TransportError(ValueError):
    pass


def cost_matrix_zw(cost_zw: Callable, ax: Array, ay: Array, bx: Array,
                   by: Array) -> Array:
    """Costs ``cost_zw(ax[i] - bx[j], ay[i] - by[j])`` of two batches of
    supports (e.g. ``GroundMetric.dist_zw``), filled in blocks of rows so
    each difference temporary holds about BLOCK_ELEMENTS values."""
    rows = max(1, BLOCK_ELEMENTS // bx.size)
    out = np.empty((ax.shape[0], bx.shape[0]))
    for i in range(0, ax.shape[0], rows):
        out[i:i + rows] = cost_zw(ax[i:i + rows, None] - bx[None],
                                  ay[i:i + rows, None] - by[None])
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
    rows, cols = linear_sum_assignment(costs ** p)
    return float(np.mean(costs[rows, cols] ** p) ** (1.0 / p))


def wasserstein_exact(cost_zw: Callable, a: tuple, b: tuple, p: int = 1) -> float:
    """Exact L^p Wasserstein distance between two equal-size empirical
    measures with supports ``a = (ax, ay)`` and ``b = (bx, by)`` of (n, d)
    arrays, under the cost ``cost_zw(z, w)`` of a pair whose difference is
    (z, w) (e.g. ``GroundMetric.dist_zw``)."""
    return wasserstein_from_costs(cost_matrix_zw(cost_zw, *a, *b), p)


def wasserstein_1d_sorted(a: Array, b: Array, p: int = 1) -> float:
    """Quantile coupling on the line: sort both samples and pair by rank."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise TransportError("sorted coupling needs scalar marginals")
    if a.shape != b.shape:
        raise TransportError("size mismatch between the two samples")
    gaps = np.abs(np.sort(a) - np.sort(b))
    return float(np.mean(gaps ** p) ** (1.0 / p))


def identity_pairing_cost(cost_zw: Callable, a: tuple, b: tuple, p: int = 1) -> float:
    """Mean cost of the index-aligned pairing of two (x, y) supports: an
    upper bound for W_p."""
    costs = cost_zw(a[0] - b[0], a[1] - b[1])
    return float(np.mean(costs ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# distance curves with bootstrap error bars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceCurve:
    times: Array
    w: Array
    w_se: Array


def distance_curve(run_a, run_b, cost_zw: Callable, p: int = 1,
                   times: Optional[Array] = None, n_boot: int = 200,
                   seed: int = 0) -> DistanceCurve:
    """Per-time Wasserstein estimates between two trajectory dumps.

    ``run_a``/``run_b`` are trajectories with aligned dump times whose
    (N, d) snapshots ``x[k]``, ``y[k]`` provide the supports, and
    ``cost_zw`` is the ground cost as in :func:`wasserstein_exact`.  The
    standard error is a bootstrap over support points (resampling indices
    into the precomputed cost matrix, so the assignment is re-solved but
    costs are not); dump k draws its resamples at ``first = k n_boot``.
    """
    if run_a.x.shape[0] != run_b.x.shape[0] or not np.allclose(run_a.times, run_b.times):
        raise TransportError("dump times of the two runs are not aligned")
    sel = range(len(run_a.times)) if times is None else [
        int(np.argmin(np.abs(run_a.times - t))) for t in np.asarray(times)]
    ts, ws, ses = [], [], []
    for k in sel:
        costs = cost_matrix_zw(cost_zw, run_a.x[k], run_a.y[k], run_b.x[k], run_b.y[k])
        ts.append(run_a.times[k])
        ws.append(wasserstein_from_costs(costs, p))
        ses.append(bootstrap_se(costs, seed, n_boot, first=k * n_boot, p=p))
    return DistanceCurve(times=np.array(ts), w=np.array(ws), w_se=np.array(ses))


def bootstrap_se(costs: Array, seed: int, n_boot: int, first: int = 0,
                 p: int = 1) -> float:
    """Bootstrap standard error of ``wasserstein_from_costs(costs, p)``:
    resample b redraws both supports at the ``rng.integers`` keys
    ``2 (first + b)`` and ``2 (first + b) + 1``, so matrices bootstrapped
    under one seed take disjoint ``first`` offsets."""
    n = costs.shape[0]
    vals = np.empty(n_boot)
    for b in range(n_boot):
        key = 2 * (first + b)
        ia = rng.integers(seed, rng.SUB_BOOTSTRAP, key, 0, n, (n,))
        ib = rng.integers(seed, rng.SUB_BOOTSTRAP, key + 1, 0, n, (n,))
        vals[b] = wasserstein_from_costs(costs[np.ix_(ia, ib)], p)
    return float(np.std(vals, ddof=1))
