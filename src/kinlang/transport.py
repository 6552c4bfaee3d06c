"""Wasserstein distances between empirical measures.

Empirical measures here are uniform over n support points; for equal
sizes the L^p Wasserstein distance is the assignment problem on the
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
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import rng

Array = np.ndarray

SIZE_CAP = 2048

# elements per difference temporary of `cost_matrix_zw`
BLOCK_ELEMENTS = 2 ** 16


class TransportError(ValueError):
    pass


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted support points (any array-like per point)."""

    support: tuple

    def __post_init__(self):
        if len(self.support) < 1:
            raise TransportError("empirical measure needs at least one point")


def cost_matrix(dist_fn: Callable, a: Sequence, b: Sequence) -> Array:
    out = np.empty((len(a), len(b)))
    for i, pa in enumerate(a):
        for j, pb in enumerate(b):
            out[i, j] = dist_fn(pa, pb)
    return out


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
    """Exact W_p from a precomputed ground-cost matrix."""
    if costs.shape[0] != costs.shape[1]:
        raise TransportError("assignment needs equally sized supports")
    rows, cols = linear_sum_assignment(costs ** p)
    return float(np.mean(costs[rows, cols] ** p) ** (1.0 / p))


def wasserstein_exact(dist_fn: Callable, a, b, p: int = 1) -> float:
    """Exact L^p Wasserstein distance between two equal-size empirical
    measures under an arbitrary ground distance.

    ``a`` and ``b`` may be EmpiricalMeasure instances or sequences of
    points; ``dist_fn(point_a, point_b)`` must return a scalar.
    """
    sa = a.support if isinstance(a, EmpiricalMeasure) else a
    sb = b.support if isinstance(b, EmpiricalMeasure) else b
    if len(sa) != len(sb):
        raise TransportError("size mismatch between the two supports")
    if len(sa) > SIZE_CAP:
        raise TransportError(
            f"support size {len(sa)} exceeds the exact-solver cap {SIZE_CAP}; "
            "subsample the supports first")
    if p not in (1, 2):
        raise TransportError("p must be 1 or 2")
    return wasserstein_from_costs(cost_matrix(dist_fn, sa, sb), p)


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


def identity_pairing_cost(dist_fn: Callable, a, b, p: int = 1) -> float:
    """Mean cost of the index-aligned pairing: an upper bound for W_p."""
    sa = a.support if isinstance(a, EmpiricalMeasure) else a
    sb = b.support if isinstance(b, EmpiricalMeasure) else b
    costs = np.array([dist_fn(pa, pb) for pa, pb in zip(sa, sb)])
    return float(np.mean(costs ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# distance curves with bootstrap error bars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceCurve:
    times: Array
    w: Array
    w_se: Array


def distance_curve(run_a, run_b, dist_fn: Callable, p: int = 1,
                   times: Optional[Array] = None, n_boot: int = 200,
                   seed: int = 0) -> DistanceCurve:
    """Per-time Wasserstein estimates between two trajectory dumps.

    ``run_a``/``run_b`` are trajectories with aligned dump times whose
    snapshots provide the supports.  The standard error is a bootstrap
    over support points (resampling indices into the precomputed cost
    matrix, so the assignment is re-solved but costs are not).
    """
    if run_a.x.shape[0] != run_b.x.shape[0] or not np.allclose(run_a.times, run_b.times):
        raise TransportError("dump times of the two runs are not aligned")
    sel = range(len(run_a.times)) if times is None else [
        int(np.argmin(np.abs(run_a.times - t))) for t in np.asarray(times)]
    ts, ws, ses = [], [], []
    for k in sel:
        a = [(run_a.x[k, i], run_a.y[k, i]) for i in range(run_a.x.shape[1])]
        b = [(run_b.x[k, i], run_b.y[k, i]) for i in range(run_b.x.shape[1])]
        costs = cost_matrix(dist_fn, a, b)
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
