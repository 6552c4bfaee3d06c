"""Test oracles and helpers: reference computations the tests compare the
library against, and a shorthand for building coupled states.

* dense-grid suprema of the gluing geometry (d <= 2), the reference for
  the multistart ascent of :mod:`kinlang.constants`;
* the marginal-validity check of a coupling: each coupled component must
  have the law of an uncoupled run;
* the sorted quantile coupling, the exact W_p of two samples on the line;
* :func:`ell1_norm`, the pair cost that the chaos sweep's in-place slot
  cost is tested against op for op;
* :func:`pair_law_term`, the O(N^2) law term over all pairs, which the
  O(N) mean path of affine interactions is tested against;
* :func:`expression_integrator`, the integrator update written as
  expressions that return new arrays, which the in-place update of
  :func:`kinlang.dynamics.integrator` is tested against bitwise;
* :func:`pair_state`, a coupled batch of replicated phase points;
* :func:`chaos_doc`, ``configs/chaos.json`` or its ``unconfined_chaos``
  variant, the one definition of that doc the golden pin, the tests and
  the CI smoke share;
* :func:`coupled_trajectory`, a coupled run that keeps every dump of both
  copies (a :class:`CoupledTrajectory`), which the runs that keep only
  per-pair values or the final state are tested against;
* :func:`one_shot_profile_tables`, the profile tables built over all
  quadrature nodes at once, which the blocked build of
  :func:`kinlang.profile.build_profile` is tested against bitwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import kinlang.coupling as cp
from kinlang.constants import ConstantsError
from kinlang.coupling import CoupledState, coupled_step, purely_synchronous
from kinlang.dynamics import dump_steps, march
from kinlang.metrics import row_norm, small_norm, twisted_norm
from kinlang.profile import N_PANELS
from kinlang.transport import TransportError

Array = np.ndarray

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# dense grid oracles (d <= 2)
# ---------------------------------------------------------------------------

def grid_glue_offset(spec, tau: float, alpha: float, eps: float, radius_sq: float,
                     points: int = 2001) -> tuple[float, float]:
    """Dense-lattice supremum of the gluing gap over the synchronous region.

    Only meant for d <= 2; returns (value, resolution error bar)."""
    z, w, h = _region_grid(spec, radius_sq, points)
    rl = twisted_norm(z, w, spec.external.matrix_k, tau, spec.gamma, spec.u)
    mask = rl ** 2 <= radius_sq
    gap = small_norm(z, w, alpha, spec.gamma) - eps * rl
    val = float(np.where(mask, gap, -np.inf).max())
    lip = (alpha + 1.0 + eps) * (1.0 + 1.0 / spec.gamma)
    return val, lip * h


def grid_small_cutoff(spec, tau: float, alpha: float, eps: float,
                      glue_offset: float, points: int = 2001) -> tuple[float, float]:
    """Dense-lattice supremum of r_small over {gap <= glue_offset} (d <= 2)."""
    if glue_offset == 0.0:
        return 0.0, 0.0
    g = spec.gamma
    # gap >= r_small / 2, so the feasible set sits inside r_small <= 2 offset
    z_max = 2.0 * glue_offset / alpha
    q_max = 2.0 * glue_offset
    w_max = g * (q_max + z_max)
    z, w, h = _box_grid(spec.dim, z_max, w_max, points)
    rl = twisted_norm(z, w, spec.external.matrix_k, tau, g, spec.u)
    rs = small_norm(z, w, alpha, g)
    mask = rs - eps * rl <= glue_offset
    val = float(np.where(mask, rs, -np.inf).max())
    lip = (alpha + 1.0) * (1.0 + 1.0 / g)
    return val, lip * h


def _region_grid(spec, radius_sq, points):
    g, u = spec.gamma, spec.u
    z_max = g * math.sqrt(radius_sq / (u * spec.kappa))
    w_max = g * math.sqrt(2.0 * radius_sq)
    return _box_grid(spec.dim, z_max, w_max, points)


def _box_grid(d, z_max, w_max, points):
    if d == 1:
        zs = np.linspace(-z_max, z_max, points)
        ws = np.linspace(-w_max, w_max, points)
        z, w = np.meshgrid(zs, ws, indexing="ij")
        h = max(zs[1] - zs[0], ws[1] - ws[0])
        return z.reshape(-1, 1), w.reshape(-1, 1), h
    if d == 2:
        n = max(int(points ** 0.5) | 1, 31)
        zs = np.linspace(-z_max, z_max, n)
        ws = np.linspace(-w_max, w_max, n)
        grids = np.meshgrid(zs, zs, ws, ws, indexing="ij")
        z = np.stack([grids[0].ravel(), grids[1].ravel()], axis=-1)
        w = np.stack([grids[2].ravel(), grids[3].ravel()], axis=-1)
        h = max(zs[1] - zs[0], ws[1] - ws[0])
        return z, w, h
    raise ConstantsError("grid oracle only supports d <= 2")


# ---------------------------------------------------------------------------
# marginal validity of a coupling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarginalReport:
    observables: tuple
    max_abs_z: float
    flagged: tuple

    @property
    def ok(self) -> bool:
        return len(self.flagged) == 0


def marginal_check(coupled: CoupledTrajectory, independent_first,
                   independent_second, threshold: float = 4.0) -> MarginalReport:
    """Compare time-marginal moments of each coupled component against
    uncoupled simulations of the same laws.

    Each observable (per-component mean and second moment of position and
    velocity) is compared at every dump time; deviations beyond
    ``threshold`` combined standard errors are flagged.
    """
    rows = []
    flagged = []
    for name, coup, ind in (("first", (coupled.ax, coupled.ay), independent_first),
                            ("second", (coupled.bx, coupled.by), independent_second)):
        for obs, (c_arr, i_arr) in (("mean_x", (coup[0], ind.x)),
                                    ("mean_y", (coup[1], ind.y)),
                                    ("second_x", (coup[0] ** 2, ind.x ** 2)),
                                    ("second_y", (coup[1] ** 2, ind.y ** 2))):
            zmax = _max_z(c_arr, i_arr)
            rows.append((name, obs, zmax))
            if zmax > threshold:
                flagged.append((name, obs, zmax))
    return MarginalReport(observables=tuple(rows),
                          max_abs_z=max(r[2] for r in rows),
                          flagged=tuple(flagged))


def _max_z(a: Array, b: Array) -> float:
    # a, b: (T, R, d); z-score of the difference of means at each time/coord
    na, nb = a.shape[1], b.shape[1]
    ma, mb = a.mean(axis=1), b.mean(axis=1)
    va, vb = a.var(axis=1, ddof=1), b.var(axis=1, ddof=1)
    se = np.sqrt(va / na + vb / nb)
    z = np.abs(ma - mb) / np.maximum(se, 1e-300)
    z = np.where(np.abs(ma - mb) < 1e-12, 0.0, z)
    return float(z.max())


# ---------------------------------------------------------------------------
# transport on the line
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# pair costs
# ---------------------------------------------------------------------------

def ell1_norm(z: Array, w: Array) -> Array:
    """|z| + |w|: the per-pair cost underlying the normalized ensemble 1-distance."""
    return row_norm(np.asarray(z, dtype=float)) + row_norm(np.asarray(w, dtype=float))


def pair_law_term(spec, x: Array) -> Array:
    """``N^-1 sum_j b_int(x_i, x_j)`` over the members on axis -2, with
    every pair force materialized."""
    return spec.interaction.pair_force(x[..., :, None, :], x[..., None, :, :]).mean(axis=-2)


# ---------------------------------------------------------------------------
# integrator update
# ---------------------------------------------------------------------------

def expression_integrator(h: float, gamma: float, u: float, scheme: str):
    """``advance(x, y, force, noise) -> (x', y')`` of either scheme in
    expression form: nothing is overwritten, and ``force`` and ``noise``
    may broadcast against the state."""
    if scheme == "euler_maruyama":
        em_scale = np.sqrt(2.0 * gamma * u * h)

        def advance(x, y, force, noise):
            return x + h * y, y + h * (-gamma * y + u * force) + em_scale * noise

        return advance
    decay = np.exp(-gamma * h)
    kick = h * u
    flight = (1.0 - decay) / gamma
    ou_scale = np.sqrt(u * (1.0 - decay * decay))

    def advance(x, y, force, noise):
        y_kicked = y + kick * force
        return x + flight * y_kicked, decay * y_kicked + ou_scale * noise

    return advance


# ---------------------------------------------------------------------------
# coupled states
# ---------------------------------------------------------------------------

def pair_state(first, second, n: int = 1) -> CoupledState:
    """Coupled state from two phase points, replicated n times."""
    fx, fy = np.atleast_1d(first[0]), np.atleast_1d(first[1])
    sx, sy = np.atleast_1d(second[0]), np.atleast_1d(second[1])
    return CoupledState(ax=np.tile(fx, (n, 1)), ay=np.tile(fy, (n, 1)),
                        bx=np.tile(sx, (n, 1)), by=np.tile(sy, (n, 1)))


def chaos_doc(shape: str = "chaos", **over) -> dict:
    """``configs/chaos.json``, or its ``unconfined_chaos`` variant: zero
    external force, the linear-difference interaction with ``kt_matrix
    [[1.0]]`` and a centered Gaussian start, the centered branch of the
    chaos sweep, which no shipped config takes; then the keys of ``over``."""
    doc = json.loads((CONFIGS / "chaos.json").read_text())
    if shape == "unconfined_chaos":
        doc["experiment"] = shape
        doc["model"]["external"] = {"kind": "zero"}
        doc["model"]["interaction"] = {"kind": "custom", "builtin": "linear_difference",
                                       "kt_matrix": [[1.0]]}
        doc["initial"] = {"kind": "gaussian", "std": 1.0, "center": True}
    doc.update(over)
    return doc


@dataclass(frozen=True)
class CoupledTrajectory:
    times: Array
    ax: Array
    ay: Array
    bx: Array
    by: Array
    rc_mean: Array

    def distance_series(self, metric) -> Array:
        """Per-time per-pair distances under any ground metric: (T, R)."""
        return metric.dist_zw(self.ax - self.bx, self.ay - self.by)


def coupled_trajectory(spec, state0: CoupledState, control, cfg, constants, dump_times=None,
                       law_mean=None, law_means=None) -> CoupledTrajectory:
    """March a batch of coupled pairs to the horizon through
    :func:`kinlang.coupling.coupled_step` (law terms as there), copying
    every dump of both copies into (T, 2, ...) stacks allocated up front;
    the trajectory's ``ax``, ``ay``, ``bx`` and ``by`` are views of them.
    ``rc_mean`` is the mean blend of each dump, through
    ``kinlang.coupling.rc_value`` (0 throughout a purely synchronous run).
    Dumps and blow-ups follow :func:`kinlang.dynamics.march`."""
    steps = dump_steps(cfg, dump_times)
    xs = np.empty((len(steps), 2) + state0.ax.shape)
    ys = np.empty_like(xs)
    rc_mean = np.zeros(len(steps))
    slot = {k: i for i, k in enumerate(steps.tolist())}
    synchronous = purely_synchronous(control, constants)

    def keep(k, state):
        x, y = state
        xs[slot[k]], ys[slot[k]] = x, y
        if not synchronous:
            rc_mean[slot[k]] = np.mean(cp.rc_value(control, spec, constants,
                                                   x[0] - x[1], y[0] - y[1]))

    march(lambda: (np.stack((state0.ax, state0.bx)), np.stack((state0.ay, state0.by))),
          cfg, coupled_step(spec, control, cfg, constants, state0.ax.shape,
                            law_mean=law_mean, law_means=law_means),
          keep, dump_times, t0=state0.t)
    return CoupledTrajectory(times=state0.t + steps * cfg.step, ax=xs[:, 0], ay=ys[:, 0],
                             bx=xs[:, 1], by=ys[:, 1], rc_mean=rc_mean)


# ---------------------------------------------------------------------------
# profile tables
# ---------------------------------------------------------------------------

def one_shot_profile_tables(cutoff: float, curvature: float) -> tuple[Array, Array,
                                                                     Array, Array]:
    """Knots, log inner integral, psi and f tables of a non-identity
    profile, each quadrature taken over every panel's 10 Gauss-Legendre
    nodes in one (N_PANELS, 10) array, through scipy's own ``erf`` and
    ``logsumexp``."""
    from scipy.special import erf, logsumexp

    a = curvature
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(10)
    knots = np.linspace(0.0, cutoff, N_PANELS + 1)
    half = 0.5 * (knots[1:] - knots[:-1])
    mid = 0.5 * (knots[1:] + knots[:-1])
    x = mid[:, None] + half[:, None] * gl_nodes[None, :]
    root = np.sqrt(a)
    with np.errstate(divide="ignore"):
        log_g = np.log(np.sqrt(np.pi) / (2.0 * root) * erf(root * x)) + a * x ** 2
        log_w = np.log(half[:, None] * gl_weights[None, :])
    log_inner = np.full(knots.shape, -np.inf)
    np.logaddexp.accumulate(logsumexp(log_w + log_g, axis=1), out=log_inner[1:])
    psi = 1.0 - 0.5 * np.exp(log_inner - log_inner[-1])
    phi_x = np.exp(-a * x ** 2)
    psi_x = np.interp(x, knots, psi)
    panels = half * np.sum(gl_weights[None, :] * phi_x * psi_x, axis=1)
    return knots, log_inner, psi, np.concatenate([[0.0], np.cumsum(panels)])
