"""Time integration of kinetic Langevin systems.

Three drifts share one stepping core:

* classical dynamics: ``dX = Y dt``, ``dY = (-gamma Y + u b(X)) dt + sqrt(2 gamma u) dB``,
* the mean-field particle system, whose drift adds the empirical mean of
  the pairwise interaction over the ensemble.  The nonlinear
  (McKean-Vlasov) dynamics is integrated as this system too, its law
  approximated by the empirical measure of a proxy ensemble; trajectories
  are flagged so experiments can budget the proxy's own O(M^-1/2) bias,
* the unconfined dynamics: no external force, interaction with a linear
  part plus an anti-symmetric perturbation, run on centered ensembles.

The core is shared with the couplings in :mod:`kinlang.coupling`:
``_advance`` is the only integrator update and :func:`drift` the only
force dispatcher.  :func:`interaction_mean` reduces over axis -2, so one
code path serves (N, d) ensembles and stacks such as (R, N, d) chaos
slots, and accepts an external law mean (a proxy mean path, or the exact
zero of the centered unconfined theory) in place of the empirical one.

Two schemes are provided.  ``euler_maruyama`` is the plain first-order
scheme.  The default ``ou_splitting`` applies the force kick by Euler and
then solves the free damped flight ``dX = Y dt, dY = -gamma Y dt + noise``
exactly: the velocity receives its exact Ornstein-Uhlenbeck update and the
position the exactly integrated pre-noise velocity.  Noise enters the
velocity only (the diffusion is degenerate), which both schemes preserve:
couplings can therefore reflect or synchronize the per-step normal
increments directly.

Noise draws are counter-based: step ``k`` of a run keyed ``(seed,
substream)`` consumes row block ``normals(seed, substream, k)``, with row
``i`` owned by the particle whose ``noise_id`` is ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .model import ModelSpec, eval_external

Array = np.ndarray


class BlowUpError(RuntimeError):
    def __init__(self, t: float):
        super().__init__(f"non-finite state at t={t:.6g}")
        self.t = t


class DynamicsError(ValueError):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    step: float
    horizon: float
    scheme: str = "ou_splitting"
    seed: int = 0
    substream: int = rng.SUB_MAIN

    def __post_init__(self):
        if self.step <= 0:
            raise DynamicsError("step must be positive")
        if self.horizon < 0:
            raise DynamicsError("horizon must be >= 0")
        if self.scheme not in ("ou_splitting", "euler_maruyama"):
            raise DynamicsError(f"unknown scheme {self.scheme!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))


def default_step(gamma: float) -> float:
    """House default: resolve both the force scale and the friction."""
    return min(0.01, 0.1 / gamma)


@dataclass(frozen=True)
class Ensemble:
    """N phase points marching in lockstep; noise_ids route noise rows."""

    x: Array
    y: Array
    t: float = 0.0
    noise_ids: Optional[Array] = None

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        if x.shape != y.shape:
            raise DynamicsError("position/velocity shape mismatch")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        ids = self.noise_ids
        if ids is None:
            ids = np.arange(x.shape[0])
        object.__setattr__(self, "noise_ids", np.asarray(ids))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def require_finite(self) -> None:
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise BlowUpError(self.t)

    def centered(self) -> bool:
        n = self.n
        tol = 1e-9 * max(1.0, float(np.abs(self.x).max()), float(np.abs(self.y).max()))
        return (np.linalg.norm(self.x.mean(axis=0)) <= tol
                and np.linalg.norm(self.y.mean(axis=0)) <= tol) or n == 0


# ---------------------------------------------------------------------------
# stepping core
# ---------------------------------------------------------------------------

def _quiet_overflow():
    """Overflow is deliberately left to produce inf: blow-up detection keys
    off non-finite states, so stepping loops run with these warnings off."""
    return np.errstate(over="ignore", invalid="ignore")


def _advance(x: Array, y: Array, force: Array, noise: Array, h: float,
             gamma: float, u: float, scheme: str) -> tuple[Array, Array]:
    """One step of either scheme; ``noise`` is a standard-normal block.

    This is the only integrator update: single ensembles, both copies of
    coupled pairs and chaos slots all step through it.
    """
    if scheme == "euler_maruyama":
        x_new = x + h * y
        y_new = y + h * (-gamma * y + u * force) + np.sqrt(2.0 * gamma * u * h) * noise
        return x_new, y_new
    # ou_splitting: Euler force kick, then exact damped free flight
    decay = np.exp(-gamma * h)
    y_kicked = y + h * u * force
    x_new = x + (1.0 - decay) / gamma * y_kicked
    y_new = decay * y_kicked + np.sqrt(u * (1.0 - decay * decay)) * noise
    return x_new, y_new


def interaction_mean(spec: ModelSpec, x: Array, law_mean: Optional[Array] = None,
                     fast: bool = True) -> Array:
    """Law term ``N^-1 sum_j b_int(x_i, x_j)`` over the members on axis -2.

    ``x`` is an (N, d) ensemble or a stack of them, e.g. (R, N, d).  The
    reference path materializes all pairs (O(N^2)); interactions that are
    affine in the second argument take an O(N) path through the mean.
    Those interactions see the law only through its mean, so an external
    ``law_mean`` (broadcastable against ``x``) may replace the empirical one.
    """
    inter = spec.interaction
    if inter.kind == "none":
        return np.zeros_like(x)
    affine = inter.kind == "linear" or (inter.has_split and inter.split_g is None)
    if law_mean is None:
        if not (fast and affine):
            pair = inter.pair_force(x[..., :, None, :], x[..., None, :, :])
            return pair.mean(axis=-2)
        law_mean = x.mean(axis=-2, keepdims=True)
    elif not affine:
        raise DynamicsError("an external law mean needs a law term affine in the "
                            "mean: the linear kind or a pure linear splitting")
    if inter.kind == "linear":
        return np.broadcast_to(inter.params["k"] * law_mean, x.shape).copy()
    return -(x - law_mean) @ inter.split_matrix.T


def drift(spec: ModelSpec, x: Array, system: str,
          law_mean: Optional[Array] = None) -> Array:
    """Total force of a system: ``classical`` (external only), ``particles``
    (external plus law term) or ``unconfined`` (law term only)."""
    if system == "unconfined":
        return interaction_mean(spec, x, law_mean)
    base = eval_external(spec, x)
    if system == "classical":
        return base
    return base + interaction_mean(spec, x, law_mean)


def _require_split(spec: ModelSpec) -> None:
    if not spec.interaction.has_split:
        raise DynamicsError("unconfined dynamics needs an interaction splitting")


def step_classical(spec: ModelSpec, state: Ensemble, cfg: IntegratorConfig,
                   step_index: int = 0) -> Ensemble:
    """One step of the classical dynamics (interaction ignored)."""
    return _step_system(spec, state, cfg, step_index, system="classical")


def step_unconfined(spec: ModelSpec, ens: Ensemble, cfg: IntegratorConfig,
                    step_index: int = 0, check_centering: bool = True) -> Ensemble:
    """One step of the unconfined dynamics (external force dropped)."""
    _require_split(spec)
    if check_centering and step_index == 0 and not ens.centered():
        raise DynamicsError("unconfined dynamics requires a centered initial ensemble")
    return _step_system(spec, ens, cfg, step_index, system="unconfined")


def _step_system(spec: ModelSpec, ens: Ensemble, cfg: IntegratorConfig,
                 step_index: int, system: str) -> Ensemble:
    block = rng.normals(cfg.seed, cfg.substream, step_index,
                        (int(ens.noise_ids.max()) + 1, ens.dim))
    noise = block[ens.noise_ids]
    force = drift(spec, ens.x, system)
    with _quiet_overflow():
        x, y = _advance(ens.x, ens.y, force, noise, cfg.step, spec.gamma, spec.u,
                        cfg.scheme)
    out = Ensemble(x=x, y=y, t=ens.t + cfg.step, noise_ids=ens.noise_ids)
    out.require_finite()
    return out


# ---------------------------------------------------------------------------
# trajectory driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    times: Array          # (T,)
    x: Array              # (T, N, d)
    y: Array              # (T, N, d)
    law_proxy: bool = False


def simulate(spec: ModelSpec, ens0: Ensemble, cfg: IntegratorConfig,
             system: str = "classical", dump_times: Optional[Array] = None) -> Trajectory:
    """March an ensemble to the horizon, recording snapshots at dump times.

    Dump times are snapped to the step grid.  A non-finite state aborts
    with a :class:`BlowUpError` carrying the time stamp.
    """
    if system not in ("classical", "particles", "mckean_vlasov", "unconfined"):
        raise DynamicsError(f"unknown system {system!r}")
    if system == "mckean_vlasov" and ens0.n < 2:
        raise DynamicsError("law proxy needs M >= 2 members")
    if system == "unconfined":
        _require_split(spec)
        if not ens0.centered():
            raise DynamicsError("unconfined dynamics requires a centered initial ensemble")
    sys_key = "particles" if system == "mckean_vlasov" else system

    n_steps = cfg.n_steps
    if dump_times is None:
        dump_times = np.array([cfg.horizon])
    dump_steps = np.unique(np.clip(np.round(np.asarray(dump_times) / cfg.step), 0,
                                   n_steps).astype(int))
    xs, ys, ts = [], [], []
    ens = ens0
    ens.require_finite()
    if 0 in dump_steps:
        ts.append(0.0), xs.append(ens.x.copy()), ys.append(ens.y.copy())
    for k in range(n_steps):
        ens = _step_system(spec, ens, cfg, k, system=sys_key)
        if (k + 1) in dump_steps:
            ts.append(ens.t), xs.append(ens.x.copy()), ys.append(ens.y.copy())
    return Trajectory(times=np.array(ts), x=np.stack(xs), y=np.stack(ys),
                      law_proxy=(system == "mckean_vlasov"))


# ---------------------------------------------------------------------------
# moment tracking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentSeries:
    times: Array
    ex2: Array        # ensemble estimate of E|X|^2
    ey2: Array        # ensemble estimate of E|Y|^2
    lyapunov: Array   # ensemble mean of the contraction quadratic form

    def plateau(self) -> bool:
        """Plateau verdict: max over the last half <= 1.05 x its median."""
        half = self.lyapunov[len(self.lyapunov) // 2:]
        med = float(np.median(half))
        if med <= 0:
            return bool(np.max(half) <= 1e-12)
        return bool(np.max(half) <= 1.05 * med)


def track_moments(traj: Trajectory, spec: ModelSpec, twist: float,
                  k_matrix: Optional[Array] = None) -> MomentSeries:
    """Second moments plus the quadratic Lyapunov form
    ``u g^-2 X.KX + |(1-2 twist) X + g^-1 Y|^2 / 2 + g^-2 |Y|^2 / 2``."""
    g, u = spec.gamma, spec.u
    k = spec.external.matrix_k if k_matrix is None else np.asarray(k_matrix, dtype=float)
    x, y = traj.x, traj.y
    ex2 = np.mean(np.sum(x ** 2, axis=-1), axis=1)
    ey2 = np.mean(np.sum(y ** 2, axis=-1), axis=1)
    quad = np.einsum("tni,ij,tnj->tn", x, k, x)
    mix = (1.0 - 2.0 * twist) * x + y / g
    lyap = (u / g ** 2) * quad + 0.5 * np.sum(mix ** 2, axis=-1) \
        + 0.5 * np.sum(y ** 2, axis=-1) / g ** 2
    return MomentSeries(times=traj.times, ex2=ex2, ey2=ey2,
                        lyapunov=lyap.mean(axis=1))


# ---------------------------------------------------------------------------
# initial ensembles
# ---------------------------------------------------------------------------

def dirac_ensemble(x0, y0, n: int = 1, t: float = 0.0) -> Ensemble:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    return Ensemble(x=np.tile(x0, (n, 1)), y=np.tile(y0, (n, 1)), t=t)


def gaussian_ensemble(mean_x, mean_y, std: float, n: int, dim: int,
                      seed: int, center: bool = False) -> Ensemble:
    draw = rng.normals(seed, rng.SUB_INIT, 0, (2 * n, dim)) * std
    x = draw[:n] + np.asarray(mean_x, dtype=float)
    y = draw[n:] + np.asarray(mean_y, dtype=float)
    if center:
        x = x - x.mean(axis=0)
        y = y - y.mean(axis=0)
    return Ensemble(x=x, y=y)


def trajectory_to_rows(traj: Trajectory) -> tuple[list[str], np.ndarray]:
    """Flatten a trajectory into CSV rows with header ``t,i,x...,y...``."""
    t_count, n, d = traj.x.shape
    header = ["t", "i"] + [f"x{j}" for j in range(d)] + [f"y{j}" for j in range(d)]
    rows = np.empty((t_count * n, 2 + 2 * d))
    rows[:, 0] = np.repeat(traj.times, n)
    rows[:, 1] = np.tile(np.arange(n), t_count)
    rows[:, 2:2 + d] = traj.x.reshape(-1, d)
    rows[:, 2 + d:] = traj.y.reshape(-1, d)
    return header, rows
