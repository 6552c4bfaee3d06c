"""Time integration of kinetic Langevin systems.

One kinetic SDE, ``dX = Y dt``, ``dY = (-gamma Y + u F(X)) dt + sqrt(2 gamma
u) dB``, whose force ``F`` the model spec decides (:func:`drift`):

* the external force ``b`` alone when the interaction is ``none``: the
  classical dynamics,
* ``b`` plus the law term, the mean of the pairwise interaction against
  the law: the mean-field particle system on its empirical measure, or the
  nonlinear (McKean-Vlasov) dynamics when the law mean comes from outside,
  e.g. the mean path of a large proxy ensemble,
* the law term alone when the external force is ``zero``: with a split
  interaction, the unconfined dynamics, run on centered ensembles.

The core is shared with the couplings in :mod:`kinlang.coupling`:
:func:`march` is the only stepping loop, :func:`integrator` builds the only
integrator update (once per run, with its step-size coefficients) and
:func:`drift` is the only force dispatcher.  :func:`law_term`, the only
law-term function, reduces over axis -2, so one code path serves (N, d)
ensembles and stacks such as (R, N, d) chaos slots, and accepts an
external law mean (a proxy mean path, or the exact zero of the centered
unconfined theory) in place of the empirical one.

Two schemes are provided.  ``euler_maruyama`` is the plain first-order
scheme.  The default ``ou_splitting`` applies the force kick by Euler and
then solves the free damped flight ``dX = Y dt, dY = -gamma Y dt + noise``
exactly: the velocity receives its exact Ornstein-Uhlenbeck update and the
position the exactly integrated pre-noise velocity.  Noise enters the
velocity only (the diffusion is degenerate), which both schemes preserve:
couplings can therefore reflect or synchronize the per-step normal
increments directly.

Noise draws are counter-based: step ``k`` of a run keyed ``(seed,
substream)`` on (N, d) positions consumes the block
``normals(seed, substream, k, (N, d))``, whose row ``i`` drives particle ``i``.

Stepping is in place.  A run owns its state arrays, one force buffer and
one noise block, allocated once: each step draws the noise into its
block, :func:`drift` writes the force into its buffer, and the integrator
update overwrites the state, using the force buffer as its work space.
Nothing of the state's size is allocated per step, and every value is
the one the expression form gives, operation for operation.  Because
the next step overwrites the state, whatever :func:`march` hands to
``keep`` must be copied to be kept; :func:`simulate` copies its dumps
into (T, N, d) arrays allocated up front.

Blow-ups are found at checkpoints, not per step: :func:`march` tests the
whole state at each dump and after the last step, and on a non-finite
state replays from the last finite checkpoint to the first non-finite
state: a copy of the last kept state, or the caller's start, which the
run never writes to.  A blown-up run therefore costs at most one dump
interval of extra steps on inf/nan values plus that replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng
from .model import ModelSpec

Array = np.ndarray


class BlowUpError(RuntimeError):
    """A run reached a non-finite state.

    ``t`` is the time of the first state with a non-finite position or
    velocity, ``t0 + k * step`` for state ``k``, whichever driver ran.
    """

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


def _centered(x: Array, y: Array) -> bool:
    """Whether both empirical means vanish, relative to the ensemble's scale."""
    tol = 1e-9 * max(1.0, float(np.abs(x).max()), float(np.abs(y).max()))
    return (np.linalg.norm(x.mean(axis=0)) <= tol
            and np.linalg.norm(y.mean(axis=0)) <= tol)


# ---------------------------------------------------------------------------
# stepping core
# ---------------------------------------------------------------------------

def integrator(h: float, gamma: float, u: float, scheme: str) -> Callable:
    """The update ``advance(x, y, force, noise)`` of either scheme, built
    once per run; ``noise`` is a standard-normal block.

    This is the only integrator update: single ensembles, coupled pairs
    (both copies in one call, stacked on a copy axis) and chaos slots all
    step through it.  It works in place: ``x`` and ``y`` become the next
    state, and ``force``, an array of their shape, is its work buffer (the
    kick, the flight, the noise term); ``noise`` may broadcast against them, e.g. one
    block shared over a copy axis, and is left as it is.  Euler-Maruyama
    also needs a scratch array for ``h y``, which the update allocates on
    first use and keeps.  Each value is the one the expression form
    (``x + flight * (y + kick * force)`` and so on) gives, operation for
    operation, and the step-size coefficients are computed here, once, in
    the order a per-step evaluation would use, so every step is bitwise
    the same.
    """
    if scheme == "euler_maruyama":
        em_scale = np.sqrt(2.0 * gamma * u * h)
        scratch = np.empty(0)

        def advance(x: Array, y: Array, force: Array, noise: Array) -> None:
            nonlocal scratch
            if scratch.shape != y.shape:
                scratch = np.empty_like(y)
            np.multiply(u, force, out=force)
            np.add(np.multiply(-gamma, y, out=scratch), force, out=force)
            np.multiply(h, force, out=force)
            np.add(x, np.multiply(h, y, out=scratch), out=x)
            np.add(y, force, out=y)
            np.add(y, np.multiply(em_scale, noise, out=force), out=y)

        return advance
    # ou_splitting: Euler force kick, then exact damped free flight
    decay = np.exp(-gamma * h)
    kick = h * u
    flight = (1.0 - decay) / gamma
    ou_scale = np.sqrt(u * (1.0 - decay * decay))

    def advance(x: Array, y: Array, force: Array, noise: Array) -> None:
        y_kicked = np.add(y, np.multiply(kick, force, out=force), out=force)
        np.multiply(decay, y_kicked, out=y)
        np.add(x, np.multiply(flight, y_kicked, out=force), out=x)
        np.add(y, np.multiply(ou_scale, noise, out=force), out=y)

    return advance


def law_term(spec: ModelSpec, x: Array, law_mean: Optional[Array] = None) -> Array:
    """Law term ``N^-1 sum_j b_int(x_i, x_j)`` over the members on axis -2.

    ``x`` is an (N, d) ensemble or a stack of them, e.g. (R, N, d).
    Interactions that are affine in the second argument take an O(N) path
    through the mean; every other kind materializes all pairs (O(N^2)).
    The affine ones see the law only through its mean, so an external
    ``law_mean`` (broadcastable against ``x``) may replace the empirical one.
    The result broadcasts against ``x``: the linear kind's ``k * law_mean``
    comes back once per ensemble, every other kind's term has the shape of
    ``x``.
    """
    inter = spec.interaction
    affine = inter.kind == "linear" or (inter.has_split and inter.split_g is None)
    if law_mean is None:
        if not affine:
            pair = inter.pair_force(x[..., :, None, :], x[..., None, :, :])
            return pair.mean(axis=-2)
        law_mean = x.mean(axis=-2, keepdims=True)
    elif not affine:
        raise DynamicsError("an external law mean needs a law term affine in the "
                            "mean: the linear kind or a pure linear splitting")
    if inter.kind == "linear":
        return inter.params["k"] * law_mean
    return -(x - law_mean) @ inter.split_matrix.T


def drift(spec: ModelSpec, x: Array, law_mean: Optional[Array] = None,
          out: Optional[Array] = None) -> Array:
    """Total force the spec puts on ``x``: the external force alone under
    interaction kind ``none``, the law term alone under external kind
    ``zero``, else their sum.  ``out``, an array of the shape of ``x``,
    receives the force and is returned.

    Non-finite positions are not tested here: they run on into inf/nan,
    and :func:`march` finds them at its next checkpoint.
    """
    if spec.interaction.kind == "none":
        return spec.external.force(x, out=out)
    if spec.external.kind != "zero":
        return np.add(spec.external.force(x, out=out), law_term(spec, x, law_mean), out=out)
    term = law_term(spec, x, law_mean)
    if out is None:
        return term
    np.copyto(out, term)
    return out


def _finite(arrays: tuple) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


def dump_steps(cfg: IntegratorConfig, dump_times=None) -> Array:
    """The distinct steps whose states a run keeps, in order: the dump
    times (default: the horizon alone) snapped to the step grid."""
    if dump_times is None:
        dump_times = [cfg.horizon]
    snapped = np.clip(np.round(np.asarray(dump_times) / cfg.step), 0, cfg.n_steps)
    # a set, not np.unique, which would import numpy.ma into every run
    return np.array(sorted(set(snapped.astype(int).tolist())), dtype=int)


def march(start: Callable, cfg: IntegratorConfig, step: Callable, keep: Callable,
          dump_times=None, t0: float = 0.0) -> tuple:
    """The stepping loop every run goes through.

    ``start()`` returns the initial state as a tuple of fresh arrays that
    the run then owns: ``step(k, state)`` overwrites it with state
    ``k + 1`` for ``k < cfg.n_steps``, and must depend on nothing else that
    changes (a blow-up replays it).  ``keep(k, state)`` receives state
    ``k`` at each step of :func:`dump_steps` and must copy what it keeps,
    since the next step overwrites it.  Returns the final state, which the
    caller then owns.

    Overflow runs quietly into inf/nan, and a non-finite state raises
    :class:`BlowUpError` at the time of the first state holding one.  The
    steps themselves test nothing: the whole state is tested at the start,
    before each ``keep`` and after the last step.  A failed test replays
    the steps one by one from the last finite checkpoint, so a blown-up run
    costs at most one dump interval of extra steps plus that replay.  The
    checkpoint is a copy of the last kept state, taken only at dumps
    before the last step, or else the start, which ``start()`` gives
    again: no copy of the start is held for the run.
    """
    n, h = cfg.n_steps, cfg.step
    dumps = set(dump_steps(cfg, dump_times).tolist())
    state = start()
    if not _finite(state):
        raise BlowUpError(t0)
    checkpoint = None
    # overflow is left to produce inf: blow-up detection keys off
    # non-finite states, so the loop runs with these warnings off
    with np.errstate(over="ignore", invalid="ignore"):
        if 0 in dumps:
            keep(0, state)
        for k in range(1, n + 1):
            step(k - 1, state)
            if k in dumps or k == n:
                if not _finite(state):
                    k_ok, replay = checkpoint or (0, start())
                    raise BlowUpError(t0 + _first_nonfinite(k_ok, replay, step, k) * h)
                if k in dumps:
                    keep(k, state)
                    if k < n:  # the checkpoint a later blow-up replays from
                        saved = checkpoint[1] if checkpoint else tuple(map(np.empty_like, state))
                        for copy, a in zip(saved, state):
                            np.copyto(copy, a)
                        checkpoint = (k, saved)
    return state


def _first_nonfinite(k: int, state: tuple, step: Callable, last: int) -> int:
    """Index of the first non-finite state, stepping the finite state ``k``
    (in place) towards state ``last``, which is not finite."""
    while k < last and _finite(state):
        step(k, state)
        k += 1
    return k


def system_step(spec: ModelSpec, cfg: IntegratorConfig, shape: tuple) -> Callable:
    """In-place step of the spec's dynamics on ``(x, y)`` arrays of
    ``shape``, for :func:`march`, with its own force and noise buffers."""
    advance = integrator(cfg.step, spec.gamma, spec.u, cfg.scheme)
    force, noise = np.empty(shape), np.empty(shape)

    def step(k: int, state: tuple) -> None:
        x, y = state
        advance(x, y, drift(spec, x, out=force),
                rng.normals(cfg.seed, cfg.substream, k, shape, out=noise))

    return step


# ---------------------------------------------------------------------------
# trajectory driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    times: Array          # (T,)
    x: Array              # (T, N, d)
    y: Array              # (T, N, d)


def simulate(spec: ModelSpec, x: Array, y: Array, cfg: IntegratorConfig,
             dump_times: Optional[Array] = None) -> Trajectory:
    """March an ensemble of (N, d) positions and velocities under the spec's
    forces to the horizon, recording snapshots at dump times (see
    :func:`march`).  An unconfined spec needs a centered start."""
    if x.shape != y.shape:
        raise DynamicsError("position/velocity shape mismatch")
    if spec.unconfined and not _centered(x, y):
        raise DynamicsError("unconfined dynamics requires a centered initial ensemble")
    steps = dump_steps(cfg, dump_times)
    xs = np.empty((len(steps),) + x.shape)
    ys = np.empty_like(xs)
    slot = {k: i for i, k in enumerate(steps.tolist())}

    def keep(k: int, state: tuple) -> None:
        xs[slot[k]], ys[slot[k]] = state

    march(lambda: (np.array(x, dtype=float), np.array(y, dtype=float)), cfg,
          system_step(spec, cfg, x.shape), keep, dump_times)
    # stamps are running sums of the step (march_coupled stamps t0 + k h);
    # the golden digests of moments.json and of `kinlang simulate` pin them
    clock = np.concatenate(([0.0], np.cumsum(np.full(cfg.n_steps, cfg.step))))
    return Trajectory(times=clock[steps], x=xs, y=ys)


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
        med = _median(half)
        if med <= 0:
            return bool(np.max(half) <= 1e-12)
        return bool(np.max(half) <= 1.05 * med)


def _median(a: Array) -> float:
    """``np.median`` of a non-empty 1-D float array, to the bit, NaN when
    it holds a NaN; by partition, since ``np.median`` imports numpy.ma."""
    n = len(a)
    part = np.partition(a, [(n - 1) // 2, n // 2, n - 1])
    if np.isnan(part[-1]):  # NaNs sort last
        return float("nan")
    if n % 2:
        return float(part[n // 2])
    return float((part[n // 2 - 1] + part[n // 2]) / 2.0)


def track_moments(traj: Trajectory, spec: ModelSpec, twist: float,
                  k_matrix: Optional[Array] = None) -> MomentSeries:
    """Second moments plus the quadratic Lyapunov form
    ``u g^-2 X.KX + |(1-2 twist) X + g^-1 Y|^2 / 2 + g^-2 |Y|^2 / 2``, the
    squared twisted norm of the phase point."""
    # imported here: loading a config imports this module, and needs neither
    # the metrics nor the profile module behind them
    from .metrics import twisted_norm_terms
    k = spec.external.matrix_k if k_matrix is None else np.asarray(k_matrix, dtype=float)
    x, y = traj.x, traj.y
    ex2 = np.mean(np.sum(x ** 2, axis=-1), axis=1)
    ey2 = np.mean(np.sum(y ** 2, axis=-1), axis=1)
    lyap = twisted_norm_terms(x, y, k, twist, spec.gamma, spec.u)[0]
    return MomentSeries(times=traj.times, ex2=ex2, ey2=ey2,
                        lyapunov=lyap.mean(axis=1))


# ---------------------------------------------------------------------------
# initial ensembles
# ---------------------------------------------------------------------------

def dirac_ensemble(x0, y0, n: int = 1) -> tuple[Array, Array]:
    """``n`` copies of the phase point ``(x0, y0)`` as (n, d) arrays."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    return np.tile(x0, (n, 1)), np.tile(y0, (n, 1))


def gaussian_ensemble(mean_x, mean_y, std: float, n: int, dim: int, seed: int,
                      substream: int = rng.SUB_INIT,
                      center: bool = False) -> tuple[Array, Array]:
    """``n`` Gaussian phase points as (n, d) arrays, drawn as one block at
    step 0 of ``(seed, substream)``: its first ``n`` rows are the
    positions.  ``center`` subtracts both empirical means."""
    draw = rng.normals(seed, substream, 0, (2 * n, dim)) * std
    x = draw[:n] + mean_x
    y = draw[n:] + mean_y
    if center:
        x = x - x.mean(axis=0)
        y = y - y.mean(axis=0)
    return x, y


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
