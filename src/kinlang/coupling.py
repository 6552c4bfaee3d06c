"""Couplings of two kinetic Langevin copies.

A coupled step evolves a batch of pairs ``((X, Y), (X', Y'))`` that share
their Brownian increments.  Per pair and per step, two blending
coefficients ``rc`` (reflection) and ``sc`` (synchronous) with
``rc^2 + sc^2 = 1`` split the velocity noise between two independent
increment families:

    first copy:   sc * xi_sc + rc * xi_rc
    second copy:  sc * xi_sc + rc * (Id - 2 e e^T) xi_rc

where ``e`` is the unit vector along ``Q = Z + W / gamma`` (zero when Q
vanishes).  ``rc`` is a Lipschitz product of two clamps: it vanishes on
the hyperplane Q = 0 and wherever the gluing gap exceeds the gluing
offset by the smoothing width ``xi``, and saturates at 1 once ``|Q| >=
xi`` inside the gap region.  A vanishing gluing offset (or synchronous
mode) makes the coupling purely synchronous.  Coefficients and ``e`` are
frozen at the start of each step, and Q and |Q| are computed once per
step: the blend's own Q and |Q| give ``e``.

The pair is one array with a leading copy axis of length 2: positions
and velocities of shape (2, R, d), copy ``a`` first.  Each step makes one
call of the force dispatcher and one of the integrator update of
:mod:`kinlang.dynamics` for both copies, and the shared noise block of
shape (R, d) broadcasts over the copy axis.  Like every run, a coupled
run steps in place on buffers it allocates once: the stacked state, the
force buffer (which also holds Z and W while the blend is computed), the
shared noise block, the stacked noise of reflecting steps (whose first
slot receives the reflection family's draw) and, in componentwise runs,
the (2, R, 1, d) law mean.  One step builder, :func:`coupled_step`,
serves every coupled run, and :func:`march_coupled` marches it, handing
each dump to a caller's reduction.  :func:`simulate_coupled` copies the
dumps into (T, 2, ...) arrays allocated up front; contraction runs and
``kinlang couple`` keep no phase-space dumps, only per-pair distances or
per-dump means.  The model spec decides the forces both copies feel
(:func:`kinlang.dynamics.drift`).  A law term
sees each copy's empirical marginal over the coupled batch, or one fixed
law mean that both copies share (the exact zero of the centered
unconfined theory).  The componentwise adaptation is the same step with
one more axis: given an external law-mean path (e.g. the mean path of a
large proxy run), it couples N independent nonlinear copies against one
N-particle system, slot by slot, on (2, R, N, d) arrays.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng
from .constants import MetricConstants
from .dynamics import (DynamicsError, IntegratorConfig, drift, dump_steps, integrator,
                       march)
from .metrics import GroundMetric, row_norm, small_norm, twisted_norm
from .model import ModelSpec

Array = np.ndarray

MODES = ("synchronous", "reflection_mix")
Q_TINY = 1e-12
# default smoothing width: XI_SCALE x the small-distance cutoff, floored
XI_SCALE = 1e-3
XI_FLOOR = 1e-8


@dataclass(frozen=True)
class CouplingControl:
    mode: str = "reflection_mix"
    xi: float = 1e-3

    def __post_init__(self):
        if self.mode not in MODES:
            raise DynamicsError(f"unknown coupling mode {self.mode!r}")
        if self.xi <= 0:
            raise DynamicsError("smoothing width xi must be positive")

    @staticmethod
    def for_constants(constants: MetricConstants,
                      mode: str = "reflection_mix") -> "CouplingControl":
        """Default smoothing width: a small fraction of the cutoff, floored."""
        cut = constants.small_cutoff
        xi = max(XI_SCALE * cut, XI_FLOOR) if np.isfinite(cut) and cut > 0 else XI_FLOOR
        return CouplingControl(mode=mode, xi=xi)

    def resolved_by(self, spec, step: float) -> bool:
        """Whether a step size resolves the blend transition.

        The per-step kick of |Q| under full reflection is
        ``sqrt(8 u step / gamma)``; widths below it are skipped over by
        the discrete chain, which then hovers at the kick scale instead
        of synchronizing.
        """
        return self.xi >= math.sqrt(8.0 * spec.u * step / spec.gamma)


@dataclass(frozen=True)
class CoupledState:
    """Batch of coupled pairs: positions and velocities of both copies."""

    ax: Array
    ay: Array
    bx: Array
    by: Array
    t: float = 0.0

    def __post_init__(self):
        for name in ("ax", "ay", "bx", "by"):
            object.__setattr__(self, name,
                               np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        if not (self.ax.shape == self.ay.shape == self.bx.shape == self.by.shape):
            raise DynamicsError("coupled state shape mismatch")


# ---------------------------------------------------------------------------
# rc / sc
# ---------------------------------------------------------------------------

def purely_synchronous(control: CouplingControl, constants: MetricConstants) -> bool:
    """Whether the blend is zero everywhere: synchronous mode, or a gluing
    offset that is not positive."""
    return control.mode == "synchronous" or not constants.glue_offset > 0


def rc_value(control: CouplingControl, spec: ModelSpec, constants: MetricConstants,
             z: Array, w: Array) -> Array:
    """Reflection blend in [0, 1]: product of two Lipschitz clamps.

    Identically zero when :func:`purely_synchronous` holds.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if purely_synchronous(control, constants):
        return np.zeros(z.shape[:-1])
    return _blend(control, spec, constants, z, w)[0]


def _gap(spec: ModelSpec, constants: MetricConstants, z: Array,
         w: Array) -> tuple[Array, Array, Array]:
    """Q = Z + W / gamma, |Q| and the gluing gap ``alpha |Z| + |Q| - eps
    r_l`` of each row: the small norm, sharing |Q| with the first clamp,
    less the scaled twisted norm.  Every term is degree-1 homogeneous."""
    g = spec.gamma
    q = z + w / g
    qn = row_norm(q)
    rl = twisted_norm(z, w, spec.external.matrix_k, constants.tau, g, spec.u)
    return q, qn, constants.alpha * row_norm(z) + qn - constants.eps * rl


def _blend(control: CouplingControl, spec: ModelSpec, constants: MetricConstants,
           z: Array, w: Array) -> tuple[Array, Array, Array]:
    """The blend of :func:`rc_value` for a coupling that is not purely
    synchronous, with the Q = Z + W / gamma and |Q| it computed.

    The norms are taken through squares, which overflow once a row passes
    about 1e154 and leave its gap inf or nan.  Rows of finite Z and W whose
    gap is not finite are taken again with Z and W divided by their
    largest entry, and the norms multiplied back, so the blend stays finite
    until the state itself overflows; no other row changes.
    """
    xi = control.xi
    q, qn, gap = _gap(spec, constants, z, w)
    over = ~np.isfinite(gap)
    if over.any():
        over &= np.isfinite(z).all(axis=-1) & np.isfinite(w).all(axis=-1)
        scale = np.maximum(np.abs(z[over]).max(axis=-1, initial=0.0),
                           np.abs(w[over]).max(axis=-1, initial=0.0))
        _, qn_scaled, gap_scaled = _gap(spec, constants, z[over] / scale[:, None],
                                        w[over] / scale[:, None])
        qn[over] = scale * qn_scaled
        gap[over] = scale * gap_scaled
    # |Q| / xi is never negative, so its clamp needs no lower bound
    rc = np.minimum(qn / xi, 1.0)
    ramp_gap = np.subtract(constants.glue_offset + xi, gap, out=gap)
    ramp_gap /= xi
    np.maximum(ramp_gap, 0.0, out=ramp_gap)
    np.minimum(ramp_gap, 1.0, out=ramp_gap)
    rc *= ramp_gap
    return rc, q, qn


def sc_value(rc: Array) -> Array:
    return np.sqrt(np.maximum(1.0 - np.asarray(rc) ** 2, 0.0))


# ---------------------------------------------------------------------------
# coupled stepping
# ---------------------------------------------------------------------------

def _unit_q(q: Array, qn: Array) -> Array:
    """Reflection direction: unit vector along Q (|Q| per row in ``qn``),
    0 where Q vanishes."""
    norm = qn[..., None]
    return np.where(norm > Q_TINY, q / np.maximum(norm, Q_TINY), 0.0)


def _reflected_noise(q: Array, qn: Array, rc: Array, xi_sc: Array,
                     cfg: IntegratorConfig, step_index: int, out: Array) -> Array:
    """Noise of both copies, stacked on a leading copy axis in ``out``
    (returned), for a blend ``rc`` that is not zero on every pair; ``q`` and
    ``qn`` are the Q and |Q| the blend was computed from.  The reflection
    family is drawn into the first copy's slot."""
    xi_rc = rng.normals(cfg.seed, rng.SUB_REFLECT, step_index, q.shape, out=out[0])
    e = _unit_q(q, qn)
    np.subtract(xi_rc, 2.0 * np.sum(e * xi_rc, axis=-1, keepdims=True) * e, out=out[1])
    rc = rc[..., None]
    np.multiply(rc, xi_rc, out=out[0])
    out[1] *= rc
    out += sc_value(rc) * xi_sc
    return out


# ---------------------------------------------------------------------------
# coupled trajectory driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoupledTrajectory:
    times: Array
    ax: Array
    ay: Array
    bx: Array
    by: Array
    rc_mean: Array

    def distance_series(self, metric: GroundMetric) -> Array:
        """Per-time per-pair distances under any ground metric: (T, R)."""
        return metric.dist_zw(self.ax - self.bx, self.ay - self.by)


def coupled_step(spec: ModelSpec, control: CouplingControl, cfg: IntegratorConfig,
                 constants: MetricConstants, shape: tuple, law_mean: Optional[Array] = None,
                 law_means: Optional[Array] = None) -> Callable:
    """In-place step of coupled pairs stacked on a copy axis, ``(2,) +
    shape`` positions and velocities, for :func:`kinlang.dynamics.march`,
    with its own buffers; the law terms follow ``law_mean`` and
    ``law_means`` as in :func:`simulate_coupled`.

    This is the only coupled step: :func:`march_coupled` marches it for
    every coupled run.
    """
    advance = integrator(cfg.step, spec.gamma, spec.u, cfg.scheme)
    # a purely synchronous run shares one increment bitwise at every step;
    # otherwise that holds only on steps whose blend is zero on every pair
    synchronous = purely_synchronous(control, constants)
    shape = (2,) + shape
    force, noise = np.empty(shape), np.empty(shape[1:])
    pair_noise = None if synchronous else np.empty(shape)
    law = None if law_means is None else np.empty((2,) + shape[1:-2] + (1, shape[-1]))

    def mean_at(k: int, x: Array) -> Optional[Array]:
        """Law mean of both copies; in componentwise runs the second copy's
        is its own empirical marginal, stacked after the first copy's."""
        if law_means is None:
            return law_mean
        np.copyto(law[0], law_means[k])
        np.mean(x[1], axis=-2, keepdims=True, out=law[1])
        return law

    def step(k: int, state: tuple) -> None:
        x, y = state
        increments = rng.normals(cfg.seed, rng.SUB_MAIN, k, noise.shape, out=noise)
        if not synchronous:
            # Z and W go into the force buffer, which drift fills afterwards
            rc, q, qn = _blend(control, spec, constants,
                               np.subtract(x[0], x[1], out=force[0]),
                               np.subtract(y[0], y[1], out=force[1]))
            if rc.any():
                increments = _reflected_noise(q, qn, rc, increments, cfg, k, pair_noise)
        advance(x, y, drift(spec, x, mean_at(k, x), out=force), increments)

    return step


def march_coupled(spec: ModelSpec, state0: CoupledState, control: CouplingControl,
                  cfg: IntegratorConfig, constants: MetricConstants, reduce: Callable,
                  dump_times=None, law_mean: Optional[Array] = None,
                  law_means: Optional[Array] = None) -> tuple[Array, Array]:
    """March a batch of coupled pairs to the horizon through
    :func:`coupled_step`, handing each dump's stacked state to
    ``reduce(i, x, y)``, ``i`` the dump's index, which keeps what it needs
    of it (the next step overwrites the state).  Returns the dump times and
    the mean blend of the pairs at each dump (0 throughout a purely
    synchronous run).  Dumps and blow-ups follow
    :func:`kinlang.dynamics.march`.
    """
    synchronous = purely_synchronous(control, constants)
    steps = dump_steps(cfg, dump_times)
    rc_mean = np.zeros(len(steps))
    slot = {k: i for i, k in enumerate(steps.tolist())}

    def keep(k: int, state: tuple) -> None:
        x, y = state
        reduce(slot[k], x, y)
        if not synchronous:
            rc_mean[slot[k]] = np.mean(rc_value(control, spec, constants,
                                                x[0] - x[1], y[0] - y[1]))

    march(lambda: (np.stack((state0.ax, state0.bx)), np.stack((state0.ay, state0.by))),
          cfg, coupled_step(spec, control, cfg, constants, state0.ax.shape,
                            law_mean=law_mean, law_means=law_means),
          keep, dump_times, t0=state0.t)
    return state0.t + steps * cfg.step, rc_mean


def simulate_coupled(spec: ModelSpec, state0: CoupledState, control: CouplingControl,
                     cfg: IntegratorConfig, constants: MetricConstants,
                     dump_times=None, law_mean: Optional[Array] = None,
                     law_means: Optional[Array] = None) -> CoupledTrajectory:
    """March a batch of coupled pairs to the horizon, recording dumps.

    Law terms see each copy's own empirical marginal over the batch, or
    ``law_mean``, one fixed law mean both copies use (e.g. the exact zero
    of the centered unconfined theory).  A law-mean path ``law_means``
    makes the coupling componentwise: the first component evolves as N
    independent nonlinear copies whose law mean at step k is
    ``law_means[k]`` (e.g. a large-proxy mean path), and the second as the
    N-particle system on its own empirical marginal (axis -2, so (R, N, d)
    arrays hold R replicas).  Each slot carries its own blend and
    reflection direction.  Both copies march as one (2, ...) array
    (see the module docstring); the trajectory's ``ax``, ``ay``, ``bx`` and
    ``by`` are views of its stacked dumps.  Dumps and blow-ups follow
    :func:`kinlang.dynamics.march`.
    """
    count = len(dump_steps(cfg, dump_times))
    xs = np.empty((count, 2) + state0.ax.shape)
    ys = np.empty_like(xs)

    def reduce(i: int, x: Array, y: Array) -> None:
        xs[i], ys[i] = x, y

    times, rc_mean = march_coupled(spec, state0, control, cfg, constants, reduce,
                                   dump_times, law_mean=law_mean, law_means=law_means)
    return CoupledTrajectory(times=times, ax=xs[:, 0], ay=ys[:, 0],
                             bx=xs[:, 1], by=ys[:, 1], rc_mean=rc_mean)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def contraction_monitor(traj: CoupledTrajectory, spec: ModelSpec,
                        constants: MetricConstants) -> dict:
    """Per-dump diagnostics of the two-regime contraction mechanism.

    Splits the pairs at the gluing offset each dump time and reports the
    population fraction and mean distance of each regime: outside pairs
    (gap >= offset) contract in the twisted norm, inside pairs in the
    rescaled small norm.  Useful for watching a run migrate from the
    synchronous to the reflection regime.
    """
    z = traj.ax - traj.bx
    w = traj.ay - traj.by
    rho = GroundMetric.from_constants(spec, constants, "rho")
    rl = twisted_norm(z, w, spec.external.matrix_k, constants.tau,
                      spec.gamma, spec.u)
    rs = small_norm(z, w, constants.alpha, spec.gamma)
    gap = rs - constants.eps * rl
    offset = constants.glue_offset
    inside = gap < offset
    frac_inside = inside.mean(axis=1)
    prof = constants.profile

    def masked_mean(values, mask):
        out = np.full(values.shape[0], np.nan)
        for k in range(values.shape[0]):
            if mask[k].any():
                out[k] = float(values[k][mask[k]].mean())
        return out

    return {"times": traj.times,
            "fraction_inside": frac_inside,
            "mean_rl_outside": masked_mean(rl, ~inside),
            "mean_f_rs_inside": masked_mean(prof.value(rs), inside),
            "mean_rho": rho.dist_zw(z, w).mean(axis=1)}
