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
serves every coupled run, and one driver, :func:`simulate_coupled`,
marches it through :func:`kinlang.dynamics.march` from a stacked start,
hands each dump to a caller's ``keep`` and returns the final state: the
chaos sweep reads only that, and contraction runs and ``kinlang couple``
reduce each dump's pair differences as it comes.

The model spec decides the forces both copies feel
(:func:`kinlang.dynamics.drift`).  A law term sees each copy's empirical
marginal over the coupled batch, or one fixed law mean that both copies
share (the exact zero of the centered unconfined theory).  The
componentwise adaptation is the same step with one more axis: given an
external law-mean path (e.g. the mean path of a large proxy run), it
couples N independent nonlinear copies against one N-particle system,
slot by slot, on (2, R, N, d) arrays.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng
from .constants import MetricConstants
from .dynamics import DynamicsError, IntegratorConfig, drift, integrator, march
from .metrics import row_norm, twisted_norm
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
# coupled runs
# ---------------------------------------------------------------------------

def coupled_step(spec: ModelSpec, control: CouplingControl, cfg: IntegratorConfig,
                 constants: MetricConstants, shape: tuple, law_mean: Optional[Array] = None,
                 law_means: Optional[Array] = None) -> Callable:
    """In-place step of coupled pairs stacked on a copy axis, ``(2,) +
    shape`` positions and velocities, for :func:`kinlang.dynamics.march`,
    with its own buffers.

    Law terms see each copy's own empirical marginal over the batch, or
    ``law_mean``, one fixed law mean both copies use (e.g. the exact zero
    of the centered unconfined theory).  A law-mean path ``law_means``
    makes the coupling componentwise: the first component evolves as N
    independent nonlinear copies whose law mean at step k is
    ``law_means[k]`` (e.g. a large-proxy mean path), and the second as the
    N-particle system on its own empirical marginal (axis -2, so (R, N, d)
    arrays hold R replicas).  Each slot carries its own blend and
    reflection direction.  This is the only coupled step.
    """
    advance = integrator(cfg.step, spec.gamma, spec.u, cfg.scheme)
    # a purely synchronous run shares one increment bitwise at every step;
    # otherwise that holds only on steps whose blend is zero on every pair
    synchronous = purely_synchronous(control, constants)
    shape = (2,) + shape
    force, noise = np.empty(shape), np.empty(shape[1:])
    pair_noise = None if synchronous else np.empty(shape)
    law = None if law_means is None else np.empty((2,) + shape[1:-2] + (1, shape[-1]))
    seed, noise_shape = cfg.seed, noise.shape

    def mean_at(k: int, x: Array) -> Array:
        """Law mean of both copies in a componentwise run: the second
        copy's is its own empirical marginal, stacked after the first
        copy's."""
        np.copyto(law[0], law_means[k])
        np.mean(x[1], axis=-2, keepdims=True, out=law[1])
        return law

    def step(k: int, state: tuple) -> None:
        x, y = state
        increments = rng.normals(seed, rng.SUB_MAIN, k, noise_shape, out=noise)
        if not synchronous:
            # Z and W go into the force buffer, which drift fills afterwards
            rc, q, qn = _blend(control, spec, constants,
                               np.subtract(x[0], x[1], out=force[0]),
                               np.subtract(y[0], y[1], out=force[1]))
            if rc.any():
                increments = _reflected_noise(q, qn, rc, increments, cfg, k, pair_noise)
        mean = law_mean if law is None else mean_at(k, x)
        advance(x, y, drift(spec, x, mean, out=force), increments)

    return step


def simulate_coupled(spec: ModelSpec, start: Callable, control: CouplingControl,
                     cfg: IntegratorConfig, constants: MetricConstants, shape: tuple,
                     keep: Callable = lambda k, state: None, dump_times=None,
                     law_mean: Optional[Array] = None,
                     law_means: Optional[Array] = None) -> tuple[Array, Array]:
    """March coupled pairs to the horizon: :func:`coupled_step` on ``(2,) +
    shape`` arrays (law terms as there) through
    :func:`kinlang.dynamics.march`, from the stacked positions and
    velocities ``start()`` returns, with ``keep(k, state)`` at each dump.
    Returns the final state, which the caller then owns.  Every coupled run
    goes through here.
    """
    return march(start, cfg, coupled_step(spec, control, cfg, constants, shape,
                                          law_mean=law_mean, law_means=law_means),
                 keep, dump_times)

