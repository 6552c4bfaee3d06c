"""Derived contraction constants of a validated model.

Everything downstream (metrics, couplings, experiment drivers) consumes the
:class:`MetricConstants` bundle computed here:

* the twist constants of the three quadratic metrics and the weights of
  the small-distance metric,
* the equivalence constants tying the different metrics to each other and
  to the Euclidean distance,
* the geometry of the gluing: squared radius of the synchronous region,
  gluing offset (a supremum over that region), small-distance cutoff
  (a supremum over a sublevel set of the gluing gap), and the concave
  profile built on top of them,
* explicit contraction rates for the strongly convex, classical,
  nonlinear, mean-field and unconfined regimes, plus the admissibility
  caps (minimal friction, maximal interaction strength) under which those
  rates are guaranteed.

The two suprema have no closed form; they are computed by multistart
projected gradient ascent (both objectives are positively homogeneous, so
radial rescaling is a valid feasibility projection); the tests
cross-check them against dense grids in low dimension.  When an
admissibility condition fails the bundle still carries every quantity
that remains well defined, plus human-readable diagnostics; nothing
raises just because a parameter point is outside the guaranteed regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import rng
from .metrics import row_norm, twisted_norm, twisted_norm_terms
from .model import ModelSpec
from .profile import ConcaveProfile, build_profile

Array = np.ndarray


class ConstantsError(RuntimeError):
    """Raised when a computed supremum lands outside its analytic bracket."""


# ---------------------------------------------------------------------------
# constants bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricConstants:
    """All derived constants of one model; immutable and thread-safe."""

    # dimensionless contraction knobs
    lam: float                    # twist of the strongly-convex metric
    tau: float                    # twist of the large-distance metric
    sigma: Optional[float]        # twist of the unconfined metric
    # shape of the small-distance metric and the gluing
    alpha: float                  # position weight of the small metric
    eps: float                    # blend factor: 2 eps r_large <= r_small
    ratio_floor: float            # lower bound of r_large / r_small
    rate_geom: float              # geometric ingredient of the glued rate
    big_lambda: float             # profile-flattening exponent
    radius_sq: float              # squared radius of the synchronous region
    glue_offset: float            # sup of the gluing gap over that region
    glue_offset_err: float
    small_cutoff: float           # sup of r_small over {gap <= glue_offset}
    small_cutoff_err: float
    chat: float                   # profile decay rate (0.0 if it underflows)
    # contraction rates
    c_strong: float
    c_classical: float
    c_nonlinear: float
    c_chaos: float
    c_unconfined: Optional[float]
    # equivalence constants
    m_strong: float
    m1: float
    m2: float
    m3: Optional[float]
    m4: Optional[float]
    equiv_lower: float            # lower Euclidean sandwich constant for rho
    equiv_upper: float            # upper Euclidean sandwich constant for rho
    # admissibility
    friction_ok: bool
    min_gamma: float              # smallest friction satisfying the rate condition
    interaction_ok: Optional[bool]
    max_interaction_lip: float    # largest admissible interaction Lipschitz constant
    unconfined_ok: Optional[bool]
    max_split_lip_l2: Optional[float]
    max_split_lip_l1: Optional[float]
    diagnostics: tuple = ()
    profile: ConcaveProfile = field(repr=False, default=None)

    def to_dict(self) -> dict:
        """JSON-ready snapshot: numbers as floats with non-finite ones as
        None, flags and None as they are; the profile is left out."""
        out = {}
        for f in fields(self):
            if f.name == "profile":
                continue
            v = getattr(self, f.name)
            if f.name == "diagnostics":
                v = list(v)
            elif v is not None and not isinstance(v, bool):
                v = float(v)
                v = None if math.isinf(v) or math.isnan(v) else v
            out[f.name] = v
        return out


# ---------------------------------------------------------------------------
# multistart projected gradient ascent on (z, w)
# ---------------------------------------------------------------------------

N_STARTS = 64
N_ITERS = 110


def _ascent_terms(z, w, spec, tau, alpha):
    """r_large and r_small at a batch of (z, w), as columns, and the
    gradient in z and in w of ``log(r_small / r_large)``."""
    g, u = spec.gamma, spec.u
    k = spec.external.matrix_k
    rl_sq, mix = twisted_norm_terms(z, w, k, tau, g, u)
    rl = np.sqrt(rl_sq)[:, None]
    q = z + w / g
    qn = row_norm(q, keepdims=True)
    zn = row_norm(z, keepdims=True)
    rs = alpha * zn + qn

    rl_safe = np.maximum(rl, 1e-300)
    rs_safe = np.maximum(rs, 1e-300)
    two_rl = 2.0 * rl_safe
    grad_rl_z = ((u / g ** 2) * 2.0 * (z @ k.T) + (1.0 - 2.0 * tau) * mix) / two_rl
    grad_rl_w = (mix / g + w / g ** 2) / two_rl
    qhat = np.where(qn > 0, q / np.maximum(qn, 1e-300), 0.0)
    zhat = np.where(zn > 0, z / np.maximum(zn, 1e-300), 0.0)
    grad_rs_z = alpha * zhat + qhat
    grad_rs_w = qhat / g
    gz = grad_rs_z / rs_safe - grad_rl_z / rl_safe
    gw = grad_rs_w / rs_safe - grad_rl_w / rl_safe
    return rl, rs, gz, gw


def _max_norm_ratios(spec, tau: float, alpha: float, seed: int = 421) -> tuple[float, float]:
    """Multistart projected gradient ascent for the two direction suprema
    sup r_small/r_large and sup r_large/r_small over nonzero differences.

    Both suprema defining the gluing geometry are of 1-homogeneous
    functions over 1-homogeneous constraint sets, so they are attained on
    the boundary and reduce to maximizing a ratio of the two norms over
    directions.  The ascent runs on the ratio (scale invariant) and
    projects every iterate back onto the unit sphere of r_large, which is
    the boundary of the constraint region up to scaling.  The two signs
    share one vectorized loop, half of the starts each; a start of the
    second half steps against the gradient of log(r_small / r_large).
    Each step evaluates the norms and the gradient once, at the trial
    points, and the accepted rows carry them into the next step.
    """
    d = spec.dim
    g = spec.gamma
    sign = np.repeat([1.0, -1.0], N_STARTS)[:, None]

    def normalize(z, w):
        rl = twisted_norm(z, w, spec.external.matrix_k, tau, g, spec.u)
        s = 1.0 / np.maximum(rl, 1e-300)
        return z * s[:, None], w * s[:, None]

    pts = rng.normals(seed, rng.SUB_MAIN, 0, (N_STARTS, 2 * d))
    pts = np.vstack([pts, pts])
    z, w = normalize(pts[:, :d].copy(), g * pts[:, d:].copy())
    rl, rs, gz, gw = _ascent_terms(z, w, spec, tau, alpha)
    best = (rs / rl) ** sign
    step = np.full((2 * N_STARTS, 1), 0.25)

    for _ in range(N_ITERS):
        up = sign * step
        zt, wt = normalize(z + up * gz, w + up * g ** 2 * gw)
        rl, rs, gz_t, gw_t = _ascent_terms(zt, wt, spec, tau, alpha)
        vt = (rs / rl) ** sign
        improved = vt > best
        z = np.where(improved, zt, z)
        w = np.where(improved, wt, w)
        gz = np.where(improved, gz_t, gz)
        gw = np.where(improved, gw_t, gw)
        best = np.where(improved, vt, best)
        step = np.where(improved, step * 1.3, step * 0.5)
        step = np.maximum(step, 1e-16)
    top = best.reshape(2, N_STARTS).max(axis=1)
    return float(top[0]), float(top[1])


# ---------------------------------------------------------------------------
# the two suprema
# ---------------------------------------------------------------------------

def compute_glue_offset(eps: float, ratio_floor: float, radius_sq: float,
                        ratios: Optional[tuple]) -> tuple[float, float]:
    """Supremum of the gluing gap over the synchronous region.

    ``ratios`` are the two norm-ratio suprema of ``_max_norm_ratios`` (None
    when ``radius_sq`` is 0).  Returns a certified lower bound (the best
    feasible point found) plus the bracket width as its error bar.
    """
    if radius_sq == 0.0:
        return 0.0, 0.0
    # sup over the region of (r_small - eps r_large) = (sup r_small/r_large - eps)
    # times the region radius, by 1-homogeneity of both sides
    val = (ratios[0] - eps) * math.sqrt(radius_sq)
    upper = (1.0 / ratio_floor - eps) * math.sqrt(radius_sq)
    return val, max(upper - val, 0.0)


def compute_small_cutoff(eps: float, ratio_floor: float, radius_sq: float,
                         glue_offset: float, ratios: Optional[tuple]) -> tuple[float, float]:
    """Supremum of r_small over the sublevel set of the gluing gap.

    ``ratios`` are as in :func:`compute_glue_offset`; a zero ``radius_sq``
    gives a zero ``glue_offset``, so both return early together.

    Hard-fails if the result escapes the analytic bracket
    ``[2 eps sqrt(radius_sq), 2 (1/ratio_floor - 2 eps) sqrt(radius_sq)]``:
    that indicates an optimizer or formula bug, not a data problem.
    """
    if glue_offset == 0.0:
        return 0.0, 0.0
    # on the boundary {gap = glue_offset}, a ray in direction v has
    # r_small = glue_offset * r_small(v) / gap(v); maximizing over
    # directions gives glue_offset / (1 - eps * sup r_large/r_small)
    val = glue_offset / (1.0 - eps * ratios[1])
    root = math.sqrt(radius_sq)
    lo = 2.0 * eps * root
    hi = 2.0 * (1.0 / ratio_floor - 2.0 * eps) * root
    pad = 1e-9 * max(1.0, hi)
    if not (lo - pad <= val <= hi + pad):
        raise ConstantsError(
            f"small cutoff {val:.6g} escaped its bracket [{lo:.6g}, {hi:.6g}]")
    return val, min(2.0 * glue_offset, hi) - val


# ---------------------------------------------------------------------------
# derivation
# ---------------------------------------------------------------------------

def derive_constants(spec: ModelSpec) -> MetricConstants:
    """Compute every derived constant of a validated model spec.

    Admissibility failures are reported in ``diagnostics`` and the
    corresponding flags; everything that stays well defined is still
    computed.
    """
    g, u = spec.gamma, spec.u
    kap, lk, lg, big_r = spec.kappa, spec.lip_k, spec.lip_g, spec.radius
    diags: list[str] = []

    lam = min(0.125, kap * u / g ** 2)
    tau = min(0.125, 0.5 * kap * u / g ** 2 - lg ** 2 * u ** 2 / g ** 4)
    min_gamma = math.sqrt(2.0 * lg ** 2 * u / kap) if lg > 0 else 0.0
    friction_ok = tau > 0.0
    if not friction_ok:
        diags.append(
            f"friction too small: rate condition needs gamma > {min_gamma:.6g} "
            f"(got {g:.6g}); large-distance constants are undefined")

    alpha = 2.0 * (lk + lg) * u / g ** 2
    eps = 0.5 * min(1.0, (2.0 / 3.0) * alpha * g / math.sqrt(lk * u), alpha)
    ratio_floor = min(math.sqrt(kap * u) / (g * math.sqrt(8.0) * alpha), 0.5)
    rate_geom = (1.0 / 6.0) * min(1.0, math.sqrt(kap) * g / (math.sqrt(8.0 * u) * (lk + lg)),
                                  math.sqrt(kap * u / 2.0) / g, alpha)

    if lg > 0 and lg * u / g ** 2 > 0.75:
        diags.append("strongly-convex rate condition violated: "
                     "lip_g * u / gamma^2 > 3/4; c_strong is not guaranteed")

    nan = float("nan")
    if friction_ok:
        radius_sq = (8.0 * u * (1.0 if big_r > 0 else 0.0) + lg * u * big_r ** 2) / (tau * g ** 2)
        ratios = _max_norm_ratios(spec, tau, alpha) if radius_sq > 0 else None
        glue_offset, glue_err = compute_glue_offset(eps, ratio_floor, radius_sq, ratios)
        small_cutoff, cutoff_err = compute_small_cutoff(eps, ratio_floor, radius_sq,
                                                        glue_offset, ratios)
        curvature = (lk + lg) / 4.0
        prof = build_profile(small_cutoff, curvature, g, u)
        big_lambda = curvature * small_cutoff ** 2
    else:
        radius_sq = glue_offset = small_cutoff = big_lambda = nan
        glue_err = cutoff_err = nan
        prof = build_profile(0.0, (lk + lg) / 4.0, g, u)

    # rates ------------------------------------------------------------------
    c_strong = g * lam
    if friction_ok:
        if big_r > 0:
            root_lambda = math.sqrt(big_lambda)
            c_classical = g * math.exp(-big_lambda) * min(
                (alpha / 8.0) * root_lambda, root_lambda / 8.0, tau * rate_geom / 2.0)
            c_nonlinear = 0.5 * c_classical
        else:
            c_classical = min(g / 16.0, kap / (4.0 * g) - 8.0 * lg ** 2 * u ** 2 / g ** 3)
            c_nonlinear = min(g / 32.0, kap * u / (8.0 * g) - 0.5 * lg ** 2 * u ** 2 / g ** 3)
        c_chaos = c_nonlinear
    else:
        c_classical = c_nonlinear = c_chaos = nan

    # interaction admissibility ------------------------------------------------
    # The smallness condition below ties the interaction to the confining
    # force; with no external force (unconfined setting) the binding
    # condition is the splitting-perturbation cap computed further down.
    inter = spec.interaction
    if friction_ok:
        cap = math.exp(-big_lambda) * min(
            (g * tau / 12.0) * math.sqrt(kap / u) * min(1.0, alpha), (lk + lg) / 4.0)
    else:
        cap = nan
    interaction_ok: Optional[bool] = None
    if inter.kind != "none" and spec.external.kind != "zero":
        interaction_ok = bool(friction_ok and inter.lip <= cap)
        if friction_ok and not interaction_ok:
            diags.append(f"interaction too strong: Lipschitz constant {inter.lip:.6g} "
                         f"exceeds the admissible cap {cap:.6g}")

    # unconfined constants -------------------------------------------------------
    sigma = c_unconfined = m3 = m4 = None
    cap_l2 = cap_l1 = None
    unconfined_ok: Optional[bool] = None
    if inter.has_split:
        kt_kap, kt_lk = inter.split_kappa, inter.split_lip_k
        sigma = min(0.125, 0.5 * kt_kap * u / g ** 2)
        c_unconfined = min(g / 16.0, kt_kap / (4.0 * g))
        m3 = max(math.sqrt(kt_lk * u + g ** 2), math.sqrt(1.5)) \
            * max(math.sqrt(1.0 / (kt_kap * u)), math.sqrt(2.0))
        m4 = g * max(math.sqrt(2.0 / kt_kap), 2.0)
        cap_l2 = math.sqrt(kt_kap / u) * (g / 2.0) * min(0.125, 0.5 * kt_kap * u / g ** 2)
        cap_l1 = math.sqrt(kt_kap / u) * (g / 4.0) * min(0.125, 0.5 * kt_kap / g ** 2)
        unconfined_ok = inter.split_lip_g <= cap_l2
        if not unconfined_ok:
            diags.append(f"unconfined perturbation too strong: {inter.split_lip_g:.6g} "
                         f"exceeds the admissible cap {cap_l2:.6g}")

    # equivalence constants -------------------------------------------------------
    m_strong = math.sqrt(max(u * lk + g ** 2, 1.5) * max(1.0 / (u * kap), 2.0))
    if friction_ok:
        exp_l = math.exp(big_lambda) if big_lambda < 700 else float("inf")
        m1 = max(2.0 * (lk + lg) * u / g + g, 1.0) * 0.5 * exp_l \
            * max(3.0, 3.0 * g ** 2 / (2.0 * (lk + lg) * u)) \
            * max(math.sqrt(2.0 / (kap * u)), 2.0)
        m2 = 3.0 * exp_l * max(1.0, g ** 2 / (2.0 * (lk + lg) * u)) \
            * g * max(math.sqrt(2.0 / (kap * u)), 2.0)
        if big_r > 0:
            equiv_lower = prof.slope_at_cutoff * eps / g * min(math.sqrt(kap * u), 1.0 / math.sqrt(2.0))
            equiv_upper = math.sqrt(2.0) * max(alpha + 1.0, 1.0 / g)
        else:
            # the glued metric degenerates to the twisted norm itself
            equiv_lower = math.sqrt(min(u * kap, 0.5)) / g
            equiv_upper = math.sqrt(max(u * lk / g ** 2 + 1.0, 1.5 / g ** 2))
    else:
        m1 = m2 = equiv_lower = equiv_upper = nan

    return MetricConstants(
        lam=lam, tau=tau, sigma=sigma, alpha=alpha, eps=eps,
        ratio_floor=ratio_floor, rate_geom=rate_geom, big_lambda=big_lambda,
        radius_sq=radius_sq, glue_offset=glue_offset, glue_offset_err=glue_err,
        small_cutoff=small_cutoff, small_cutoff_err=cutoff_err, chat=prof.chat,
        c_strong=c_strong, c_classical=c_classical, c_nonlinear=c_nonlinear,
        c_chaos=c_chaos, c_unconfined=c_unconfined,
        m_strong=m_strong, m1=m1, m2=m2, m3=m3, m4=m4,
        equiv_lower=equiv_lower, equiv_upper=equiv_upper,
        friction_ok=friction_ok, min_gamma=min_gamma,
        interaction_ok=interaction_ok, max_interaction_lip=cap,
        unconfined_ok=unconfined_ok, max_split_lip_l2=cap_l2,
        max_split_lip_l1=cap_l1, diagnostics=tuple(diags), profile=prof)
