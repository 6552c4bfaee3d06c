"""Distances on kinetic phase space.

Three families of ground distances on pairs ``(x, y)`` of position and
velocity, all parametrized by the friction ``gamma`` and inverse mass
``u``:

* a twisted quadratic norm ``sqrt(u g^-2 z.Kz + |(1-2t) z + g^-1 w|^2 / 2
  + g^-2 |w|^2 / 2)`` used for large separations (and, with different
  twist constants, for the strongly convex and the unconfined cases),
* a weighted 1-norm ``alpha |z| + |z + g^-1 w|`` used for small
  separations,
* their gluing ``f((delta ^ glue_offset) + eps * r_large)`` through the
  concave profile, where ``delta = r_small - eps * r_large``.

A :class:`GroundMetric` holds one of them with its constants, and
:meth:`GroundMetric.from_constants` builds it from a model spec and its
derived constants.  Every distance is a norm of a difference ``(z, w)``:
two points ``(ax, ay)`` and ``(bx, by)`` are ``dist_zw(ax - bx, ay - by)``
apart.  All evaluators are pure and broadcast over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .profile import ConcaveProfile

Array = np.ndarray


class MetricError(ValueError):
    pass


# ---------------------------------------------------------------------------
# low-level norms on differences (z, w)
# ---------------------------------------------------------------------------

def twisted_norm_terms(z: Array, w: Array, k_matrix: Array, twist: float,
                       gamma: float, u: float) -> tuple[Array, Array]:
    """The squared twisted norm and its completed square's mixed coordinate
    ``(1 - 2 twist) z + w / gamma``, which its gradient reuses."""
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    quad = np.einsum("...i,ij,...j->...", z, k_matrix, z)
    mix = (1.0 - 2.0 * twist) * z + w / gamma
    norm_sq = (u / gamma ** 2) * quad + 0.5 * (mix ** 2).sum(axis=-1) \
        + 0.5 * (w ** 2).sum(axis=-1) / gamma ** 2
    return norm_sq, mix


def twisted_norm(z, w, k_matrix, twist, gamma, u):
    """Twisted norm, evaluated in its completed-square form.

    The completed-square form keeps every term non-negative, which avoids
    the cancellation the expanded cross-term form suffers from.
    """
    return np.sqrt(twisted_norm_terms(z, w, k_matrix, twist, gamma, u)[0])


def row_norm(x: Array, keepdims: bool = False) -> Array:
    """Euclidean norm over the last axis: ``np.linalg.norm(x, axis=-1)``
    to the bit, without its dispatch cost on the small batches of the
    constants ascent."""
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=keepdims))


def small_norm(z: Array, w: Array, alpha: float, gamma: float) -> Array:
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    return alpha * row_norm(z) + row_norm(z + w / gamma)


# ---------------------------------------------------------------------------
# ground metrics
# ---------------------------------------------------------------------------

_KINDS = ("r_strong", "r_l", "r_s", "rho", "r_tilde")


@dataclass(frozen=True)
class GroundMetric:
    """One of the supported phase-space distances with its owned constants."""

    kind: str
    gamma: float = 1.0
    u: float = 1.0
    k_matrix: Optional[Array] = None
    twist: float = 0.0
    alpha: float = 0.0
    eps: float = 0.0
    glue_offset: float = 0.0
    profile: Optional[ConcaveProfile] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise MetricError(f"unknown metric kind {self.kind!r}")

    @staticmethod
    def from_constants(spec, constants, kind: str) -> "GroundMetric":
        """The metric ``kind`` of a model spec and its derived constants:
        the only way a metric is built."""
        g, u, k = spec.gamma, spec.u, spec.external.matrix_k
        if kind == "r_strong":
            return GroundMetric(kind, g, u, k_matrix=k, twist=constants.lam)
        if kind == "r_l":
            return GroundMetric(kind, g, u, k_matrix=k, twist=constants.tau)
        if kind == "r_s":
            return GroundMetric(kind, g, alpha=constants.alpha)
        if kind == "rho":
            return GroundMetric(kind, g, u, k_matrix=k, twist=constants.tau,
                                alpha=constants.alpha, eps=constants.eps,
                                glue_offset=constants.glue_offset, profile=constants.profile)
        if kind == "r_tilde":
            if not spec.interaction.has_split:
                raise MetricError("unconfined metric needs an interaction splitting")
            return GroundMetric(kind, g, u, k_matrix=spec.interaction.split_matrix,
                                twist=constants.sigma)
        raise MetricError(f"unknown metric kind {kind!r}")

    # -- evaluation -----------------------------------------------------------

    def dist_zw(self, z: Array, w: Array) -> Array:
        """Norm form: distance of a pair whose difference is (z, w)."""
        z = np.asarray(z, dtype=float)
        w = np.asarray(w, dtype=float)
        if z.shape != w.shape:
            raise MetricError("z and w shapes differ")
        if self.kind in ("r_strong", "r_l", "r_tilde"):
            return twisted_norm(z, w, self.k_matrix, self.twist, self.gamma, self.u)
        if self.kind == "r_s":
            return small_norm(z, w, self.alpha, self.gamma)
        # glued metric; reduces to the twisted norm when the offset vanishes
        r_large = twisted_norm(z, w, self.k_matrix, self.twist, self.gamma, self.u)
        if self.glue_offset == 0.0:
            return r_large
        r_small = small_norm(z, w, self.alpha, self.gamma)
        delta = r_small - self.eps * r_large
        inner = np.minimum(delta, self.glue_offset) + self.eps * r_large
        return self.profile.value(inner)

    def delta_zw(self, z: Array, w: Array) -> Array:
        """Gluing gap r_small - eps * r_large (only defined for the glued kind)."""
        if self.kind != "rho":
            raise MetricError("delta is only defined for the glued metric")
        r_large = twisted_norm(z, w, self.k_matrix, self.twist, self.gamma, self.u)
        return small_norm(z, w, self.alpha, self.gamma) - self.eps * r_large


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def project_centered(a):
    """Subtract the ensemble mean, taken over axis -2, from positions and
    velocities (idempotent); (R, N, d) stacks are centered per replica."""
    ax, ay = _ensemble_xy(a)
    return ax - ax.mean(axis=-2, keepdims=True), ay - ay.mean(axis=-2, keepdims=True)


def _ensemble_xy(a) -> tuple[Array, Array]:
    x, y = a
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return x, y
