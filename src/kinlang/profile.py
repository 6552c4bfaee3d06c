"""Concave distance-rescaling profile.

The glued metric applies an increasing concave function ``f`` to a blend of
the small- and large-distance metrics.  ``f`` is built from a Gaussian
envelope ``phi(s) = exp(-a * min(s, cutoff)^2)``, its antiderivative
``big_phi``, and a decreasing weight ``psi in [1/2, 1]``:

    f(r) = integral_0^r phi(s) psi(s) ds,
    psi(s) = 1 - ratio(s) / 2,   ratio(s) = I(min(s, cutoff)) / I(cutoff),
    I(s) = integral_0^s big_phi(x) / phi(x) dx.

Beyond the cutoff ``f`` continues linearly with slope ``phi(cutoff) / 2``.
The decay constant of the small-distance contraction is
``chat = u / (gamma * I(cutoff))``.

Numerics: ``big_phi`` is evaluated in closed form through ``erf``, which
the two functions that call it load from scipy's compiled
``scipy.special._special_ufuncs`` alone (``_scipy.kernel``): no run imports
``scipy.special`` itself, and runs with the identity profile (quadratic,
unconfined) load no scipy.  The inner integral ``I`` grows like
``exp(a s^2)`` and overflows float64 for stiff configurations, so it is
accumulated in log space with per-panel Gauss-Legendre quadrature; only the
ratio ``I(s)/I(cutoff)`` is ever exponentiated.  ``f`` itself is stored as
a piecewise-linear table on 4096 panels: linear interpolation of concave
increasing data is again concave and increasing, so the interpolated ``f``
keeps the exact subadditivity that the triangle inequality of the glued
metric relies on.  The table build takes its quadrature nodes in blocks of
``BLOCK_PANELS`` panels, so no temporary holds all 4096 x 10 of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._scipy import kernel

N_PANELS = 4096
# panels per block of the table build: its per-node temporaries hold
# BLOCK_PANELS x 10 values (40 KB) instead of N_PANELS x 10
BLOCK_PANELS = 512
# 10-point Gauss-Legendre nodes and weights on [-1, 1], the bits of
# np.polynomial.legendre.leggauss(10), written out so that no run imports
# numpy.polynomial
_GL_NODES = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244, -0.4333953941292472,
    -0.14887433898163122, 0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889845, 0.9739065285171717])
_GL_WEIGHTS = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982, 0.2692667193099965,
    0.2955242247147528, 0.2955242247147528, 0.2692667193099965, 0.219086362515982,
    0.1494513491505804, 0.06667134430868814])


@dataclass(frozen=True)
class ConcaveProfile:
    """Tabulated profile; all evaluators accept scalars or arrays."""

    cutoff: float            # distance beyond which f is linear
    curvature: float         # a in phi(s) = exp(-a s^2)
    gamma: float
    u: float
    chat: float              # small-distance decay rate (0.0 if it underflows)
    log_inner_total: float   # log I(cutoff); -inf for the identity profile
    knots: np.ndarray
    f_knots: np.ndarray
    psi_knots: np.ndarray

    @property
    def is_identity(self) -> bool:
        return self.cutoff == 0.0

    # -- closed-form ingredients --------------------------------------------

    def phi(self, s):
        s = np.asarray(s, dtype=float)
        return np.exp(-self.curvature * np.minimum(s, self.cutoff) ** 2)

    def big_phi(self, s):
        """Antiderivative of phi, linear beyond the cutoff."""
        s = np.asarray(s, dtype=float)
        if self.is_identity:
            return s.copy()
        erf = kernel("special", "_special_ufuncs", "erf")
        a = self.curvature
        root = np.sqrt(a)
        inner = np.sqrt(np.pi) / (2.0 * root) * erf(root * np.minimum(s, self.cutoff))
        tail = np.maximum(s - self.cutoff, 0.0) * self.phi(self.cutoff)
        return inner + tail

    # -- tabulated ingredients ----------------------------------------------

    def psi(self, s):
        s = np.asarray(s, dtype=float)
        if self.is_identity:
            return np.ones_like(s)
        return np.interp(s, self.knots, self.psi_knots, right=0.5)

    def value(self, r):
        """f(r): piecewise-linear inside the cutoff, exactly linear beyond."""
        r = np.asarray(r, dtype=float)
        if self.is_identity:
            return r.copy()
        inside = np.interp(r, self.knots, self.f_knots)
        slope = 0.5 * self.phi(self.cutoff)
        outside = self.f_knots[-1] + (r - self.cutoff) * slope
        return np.where(r <= self.cutoff, inside, outside)

    def slope(self, r):
        """f'(r) = phi(r) psi(r)."""
        r = np.asarray(r, dtype=float)
        if self.is_identity:
            return np.ones_like(r)
        return self.phi(r) * self.psi(r)

    @property
    def slope_at_cutoff(self) -> float:
        if self.is_identity:
            return 1.0
        return float(0.5 * self.phi(self.cutoff))


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp(a, axis=1)`` for a real 2-D array, to the bit.

    The same steps as scipy's: the row maximum (counted once per tie) is
    split off the shifted sum, and rows whose result is not finite fall
    back to the unshifted ``log(sum(exp(a)))``.  scipy's array-API
    dispatch around the same steps more than doubles their cost on the
    (512, 10) panel blocks.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=1, keepdims=True)
        at_max = a == a_max
        m = np.count_nonzero(at_max, axis=1, keepdims=True).astype(a.dtype)
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            out = np.where(bad, np.log(np.exp(a).sum(axis=1, keepdims=True)), out)
    return out[:, 0]


def _panel_nodes(knots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """10-point Gauss-Legendre nodes of every inter-knot panel, one row per
    panel, and the panels' half widths."""
    lo, hi = knots[:-1], knots[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[:, None] + half[:, None] * _GL_NODES[None, :], half


def _log_panel_integrals(a: float, x: np.ndarray, half: np.ndarray) -> np.ndarray:
    """log of the integral of big_phi/phi over each panel, given the panel
    nodes ``x`` and half widths ``half`` of ``_panel_nodes``.

    Integrand g(x) = big_phi(x) exp(a x^2); each inter-knot panel is
    integrated by 10-point Gauss-Legendre in log space.  With 4096 panels
    the integrand varies by at most a factor ~e per panel even when
    a*cutoff^2 is in the thousands, so the quadrature error stays far
    below 1e-9 relative.
    """
    erf = kernel("special", "_special_ufuncs", "erf")
    root = np.sqrt(a)
    with np.errstate(divide="ignore"):
        log_big_phi = np.log(np.sqrt(np.pi) / (2.0 * root) * erf(root * x))
        log_g = log_big_phi + a * x ** 2
        log_w = np.log(half[:, None] * _GL_WEIGHTS[None, :])
    return _logsumexp_rows(log_w + log_g)


def _by_blocks(knots: np.ndarray, panel_values) -> np.ndarray:
    """``panel_values(x, half)`` of every panel between ``knots``, taken
    on BLOCK_PANELS panels at a time, so the per-node temporaries hold
    BLOCK_PANELS x 10 values whatever the panel count."""
    out = np.empty(len(knots) - 1)
    for lo in range(0, len(out), BLOCK_PANELS):
        hi = min(lo + BLOCK_PANELS, len(out))
        out[lo:hi] = panel_values(*_panel_nodes(knots[lo:hi + 1]))
    return out


def build_profile(cutoff: float, curvature: float, gamma: float, u: float) -> ConcaveProfile:
    """Construct the profile tables (identity profile when the cutoff is 0).

    Both quadratures go through the panels in blocks (``_by_blocks``);
    only the running sums over panels, a logaddexp for the inner integral
    and a cumsum for ``f``, see all panels at once.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if cutoff == 0.0:
        z = np.zeros(1)
        return ConcaveProfile(cutoff=0.0, curvature=curvature, gamma=gamma, u=u,
                              chat=np.inf, log_inner_total=-np.inf,
                              knots=z, f_knots=z, psi_knots=np.ones(1))
    a = curvature
    knots = np.linspace(0.0, cutoff, N_PANELS + 1)
    log_inner = np.full(knots.shape, -np.inf)
    np.logaddexp.accumulate(_by_blocks(knots, partial(_log_panel_integrals, a)),
                            out=log_inner[1:])
    log_total = float(log_inner[-1])
    psi_knots = 1.0 - 0.5 * np.exp(log_inner - log_total)

    # f knots: per-panel Gauss-Legendre of phi * psi, with psi interpolated
    # linearly between its knot values (psi is smooth and slowly varying)
    def f_panels(x: np.ndarray, half: np.ndarray) -> np.ndarray:
        phi_x = np.exp(-a * x ** 2)
        psi_x = np.interp(x, knots, psi_knots)
        return half * np.sum(_GL_WEIGHTS[None, :] * phi_x * psi_x, axis=1)

    f_knots = np.concatenate([[0.0], np.cumsum(_by_blocks(knots, f_panels))])

    chat = u / gamma * float(np.exp(-log_total))  # underflows to 0.0 for stiff configs
    return ConcaveProfile(cutoff=float(cutoff), curvature=float(a), gamma=gamma, u=u,
                          chat=chat, log_inner_total=log_total,
                          knots=knots, f_knots=f_knots, psi_knots=psi_knots)
