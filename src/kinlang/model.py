"""Force fields for kinetic Langevin dynamics.

An external force ``b`` enters the velocity equation as ``u * b(X)`` and is
required to split as ``b(x) = -K x + g(x)`` with ``K`` positive definite and
``g`` Lipschitz, monotone-decreasing across pairs separated by more than a
radius ``R``.  A pairwise interaction force ``b_int(x, z)`` is required to
be jointly Lipschitz; for the unconfined dynamics it must additionally split
as ``b_int(x, z) = -Kt (x - z) + gt(x - z)`` with ``gt`` anti-symmetric.

The library never infers splitting constants: built-in forces carry the
known ones, custom forces must declare theirs, and
:func:`validate_assumptions` tries to falsify whatever was declared by
Monte Carlo sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import rng

Array = np.ndarray

_FD_STEP = 1e-6


class ModelError(ValueError):
    """Raised for structurally invalid model definitions."""


# ---------------------------------------------------------------------------
# double-well potential and its splitting
# ---------------------------------------------------------------------------

def double_well_potential(x: Array, beta: float) -> Array:
    """Radial double well: quartic inside |x| <= 2, quadratic outside."""
    r2 = np.sum(np.atleast_2d(x) ** 2, axis=-1)
    inner = beta * (r2 ** 2 / 4.0 - r2 / 2.0)
    outer = beta * (1.5 * r2 - 4.0)
    return np.where(r2 <= 4.0, inner, outer)


def double_well_force(x: Array, beta: float, out: Optional[Array] = None) -> Array:
    """Negative gradient of :func:`double_well_potential`, written into
    ``out`` if given."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x ** 2, axis=-1, keepdims=True)
    # one product with x: -beta (r2 - 1) inside, -3 beta outside
    return np.multiply(np.where(r2 <= 4.0, -beta * (r2 - 1.0), -3.0 * beta), x, out=out)


def _double_well_g(x: Array, beta: float) -> Array:
    # perturbation part of the splitting -V' = -(2 beta) x + g
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x ** 2, axis=-1, keepdims=True)
    inner = -beta * (r2 - 3.0) * x
    outer = -beta * x
    return np.where(r2 <= 4.0, inner, outer)


# elements per (rows, grid) temporary of `double_well_monotonicity_radius`
RADIUS_BLOCK_ELEMENTS = 2 ** 16


def double_well_monotonicity_radius(step: float = 0.01, box: float = 10.0) -> float:
    """Smallest radius beyond which the double-well perturbation is monotone.

    Brute-force search over 1-d pairs on a regular grid: find the largest
    separation at which ``(g(x) - g(x')) (x - x') > 0`` still occurs and
    return it padded by one grid step.  The grid is scanned in blocks of
    rows, each temporary holding about RADIUS_BLOCK_ELEMENTS values, with a
    running maximum of the separation over the violating pairs.  The
    result does not depend on the well depth (the perturbation scales
    linearly with it).
    """
    xs = np.arange(-box, box + step / 2, step)
    g = np.where(np.abs(xs) <= 2.0, -(xs ** 3 - 3.0 * xs), -xs)
    rows = max(1, RADIUS_BLOCK_ELEMENTS // xs.size)
    # a violating pair has x != x', so a widest separation of 0 means none
    widest = 0.0
    for i in range(0, xs.size, rows):
        dx = xs[i:i + rows, None] - xs
        viol = (g[i:i + rows, None] - g) * dx > 1e-12
        widest = np.max(np.abs(dx, out=dx), where=viol, initial=widest)
    return float(widest + step) if widest > 0 else 0.0


# cached: the radius is parameter-free (see docstring above)
_DW_RADIUS: Optional[float] = None


def _dw_radius() -> float:
    global _DW_RADIUS
    if _DW_RADIUS is None:
        _DW_RADIUS = double_well_monotonicity_radius()
    return _DW_RADIUS


# ---------------------------------------------------------------------------
# external force
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExternalForce:
    """External drift with declared splitting ``b(x) = -K x + g(x)``.

    ``kappa``/``lip_k`` are the extreme eigenvalues of ``K``; ``lip_g`` is
    the declared Lipschitz constant of ``g`` and ``radius`` the declared
    monotonicity radius.
    """

    kind: str                      # "quadratic" | "double_well" | "custom" | "zero"
    dim: int
    matrix_k: Array                # (d, d) positive definite
    kappa: float
    lip_k: float
    lip_g: float
    radius: float
    params: dict = field(default_factory=dict)
    g_fn: Optional[Callable[[Array], Array]] = None
    force_fn: Optional[Callable[[Array], Array]] = None
    potential_fn: Optional[Callable[[Array], Array]] = None
    # -K^T, so the quadratic force -K x is one product per call: each entry
    # of x @ (-K^T) is the product (-x) @ K^T would give, bit for bit
    neg_kt: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = np.asarray(self.matrix_k, dtype=float)
        if k.shape != (self.dim, self.dim):
            raise ModelError(f"K must be {self.dim}x{self.dim}, got {k.shape}")
        if not np.allclose(k, k.T, atol=1e-12):
            raise ModelError("K must be symmetric")
        eigs = np.linalg.eigvalsh(k)
        if eigs[0] <= 0:
            raise ModelError("K must be positive definite")
        object.__setattr__(self, "matrix_k", k)
        object.__setattr__(self, "neg_kt", np.negative(k).T)
        if self.kappa > self.lip_k + 1e-12:
            raise ModelError("kappa must not exceed the largest eigenvalue of K")
        if self.radius < 0:
            raise ModelError("monotonicity radius must be >= 0")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def quadratic(k_matrix, dim: Optional[int] = None) -> "ExternalForce":
        """Pure linear force -K x (g vanishes identically)."""
        k = np.asarray(k_matrix, dtype=float)
        if k.ndim == 0:
            if dim is None:
                raise ModelError("scalar K needs an explicit dimension")
            k = float(k) * np.eye(dim)
        d = k.shape[0]
        eigs = np.linalg.eigvalsh((k + k.T) / 2)
        return ExternalForce(kind="quadratic", dim=d, matrix_k=k,
                             kappa=float(eigs[0]), lip_k=float(eigs[-1]),
                             lip_g=0.0, radius=0.0,
                             params={"k_matrix": k.tolist()})

    @staticmethod
    def double_well(beta: float, dim: int = 1) -> "ExternalForce":
        """Radial double well, split off its strongest linear part."""
        if beta <= 0:
            raise ModelError("well depth must be positive")
        radius = _dw_radius()
        return ExternalForce(kind="double_well", dim=dim,
                             matrix_k=2.0 * beta * np.eye(dim),
                             kappa=2.0 * beta, lip_k=2.0 * beta,
                             lip_g=9.0 * beta, radius=radius,
                             params={"beta": beta})

    @staticmethod
    def zero(dim: int) -> "ExternalForce":
        """No external force: with an interaction splitting, the unconfined
        dynamics (``K`` is a placeholder)."""
        return ExternalForce(kind="zero", dim=dim, matrix_k=np.eye(dim),
                             kappa=1.0, lip_k=1.0, lip_g=0.0, radius=0.0)

    @staticmethod
    def custom(force: Callable[[Array], Array], k_matrix, lip_g: float,
               radius: float, dim: int, g: Optional[Callable[[Array], Array]] = None,
               potential: Optional[Callable[[Array], Array]] = None) -> "ExternalForce":
        """Custom force with user-declared splitting constants."""
        k = np.asarray(k_matrix, dtype=float)
        if k.ndim == 0:
            k = float(k) * np.eye(dim)
        eigs = np.linalg.eigvalsh((k + k.T) / 2)
        return ExternalForce(kind="custom", dim=dim, matrix_k=k,
                             kappa=float(eigs[0]), lip_k=float(eigs[-1]),
                             lip_g=float(lip_g), radius=float(radius),
                             force_fn=force, g_fn=g, potential_fn=potential)

    # -- evaluation ----------------------------------------------------------

    def force(self, x: Array, out: Optional[Array] = None) -> Array:
        """``b(x)``; ``out``, an array of the shape of ``x``, receives it and
        is returned."""
        x = np.asarray(x, dtype=float)
        if self.kind == "quadratic":
            return np.matmul(x, self.neg_kt, out=out)
        if self.kind == "double_well":
            return double_well_force(x, self.params["beta"], out)
        value = np.zeros_like(x) if self.kind == "zero" else self.force_fn(x)
        if out is None:
            return value
        np.copyto(out, value)
        return out

    def g(self, x: Array) -> Array:
        """Perturbation part: g(x) = b(x) + K x."""
        x = np.asarray(x, dtype=float)
        if self.kind == "double_well":
            return _double_well_g(x, self.params["beta"])
        if self.kind in ("quadratic", "zero"):
            return np.zeros_like(x)
        if self.g_fn is not None:
            return self.g_fn(x)
        return self.force(x) + x @ self.matrix_k.T

    def potential(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if self.kind == "quadratic":
            return 0.5 * np.sum((x @ self.matrix_k.T) * x, axis=-1)
        if self.kind == "double_well":
            return double_well_potential(x, self.params["beta"])
        if self.potential_fn is not None:
            return self.potential_fn(x)
        raise ModelError(f"no potential available for kind {self.kind!r}")


# ---------------------------------------------------------------------------
# interaction force
# ---------------------------------------------------------------------------

def _mollified_radial_profile(kind: str, params: dict) -> Callable[[Array], Array]:
    """Scalar profile h with force(x,z) = h(|x-z|)/|x-z| * (x-z)."""
    p, q = params["p"], params["q"]
    if kind == "mollified_coulomb":
        kt = params["k_tilde"]

        def h(r):
            return kt * r ** (p - 1.0) * (r ** p + q ** p) ** (-(p + 1.0) / p)
    else:  # mollified_log

        def h(r):
            return 2.0 * r ** (p - 1.0) / (r ** p + q ** p)
    return h


def _estimate_radial_lipschitz(h: Callable[[Array], Array]) -> float:
    # Jacobian eigenvalues of a radial field h(r) x/r are h'(r) and h(r)/r;
    # bound their maximum over a dense log-spaced grid with a small pad.
    r = np.concatenate([[1e-9], np.geomspace(1e-6, 1e4, 4000)])
    hr = h(r)
    dh = np.gradient(hr, r)
    return float(1.05 * max(np.abs(dh).max(), np.abs(hr / np.maximum(r, 1e-12)).max()))


@dataclass(frozen=True)
class InteractionForce:
    """Pairwise force with declared Lipschitz constant.

    ``split_*`` fields are only present for interactions that admit the
    unconfined decomposition ``b_int(x, z) = -Kt (x - z) + gt(x - z)``.
    """

    kind: str          # "none" | "linear" | "mollified_coulomb" | "mollified_log" | "custom"
    lip: float         # joint Lipschitz constant of (x, z) -> force
    params: dict = field(default_factory=dict)
    pair_fn: Optional[Callable[[Array, Array], Array]] = None
    potential_fn: Optional[Callable[[Array, Array], Array]] = None
    # unconfined splitting (optional)
    split_matrix: Optional[Array] = None
    split_kappa: float = 0.0
    split_lip_k: float = 0.0
    split_g: Optional[Callable[[Array], Array]] = None
    split_lip_g: float = 0.0

    @staticmethod
    def none() -> "InteractionForce":
        return InteractionForce(kind="none", lip=0.0)

    @staticmethod
    def linear(k: float) -> "InteractionForce":
        """b_int(x, z) = k z; attractive toward the mean for k > 0."""
        return InteractionForce(kind="linear", lip=abs(float(k)), params={"k": float(k)})

    @staticmethod
    def mollified_coulomb(k_tilde: float, p: float = 2.0, q: float = 1.0) -> "InteractionForce":
        if q <= 0:
            raise ModelError("mollifier width q must be positive (q=0 is singular)")
        if p < 2:
            raise ModelError("mollified kinds need p >= 2")
        params = {"k_tilde": float(k_tilde), "p": float(p), "q": float(q)}
        h = _mollified_radial_profile("mollified_coulomb", params)
        force = InteractionForce(kind="mollified_coulomb",
                                 lip=_estimate_radial_lipschitz(h), params=params)
        force._self_check_gradient()
        return force

    @staticmethod
    def mollified_log(p: float = 2.0, q: float = 1.0) -> "InteractionForce":
        if q <= 0:
            raise ModelError("mollifier width q must be positive (q=0 is singular)")
        if p < 2:
            raise ModelError("mollified kinds need p >= 2")
        params = {"p": float(p), "q": float(q)}
        h = _mollified_radial_profile("mollified_log", params)
        force = InteractionForce(kind="mollified_log",
                                 lip=_estimate_radial_lipschitz(h), params=params)
        force._self_check_gradient()
        return force

    @staticmethod
    def linear_difference(kt_matrix, dim: Optional[int] = None) -> "InteractionForce":
        """Spring interaction -Kt (x - z): the pure linear unconfined case."""
        kt = np.asarray(kt_matrix, dtype=float)
        if kt.ndim == 0:
            if dim is None:
                raise ModelError("scalar Kt needs an explicit dimension")
            kt = float(kt) * np.eye(dim)
        eigs = np.linalg.eigvalsh((kt + kt.T) / 2)
        if eigs[0] <= 0:
            raise ModelError("Kt must be positive definite")
        return InteractionForce(
            kind="custom", lip=float(eigs[-1]),
            params={"kt_matrix": kt.tolist(), "builtin": "linear_difference"},
            pair_fn=lambda x, z: -(x - z) @ kt.T,
            split_matrix=kt, split_kappa=float(eigs[0]), split_lip_k=float(eigs[-1]),
            split_g=None, split_lip_g=0.0)

    @staticmethod
    def custom(pair: Callable[[Array, Array], Array], lip: float,
               split_matrix=None, split_g: Optional[Callable[[Array], Array]] = None,
               split_lip_g: float = 0.0) -> "InteractionForce":
        kt = None
        kap = lk = 0.0
        if split_matrix is not None:
            kt = np.asarray(split_matrix, dtype=float)
            eigs = np.linalg.eigvalsh((kt + kt.T) / 2)
            if eigs[0] <= 0:
                raise ModelError("split matrix must be positive definite")
            kap, lk = float(eigs[0]), float(eigs[-1])
        return InteractionForce(kind="custom", lip=float(lip), pair_fn=pair,
                                split_matrix=kt, split_kappa=kap, split_lip_k=lk,
                                split_g=split_g, split_lip_g=float(split_lip_g))

    # -- evaluation ----------------------------------------------------------

    @property
    def has_split(self) -> bool:
        return self.split_matrix is not None

    def pair_force(self, x: Array, z: Array) -> Array:
        """Force exerted on a particle at ``x`` by one at ``z``."""
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        if self.kind == "none":
            return np.zeros(np.broadcast_shapes(x.shape, z.shape))
        if self.kind == "linear":
            return np.broadcast_to(self.params["k"] * z,
                                   np.broadcast_shapes(x.shape, z.shape)).copy()
        if self.kind in ("mollified_coulomb", "mollified_log"):
            diff = x - z
            r = np.linalg.norm(diff, axis=-1, keepdims=True)
            h = _mollified_radial_profile(self.kind, self.params)
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.where(r > 0, h(np.maximum(r, 1e-300)) / np.maximum(r, 1e-300), 0.0) * diff
            return out
        return self.pair_fn(x, z)

    def potential(self, x: Array, z: Array) -> Array:
        diff = np.asarray(x, dtype=float) - np.asarray(z, dtype=float)
        r = np.linalg.norm(diff, axis=-1)
        p = self.params.get("p")
        q = self.params.get("q")
        if self.kind == "mollified_coulomb":
            return self.params["k_tilde"] * (r ** p + q ** p) ** (-1.0 / p)
        if self.kind == "mollified_log":
            return -(2.0 / p) * np.log(r ** p + q ** p)
        if self.potential_fn is not None:
            return self.potential_fn(x, z)
        raise ModelError(f"no potential available for kind {self.kind!r}")

    def split_g_eval(self, zdiff: Array) -> Array:
        if self.split_g is None:
            return np.zeros_like(np.asarray(zdiff, dtype=float))
        return self.split_g(zdiff)

    def _self_check_gradient(self, n: int = 16, seed: int = 2024) -> None:
        # construction-time guard: analytic force must match the central
        # difference of the mollified potential
        pts = rng.normals(seed, rng.SUB_MAIN, 0, (n, 2, 3))
        x, z = pts[:, 0, :], pts[:, 1, :]
        analytic = self.pair_force(x, z)
        fd = np.empty_like(analytic)
        for j in range(3):
            e = np.zeros(3)
            e[j] = _FD_STEP
            fd[:, j] = -(self.potential(x + e, z) - self.potential(x - e, z)) / (2 * _FD_STEP)
        scale = np.maximum(np.abs(analytic), 1.0)
        if not np.allclose(analytic, fd, rtol=0, atol=2e-6 * scale.max()):
            raise ModelError("analytic interaction gradient disagrees with finite differences")


# ---------------------------------------------------------------------------
# model spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Immutable bundle of forces and physical parameters.

    ``gamma`` is the friction, ``u`` the inverse particle mass.  All
    evaluation methods are pure, so instances are safe to share between
    threads.
    """

    external: ExternalForce
    interaction: InteractionForce
    gamma: float
    u: float
    dim: int

    def __post_init__(self):
        if self.gamma <= 0:
            raise ModelError("friction gamma must be positive")
        if self.u <= 0:
            raise ModelError("inverse mass u must be positive")
        if self.dim < 1:
            raise ModelError("dimension must be >= 1")
        if self.external.dim != self.dim:
            raise ModelError("external force dimension mismatch")

    # per-field shortcuts used throughout the constants machinery
    @property
    def kappa(self) -> float:
        return self.external.kappa

    @property
    def lip_k(self) -> float:
        return self.external.lip_k

    @property
    def lip_g(self) -> float:
        return self.external.lip_g

    @property
    def radius(self) -> float:
        return self.external.radius

    @property
    def unconfined(self) -> bool:
        """Zero external force and a split interaction: the unconfined
        dynamics, run on centered ensembles."""
        return self.external.kind == "zero" and self.interaction.has_split

    def to_dict(self) -> dict:
        ext = {"kind": self.external.kind, **self.external.params}
        if self.external.kind == "custom":
            raise ModelError("custom external forces do not round-trip through JSON")
        inter = {"kind": self.interaction.kind, **self.interaction.params}
        if self.interaction.kind == "custom" and "builtin" not in self.interaction.params:
            raise ModelError("custom interaction forces do not round-trip through JSON")
        return {"dimension": self.dim, "gamma": self.gamma, "u": self.u,
                "external": ext, "interaction": inter}

    @staticmethod
    def from_dict(doc: dict) -> "ModelSpec":
        d = int(doc["dimension"])
        ext_doc = dict(doc["external"])
        kind = ext_doc.pop("kind")
        if kind == "quadratic":
            ext = ExternalForce.quadratic(np.asarray(ext_doc["k_matrix"], dtype=float))
        elif kind == "double_well":
            ext = ExternalForce.double_well(float(ext_doc["beta"]), dim=d)
        elif kind == "zero":
            ext = ExternalForce.zero(d)
        else:
            raise ModelError(f"unknown external kind {kind!r}")
        inter_doc = dict(doc.get("interaction", {"kind": "none"}))
        ikind = inter_doc.pop("kind")
        builtin = inter_doc.pop("builtin", None)
        if ikind == "none":
            inter = InteractionForce.none()
        elif ikind == "linear":
            inter = InteractionForce.linear(float(inter_doc["k"]))
        elif ikind == "mollified_coulomb":
            inter = InteractionForce.mollified_coulomb(**inter_doc)
        elif ikind == "mollified_log":
            inter = InteractionForce.mollified_log(**inter_doc)
        elif ikind == "custom" and builtin == "linear_difference":
            inter = InteractionForce.linear_difference(np.asarray(inter_doc["kt_matrix"], dtype=float))
        else:
            raise ModelError(f"unknown interaction kind {ikind!r}")
        return ModelSpec(external=ext, interaction=inter,
                         gamma=float(doc["gamma"]), u=float(doc["u"]), dim=d)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    check: str
    detail: str
    witness: tuple
    observed: float
    declared: float


@dataclass(frozen=True)
class AssumptionReport:
    violations: tuple
    estimates: dict

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def validate_assumptions(spec: ModelSpec, samples: int = 2000, seed: int = 0,
                         scale: float = 5.0) -> AssumptionReport:
    """Monte Carlo falsification of the declared structural constants.

    Never proves an assumption; it only fails to falsify.  Violations are
    collected into a structured report instead of raising.
    """
    if samples < 1:
        raise ModelError("samples must be >= 1")
    violations: list[Violation] = []
    estimates: dict[str, float] = {}
    d = spec.dim
    pts = scale * rng.normals(seed, rng.SUB_MAIN, 0, (samples, 2, d))
    x, xb = pts[:, 0, :], pts[:, 1, :]

    ext = spec.external
    if ext.kind == "zero":
        # placeholder for unconfined runs: there is no external force to check
        return _interaction_checks(spec, samples, seed, scale, violations, estimates)
    # splitting reproduces the declared force pointwise
    recomposed = -x @ ext.matrix_k.T + ext.g(x)
    direct = ext.force(x)
    err = np.abs(recomposed - direct).max()
    estimates["splitting_residual"] = float(err)
    if err > 1e-9 * max(1.0, np.abs(direct).max()):
        i = int(np.abs(recomposed - direct).max(axis=-1).argmax())
        violations.append(Violation("external_splitting", "-Kx + g(x) != b(x)",
                                    (tuple(x[i]),), float(err), 0.0))

    # Lipschitz constant of g
    sep = np.linalg.norm(x - xb, axis=-1)
    good = sep > 1e-9
    gdiff = np.linalg.norm(ext.g(x) - ext.g(xb), axis=-1)
    ratio = np.where(good, gdiff / np.maximum(sep, 1e-300), 0.0)
    estimates["lip_g_observed"] = float(ratio.max())
    if ratio.max() > ext.lip_g * (1 + 1e-9) + 1e-12:
        i = int(ratio.argmax())
        violations.append(Violation("external_lip_g", "|g(x)-g(x')| > L_g |x-x'|",
                                    (tuple(x[i]), tuple(xb[i])),
                                    float(ratio.max()), ext.lip_g))

    # monotonicity of g beyond the declared radius
    inner = np.einsum("ij,ij->i", ext.g(x) - ext.g(xb), x - xb)
    far = sep >= ext.radius
    bad = far & (inner > 1e-10 * np.maximum(sep, 1.0) ** 2)
    estimates["monotonicity_excess"] = float(np.where(far, inner, -np.inf).max())
    if bad.any():
        i = int(np.where(bad, inner, -np.inf).argmax())
        violations.append(Violation("external_monotonicity",
                                    "<g(x)-g(x'), x-x'> > 0 beyond radius",
                                    (tuple(x[i]), tuple(xb[i])),
                                    float(inner[i]), 0.0))

    return _interaction_checks(spec, samples, seed, scale, violations, estimates)


def _interaction_checks(spec: ModelSpec, samples: int, seed: int, scale: float,
                        violations: list, estimates: dict) -> AssumptionReport:
    d = spec.dim
    inter = spec.interaction
    if inter.kind != "none":
        pts2 = scale * rng.normals(seed, rng.SUB_MAIN, 1, (samples, 4, d))
        a, b, ap, bp = pts2[:, 0], pts2[:, 1], pts2[:, 2], pts2[:, 3]
        num = np.linalg.norm(inter.pair_force(a, b) - inter.pair_force(ap, bp), axis=-1)
        den = np.linalg.norm(a - ap, axis=-1) + np.linalg.norm(b - bp, axis=-1)
        ratio = np.where(den > 1e-9, num / np.maximum(den, 1e-300), 0.0)
        estimates["lip_interaction_observed"] = float(ratio.max())
        if ratio.max() > inter.lip * (1 + 1e-9) + 1e-12:
            i = int(ratio.argmax())
            violations.append(Violation("interaction_lipschitz",
                                        "interaction force exceeds declared Lipschitz bound",
                                        (tuple(a[i]), tuple(b[i])),
                                        float(ratio.max()), inter.lip))
        if inter.has_split:
            zd = scale * rng.normals(seed, rng.SUB_MAIN, 2, (samples, d))
            ga = inter.split_g_eval(zd)
            gb = inter.split_g_eval(-zd)
            anti = np.abs(ga + gb).max()
            estimates["split_antisymmetry_residual"] = float(anti)
            if anti > 1e-9 * max(1.0, np.abs(ga).max()):
                violations.append(Violation("interaction_antisymmetry",
                                            "gt(-z) != -gt(z)", (), float(anti), 0.0))
            recomposed = -zd @ inter.split_matrix.T + inter.split_g_eval(zd)
            direct = inter.pair_force(a, a - zd)
            err = np.abs(recomposed - direct).max()
            estimates["split_residual"] = float(err)
            if err > 1e-9 * max(1.0, np.abs(direct).max()):
                violations.append(Violation("interaction_splitting",
                                            "-Kt z + gt(z) != b_int(x, x-z)",
                                            (), float(err), 0.0))

    return AssumptionReport(violations=tuple(violations), estimates=estimates)
