from __future__ import annotations

import math

import numpy as np
import pytest

from kinlang.metrics import (GroundMetric, MetricError, project_centered, row_norm,
                             small_norm, twisted_norm)
from oracles import ell1_norm


def rand_pairs(n, d, seed=0, scale=2.0):
    g = np.random.default_rng(seed)
    return (scale * g.normal(size=(n, d)), scale * g.normal(size=(n, d)),
            scale * g.normal(size=(n, d)), scale * g.normal(size=(n, d)))


def all_metrics(spec, mc):
    kinds = ["euclidean", "r_strong", "r_l", "r_s", "rho"]
    return [GroundMetric.from_constants(spec, mc, k) for k in kinds]


class TestBasics:
    def test_identity_of_indiscernibles(self, dw_spec, dw_constants):
        x = np.array([0.4]), np.array([-1.1])
        for m in all_metrics(dw_spec, dw_constants):
            assert m.dist(x, x) == pytest.approx(0.0, abs=1e-14)

    def test_small_metric_hand_value(self):
        m = GroundMetric.small(alpha=0.22, gamma=1.0)
        got = m.dist_zw(np.array([1.0]), np.array([0.0]))
        assert got == pytest.approx(1.22)

    def test_twisted_norm_matches_expanded_form(self):
        # recompute from the raw cross-term expansion
        g, u, tau = 3.0, 0.7, 0.05
        k = np.array([[2.0, 0.3], [0.3, 1.0]])
        rng = np.random.default_rng(1)
        z, w = rng.normal(size=(50, 2)), rng.normal(size=(50, 2))
        expanded = (u / g ** 2 * np.einsum("ni,ij,nj->n", z, k, z)
                    + 0.5 * (1 - 2 * tau) ** 2 * np.sum(z * z, axis=1)
                    + (1 - 2 * tau) / g * np.sum(z * w, axis=1)
                    + np.sum(w * w, axis=1) / g ** 2)
        assert np.allclose(twisted_norm(z, w, k, tau, g, u) ** 2, expanded)

    def test_row_norm_matches_linalg_norm_bitwise(self):
        rng = np.random.default_rng(2)
        for shape in [(128, 1), (128, 3), (7, 12), (4, 5, 9)]:
            x = rng.normal(size=shape) * 10.0 ** rng.uniform(-5, 5, size=shape)
            for keepdims in (False, True):
                assert np.array_equal(row_norm(x, keepdims=keepdims),
                                      np.linalg.norm(x, axis=-1, keepdims=keepdims))

    def test_dimension_mismatch_rejected(self, dw_spec, dw_constants):
        m = GroundMetric.from_constants(dw_spec, dw_constants, "rho")
        with pytest.raises(MetricError):
            m.dist((np.zeros(1), np.zeros(1)), (np.zeros(2), np.zeros(2)))

    def test_norm_and_pair_shapes_agree(self, dw_spec, dw_constants):
        ax, ay, bx, by = rand_pairs(100, 1, seed=2)
        for m in all_metrics(dw_spec, dw_constants):
            via_pair = m.dist((ax, ay), (bx, by))
            via_diff = m.dist_zw(ax - bx, ay - by)
            assert np.allclose(via_pair, via_diff)

    def test_rho_reduces_to_twisted_norm_when_degenerate(self, quad_spec, quad_constants):
        rho = GroundMetric.from_constants(quad_spec, quad_constants, "rho")
        rl = GroundMetric.from_constants(quad_spec, quad_constants, "r_l")
        ax, ay, bx, by = rand_pairs(200, 1, seed=3)
        assert np.array_equal(rho.dist((ax, ay), (bx, by)), rl.dist((ax, ay), (bx, by)))


class TestGap:
    def test_gap_zero_at_identity(self, dw_spec, dw_constants):
        m = GroundMetric.from_constants(dw_spec, dw_constants, "rho")
        z = np.zeros((1, 1))
        assert m.delta_zw(z, z)[0] == pytest.approx(0.0, abs=1e-14)

    def test_gap_dominates_half_small_norm(self, dw_spec, dw_constants):
        m = GroundMetric.from_constants(dw_spec, dw_constants, "rho")
        ax, ay, bx, by = rand_pairs(10000, 1, seed=4)
        gap = m.delta_zw(ax - bx, ay - by)
        rs = GroundMetric.from_constants(dw_spec, dw_constants, "r_s").dist((ax, ay), (bx, by))
        assert np.all(gap >= 0.5 * rs - 1e-12)

    def test_gap_recomputed_from_raw_formulas(self, dw_spec, dw_constants):
        mc = dw_constants
        m = GroundMetric.from_constants(dw_spec, dw_constants, "rho")
        g = np.random.default_rng(5)
        z, w = g.normal(size=(64, 1)), g.normal(size=(64, 1))
        raw = (small_norm(z, w, mc.alpha, dw_spec.gamma)
               - mc.eps * twisted_norm(z, w, dw_spec.external.matrix_k, mc.tau,
                                       dw_spec.gamma, dw_spec.u))
        assert np.allclose(m.delta_zw(z, w), raw, atol=1e-13)


class TestMetricInequalities:
    def test_norm_equivalences(self, dw_spec, dw_constants):
        mc = dw_constants
        ax, ay, bx, by = rand_pairs(10000, 1, seed=6)
        rl = GroundMetric.from_constants(dw_spec, mc, "r_l").dist((ax, ay), (bx, by))
        rs = GroundMetric.from_constants(dw_spec, mc, "r_s").dist((ax, ay), (bx, by))
        assert np.all(2 * mc.eps * rl <= rs * (1 + 1e-12) + 1e-12)
        assert np.all(mc.ratio_floor * rs <= rl * (1 + 1e-12) + 1e-12)

    def test_euclidean_sandwich(self, dw_spec, dw_constants):
        mc = dw_constants
        rho = GroundMetric.from_constants(dw_spec, mc, "rho")
        euc = GroundMetric.euclidean()
        ax, ay, bx, by = rand_pairs(10000, 1, seed=7)
        r = rho.dist((ax, ay), (bx, by))
        e = euc.dist((ax, ay), (bx, by))
        assert np.all(mc.equiv_lower * e <= r + 1e-12)
        assert np.all(r <= mc.equiv_upper * e + 1e-12)

    def test_triangle_inequality_rho(self, dw_spec, dw_constants):
        rho = GroundMetric.from_constants(dw_spec, dw_constants, "rho")
        g = np.random.default_rng(8)
        a = (2 * g.normal(size=(10000, 1)), 2 * g.normal(size=(10000, 1)))
        b = (2 * g.normal(size=(10000, 1)), 2 * g.normal(size=(10000, 1)))
        c = (2 * g.normal(size=(10000, 1)), 2 * g.normal(size=(10000, 1)))
        ab, bc, ac = rho.dist(a, b), rho.dist(b, c), rho.dist(a, c)
        assert np.all(ac <= ab + bc + 1e-10)

    def test_symmetry(self, dw_spec, dw_constants):
        ax, ay, bx, by = rand_pairs(500, 1, seed=9)
        for m in all_metrics(dw_spec, dw_constants):
            assert np.allclose(m.dist((ax, ay), (bx, by)), m.dist((bx, by), (ax, ay)))

    def test_unconfined_sandwich(self, unconfined_spec, unconfined_constants):
        spec, mc = unconfined_spec, unconfined_constants
        rt = GroundMetric.from_constants(spec, mc, "r_tilde")
        ax, ay, bx, by = rand_pairs(5000, 1, seed=10)
        r2 = rt.dist((ax, ay), (bx, by)) ** 2
        e2 = (ax - bx) ** 2 + (ay - by) ** 2
        e2 = e2[:, 0]
        kt, lkt = mc_split(spec)
        g, u = spec.gamma, spec.u
        lo = min(kt * u, 0.5) / g ** 2
        hi = max(lkt * u / g ** 2 + 1, 1.5 / g ** 2)
        assert np.all(lo * e2 <= r2 + 1e-12)
        assert np.all(r2 <= hi * e2 + 1e-12)


def mc_split(spec):
    return spec.interaction.split_kappa, spec.interaction.split_lip_k


class TestEnsembles:
    def test_equal_ensembles_zero(self, dw_spec, dw_constants):
        m = GroundMetric.from_constants(dw_spec, dw_constants, "rho")
        x = np.random.default_rng(11).normal(size=(8, 1))
        y = np.random.default_rng(12).normal(size=(8, 1))
        assert np.allclose(m.dist((x, y), (x, y)), 0.0, atol=1e-14)

    def test_two_member_hand_case(self):
        # (N, d) ensembles are compared pair by pair: distances 5 and 0
        m = GroundMetric.euclidean()
        a = (np.array([[0.0], [1.0]]), np.array([[0.0], [0.0]]))
        b = (np.array([[3.0], [1.0]]), np.array([[4.0], [0.0]]))
        assert np.allclose(m.dist(a, b), [5.0, 0.0])

    def test_ell1_hand_case(self):
        z = np.array([[0.0], [1.0]]) - np.array([[1.0], [1.0]])
        w = np.array([[0.0], [2.0]]) - np.array([[0.0], [0.0]])
        assert np.mean(ell1_norm(z, w)) == pytest.approx(0.5 * (1.0 + 2.0))

    def test_glued_ensemble_sandwich_vs_ell1(self, dw_spec, dw_constants):
        mc = dw_constants
        m = GroundMetric.from_constants(dw_spec, mc, "rho")
        g = np.random.default_rng(13)
        ax, ay, bx, by = (g.normal(size=(64, 1)) for _ in range(4))
        rho_n = float(np.mean(m.dist_zw(ax - bx, ay - by)))
        l1 = float(np.mean(ell1_norm(ax - bx, ay - by)))
        assert mc.equiv_lower / math.sqrt(2) * l1 <= rho_n + 1e-12
        assert rho_n <= mc.equiv_upper / math.sqrt(2) * l1 + 1e-12


class TestProjection:
    def test_centering_hand_case(self):
        x = np.array([[1.0], [3.0]])
        y = np.zeros((2, 1))
        cx, cy = project_centered((x, y))
        assert np.allclose(cx, [[-1.0], [1.0]])

    def test_idempotent(self):
        g = np.random.default_rng(14)
        x, y = g.normal(size=(33, 2)), g.normal(size=(33, 2))
        cx, cy = project_centered((x, y))
        cx2, cy2 = project_centered((cx, cy))
        assert np.allclose(cx, cx2, atol=1e-15) and np.allclose(cy, cy2, atol=1e-15)

    def test_stacked_ensembles_center_per_replica(self):
        g = np.random.default_rng(15)
        x, y = g.normal(size=(3, 5, 2)), g.normal(size=(3, 5, 2))
        cx, cy = project_centered((x, y))
        for r in range(3):
            ex, ey = project_centered((x[r], y[r]))
            assert np.array_equal(cx[r], ex) and np.array_equal(cy[r], ey)

    def test_already_centered_unchanged(self):
        x = np.array([[1.0], [-1.0]])
        y = np.array([[0.5], [-0.5]])
        cx, cy = project_centered((x, y))
        assert np.array_equal(cx, x) and np.array_equal(cy, y)
