from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from kinlang import rng
from kinlang.dynamics import Trajectory
from kinlang.metrics import GroundMetric, ell1_norm
from kinlang.transport import (BLOCK_ELEMENTS, EmpiricalMeasure, TransportError,
                               cost_matrix, cost_matrix_zw, distance_curve,
                               identity_pairing_cost, wasserstein_1d_sorted,
                               wasserstein_exact, wasserstein_from_costs)


def euclid(a, b):
    return float(np.linalg.norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


class TestExactSolver:
    def test_same_points_zero(self):
        pts = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
        assert wasserstein_exact(euclid, pts, pts) == pytest.approx(0.0)

    def test_two_singletons(self):
        a = [np.array([0.0, 0.0])]
        b = [np.array([3.0, 4.0])]
        assert wasserstein_exact(euclid, a, b) == pytest.approx(5.0)

    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_brute_force_permutations(self, p):
        gen = np.random.default_rng(0)
        a = [gen.normal(size=2) for _ in range(3)]
        b = [gen.normal(size=2) for _ in range(3)]
        costs = cost_matrix(euclid, a, b)
        brute = min(np.mean([costs[i, pi[i]] ** p for i in range(3)])
                    for pi in itertools.permutations(range(3)))
        assert wasserstein_exact(euclid, a, b, p) == pytest.approx(brute ** (1 / p))

    def test_permutation_invariance(self):
        gen = np.random.default_rng(1)
        a = [gen.normal(size=1) for _ in range(16)]
        b = [gen.normal(size=1) for _ in range(16)]
        w = wasserstein_exact(euclid, a, b)
        perm = gen.permutation(16)
        assert wasserstein_exact(euclid, [a[i] for i in perm], b) == pytest.approx(w)

    def test_size_mismatch_rejected(self):
        with pytest.raises(TransportError):
            wasserstein_exact(euclid, [np.zeros(1)], [np.zeros(1)] * 2)

    def test_cap_rejected_with_hint(self):
        pts = [np.zeros(1)] * 2049
        with pytest.raises(TransportError, match="subsample"):
            wasserstein_exact(euclid, pts, pts)

    def test_upper_bound_identity_pairing(self):
        gen = np.random.default_rng(2)
        a = [gen.normal(size=2) for _ in range(32)]
        b = [gen.normal(size=2) for _ in range(32)]
        assert wasserstein_exact(euclid, a, b) <= identity_pairing_cost(euclid, a, b) + 1e-12

    def test_triangle_inequality_small_measures(self):
        gen = np.random.default_rng(3)
        size = 8
        mk = lambda: EmpiricalMeasure(tuple(gen.normal(size=2) for _ in range(size)))
        for _ in range(20):
            a, b, c = mk(), mk(), mk()
            wab = wasserstein_exact(euclid, a, b)
            wbc = wasserstein_exact(euclid, b, c)
            wac = wasserstein_exact(euclid, a, c)
            assert wac <= wab + wbc + 1e-12

    def test_ground_metric_cost(self, dw_spec, dw_constants):
        m = GroundMetric.from_constants(dw_spec, dw_constants, "rho")
        gen = np.random.default_rng(4)
        a = [(gen.normal(size=1), gen.normal(size=1)) for _ in range(8)]
        b = [(gen.normal(size=1), gen.normal(size=1)) for _ in range(8)]
        dist = lambda pa, pb: float(m.dist(pa, pb))
        w = wasserstein_exact(dist, a, b)
        assert w >= 0
        assert wasserstein_exact(dist, a, a) == pytest.approx(0.0, abs=1e-14)


def slot_ell1(z, w):
    """The chaos sweep's replica-pair cost: mean over slots of |dx| + |dy|."""
    return ell1_norm(z, w).mean(axis=-1)


class TestBlockedCosts:
    @staticmethod
    def supports(seed, shape, scale=1.0):
        gen = np.random.default_rng(seed)
        return tuple(scale * gen.normal(size=shape) for _ in range(4))

    @pytest.mark.parametrize("d", [1, 2])
    def test_slot_costs_match_full_broadcast(self, d):
        r, n = 100, 50
        assert r % (BLOCK_ELEMENTS // (r * n * d)) != 0  # a ragged last block
        ax, ay, bx, by = self.supports(10 + d, (r, n, d))
        full = slot_ell1(ax[:, None] - bx[None], ay[:, None] - by[None])
        assert np.array_equal(cost_matrix_zw(slot_ell1, ax, ay, bx, by), full)

    @pytest.mark.parametrize("d", [1, 2])
    def test_metric_costs_match_full_broadcast(self, dw_spec, dw_constants, d):
        mc = dw_constants
        k = np.eye(1) if d == 1 else np.array([[1.0, 0.3], [0.3, 2.0]])
        m = GroundMetric.glued(k, mc.tau, mc.alpha, mc.eps, mc.glue_offset,
                               mc.profile, dw_spec.gamma, dw_spec.u)
        r = 300
        assert r % (BLOCK_ELEMENTS // (r * d)) != 0
        # wide enough that some pairs pass the glue offset
        ax, ay, bx, by = self.supports(20 + d, (r, d), scale=20.0)
        full = m.dist_zw(ax[:, None] - bx[None], ay[:, None] - by[None])
        assert np.array_equal(cost_matrix_zw(m.dist_zw, ax, ay, bx, by), full)

    def test_peak_memory_is_bounded(self):
        r, n = 256, 128
        ax, ay, bx, by = self.supports(30, (r, n, 1))
        tracemalloc.start()
        try:
            costs = cost_matrix_zw(slot_ell1, ax, ay, bx, by)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert costs.shape == (r, r)
        # a full (R, R, N, d) broadcast holds 67 MB in each temporary
        assert peak < 16e6


class TestSorted1d:
    def test_identical_zero(self):
        a = np.array([3.0, 1.0, 2.0])
        assert wasserstein_1d_sorted(a, a) == pytest.approx(0.0)

    def test_shift_by_one(self):
        assert wasserstein_1d_sorted(np.array([0.0, 1.0]),
                                     np.array([1.0, 2.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_assignment_solver(self, p):
        gen = np.random.default_rng(5)
        a = gen.normal(size=64)
        b = gen.normal(size=64) + 0.5
        exact = wasserstein_exact(lambda x, y: abs(float(x) - float(y)),
                                  list(a), list(b), p)
        assert wasserstein_1d_sorted(a, b, p) == pytest.approx(exact, abs=1e-10)

    def test_rejects_vector_input(self):
        with pytest.raises(TransportError):
            wasserstein_1d_sorted(np.zeros((3, 2)), np.zeros((3, 2)))


class TestDistanceCurve:
    def mk_traj(self, xs, ys, times):
        return Trajectory(times=np.asarray(times, dtype=float),
                          x=np.asarray(xs, dtype=float), y=np.asarray(ys, dtype=float))

    def test_same_run_identically_zero(self):
        gen = np.random.default_rng(6)
        x = gen.normal(size=(3, 16, 1))
        y = gen.normal(size=(3, 16, 1))
        run = self.mk_traj(x, y, [0.0, 1.0, 2.0])
        dist = lambda a, b: euclid(np.concatenate(a), np.concatenate(b))
        curve = distance_curve(run, run, dist)
        assert np.allclose(curve.w, 0.0)

    def test_misaligned_times_rejected(self):
        gen = np.random.default_rng(7)
        x = gen.normal(size=(2, 4, 1))
        y = gen.normal(size=(2, 4, 1))
        a = self.mk_traj(x, y, [0.0, 1.0])
        b = self.mk_traj(x, y, [0.0, 1.5])
        dist = lambda p, q: euclid(np.concatenate(p), np.concatenate(q))
        with pytest.raises(TransportError):
            distance_curve(a, b, dist)

    def test_deterministic_diracs_decay_exactly(self, quad_spec, quad_constants):
        # two synchronous Dirac trajectories: the Wasserstein curve under the
        # strong metric is exactly the deterministic distance decay
        from kinlang.coupling import CouplingControl, pair_state, simulate_coupled
        from kinlang.dynamics import IntegratorConfig
        mc = quad_constants
        control = CouplingControl(mode="synchronous", xi=1e-3)
        cfg = IntegratorConfig(step=0.01, horizon=2.0, seed=16)
        traj = simulate_coupled(quad_spec, pair_state(
            quad_spec, (np.array([1.0]), np.array([0.0])),
            (np.array([0.0]), np.array([0.0]))), control, cfg, mc,
            dump_times=np.linspace(0, 2, 5), law="none")
        m = GroundMetric.from_constants(quad_spec, mc, "r_strong")
        run_a = self.mk_traj(traj.ax, traj.ay, traj.times)
        run_b = self.mk_traj(traj.bx, traj.by, traj.times)
        dist = lambda a, b: float(m.dist(a, b))
        curve = distance_curve(run_a, run_b, dist, n_boot=10)
        direct = traj.distance_series(m)[:, 0]
        assert np.allclose(curve.w, direct, atol=1e-12)
        # single-atom supports: the bootstrap spread collapses
        assert np.allclose(curve.w_se, 0.0)

    def test_curve_bounded_by_mean_pair_cost(self, dw_spec, dw_constants):
        gen = np.random.default_rng(8)
        x = gen.normal(size=(2, 24, 1))
        y = gen.normal(size=(2, 24, 1))
        run_a = self.mk_traj(x, y, [0.0, 1.0])
        run_b = self.mk_traj(x + 0.5, y - 0.2, [0.0, 1.0])
        m = GroundMetric.from_constants(dw_spec, dw_constants, "rho")
        dist = lambda a, b: float(m.dist(a, b))
        curve = distance_curve(run_a, run_b, dist, n_boot=25)
        for k in range(2):
            a = [(x[k, i], y[k, i]) for i in range(24)]
            b = [(x[k, i] + 0.5, y[k, i] - 0.2) for i in range(24)]
            assert curve.w[k] <= identity_pairing_cost(dist, a, b) + 1e-12
        assert np.all(curve.w_se >= 0)

    def test_bootstrap_keys_follow_the_dump_index(self):
        gen = np.random.default_rng(9)
        x = gen.normal(size=(3, 12, 1))
        y = gen.normal(size=(3, 12, 1))
        run_a = self.mk_traj(x, y, [0.0, 1.0, 2.0])
        run_b = self.mk_traj(x + 0.3, 0.5 * y, [0.0, 1.0, 2.0])
        dist = lambda a, b: euclid(np.concatenate(a), np.concatenate(b))
        n_boot, seed = 25, 4
        curve = distance_curve(run_a, run_b, dist, times=[1.0, 2.0],
                               n_boot=n_boot, seed=seed)
        for j, k in enumerate([1, 2]):
            a = [(x[k, i], y[k, i]) for i in range(12)]
            b = [(x[k, i] + 0.3, 0.5 * y[k, i]) for i in range(12)]
            costs = cost_matrix(dist, a, b)
            boots = np.empty(n_boot)
            for r in range(n_boot):
                ia = rng.integers(seed, rng.SUB_BOOTSTRAP, 2 * (k * n_boot + r), 0, 12, (12,))
                ib = rng.integers(seed, rng.SUB_BOOTSTRAP, 2 * (k * n_boot + r) + 1, 0, 12,
                                  (12,))
                boots[r] = wasserstein_from_costs(costs[np.ix_(ia, ib)])
            assert curve.w_se[j] == float(np.std(boots, ddof=1))
