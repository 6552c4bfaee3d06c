from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from kinlang import rng
from kinlang.metrics import GroundMetric
from kinlang.harness.experiments import _slot_ell1_cost
from kinlang.transport import (BLOCK_ELEMENTS, SIZE_CAP, TransportError, bootstrap_se,
                               cost_matrix_zw, wasserstein_from_costs)
from oracles import coupled_trajectory, ell1_norm, pair_state, wasserstein_1d_sorted


euclid = GroundMetric.euclidean().dist_zw


def normal_support(gen, n, d):
    """An (x, y) support of n points in d dimensions."""
    return gen.normal(size=(n, d)), gen.normal(size=(n, d))


def w1(cost_zw, a, b):
    """Exact W_1 between the supports ``a = (ax, ay)`` and ``b = (bx, by)``
    under the difference-form cost ``cost_zw``."""
    return wasserstein_from_costs(cost_matrix_zw(cost_zw, *a, *b))


def per_point_costs(dist_fn, a, b):
    """Reference: the per-point double loop over (x, y) points that the
    blocked builder replaced."""
    out = np.empty((len(a[0]), len(b[0])))
    for i in range(len(a[0])):
        for j in range(len(b[0])):
            out[i, j] = dist_fn((a[0][i], a[1][i]), (b[0][j], b[1][j]))
    return out


class TestExactSolver:
    def test_same_points_zero(self):
        pts = (np.array([[0.0], [1.0], [2.0]]), np.zeros((3, 1)))
        assert w1(euclid, pts, pts) == pytest.approx(0.0)

    def test_two_singletons(self):
        a = (np.array([[0.0, 0.0]]), np.zeros((1, 2)))
        b = (np.array([[3.0, 4.0]]), np.zeros((1, 2)))
        assert w1(euclid, a, b) == pytest.approx(5.0)

    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_brute_force_permutations(self, dw_spec, dw_constants, p):
        m = GroundMetric.from_constants(dw_spec, dw_constants, "rho")
        gen = np.random.default_rng(0)
        a, b = normal_support(gen, 4, 1), normal_support(gen, 4, 1)
        costs = per_point_costs(lambda pa, pb: float(m.dist(pa, pb)), a, b)
        brute = min(np.mean([costs[i, pi[i]] ** p for i in range(4)])
                    for pi in itertools.permutations(range(4)))
        # W_p is W_1 on the p-th powers of the costs, to the power 1/p
        w = wasserstein_from_costs(cost_matrix_zw(m.dist_zw, *a, *b) ** p) ** (1 / p)
        assert w == pytest.approx(brute ** (1 / p))

    def test_permutation_invariance(self):
        gen = np.random.default_rng(1)
        a, b = normal_support(gen, 16, 1), normal_support(gen, 16, 1)
        w = w1(euclid, a, b)
        perm = gen.permutation(16)
        assert w1(euclid, (a[0][perm], a[1][perm]), b) == pytest.approx(w)

    def test_size_mismatch_rejected(self):
        with pytest.raises(TransportError):
            w1(euclid, (np.zeros((1, 1)), np.zeros((1, 1))),
               (np.zeros((2, 1)), np.zeros((2, 1))))

    def test_cap_rejected_with_hint(self):
        costs = np.broadcast_to(0.0, (SIZE_CAP + 1, SIZE_CAP + 1))
        with pytest.raises(TransportError, match="subsample"):
            wasserstein_from_costs(costs)

    def test_upper_bound_identity_pairing(self):
        gen = np.random.default_rng(2)
        a, b = normal_support(gen, 32, 2), normal_support(gen, 32, 2)
        # the index-aligned pairing is one transport plan
        identity = euclid(a[0] - b[0], a[1] - b[1]).mean()
        assert w1(euclid, a, b) <= identity + 1e-12

    def test_triangle_inequality_small_measures(self):
        gen = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = (normal_support(gen, 8, 1) for _ in range(3))
            wab = w1(euclid, a, b)
            wbc = w1(euclid, b, c)
            wac = w1(euclid, a, c)
            assert wac <= wab + wbc + 1e-12

    def test_ground_metric_cost(self, dw_spec, dw_constants):
        m = GroundMetric.from_constants(dw_spec, dw_constants, "rho")
        gen = np.random.default_rng(4)
        a, b = normal_support(gen, 8, 1), normal_support(gen, 8, 1)
        w = w1(m.dist_zw, a, b)
        assert w >= 0
        assert w1(m.dist_zw, a, a) == pytest.approx(0.0, abs=1e-14)

    @staticmethod
    def power_expression(costs, p):
        """Reference: W_p assigned on the p-th powers of the costs, which
        copies the costs even for p = 1."""
        rows, cols = linear_sum_assignment(costs ** p)
        return float(np.mean(costs[rows, cols] ** p) ** (1.0 / p))

    @pytest.mark.parametrize("p", [1, 2])
    def test_equals_the_power_expression_bitwise(self, p):
        gen = np.random.default_rng(5)
        tied = gen.integers(0, 3, size=(64, 64)).astype(float)
        tied[1::2] = tied[::2]                  # every row appears twice
        boot = gen.exponential(size=(256, 256))
        ia, ib = gen.integers(0, 256, 256), gen.integers(0, 256, 256)
        cases = [gen.random((n, n)) for n in (1, 7, 64)]
        cases += [tied, tied.T, boot[np.ix_(ia, ib)]]
        for costs in cases:
            before = costs.copy()
            # x ** 1.0 is exact, so W_1 assigns on the costs themselves
            powered = costs if p == 1 else costs ** p
            assert wasserstein_from_costs(powered) ** (1.0 / p) == \
                self.power_expression(costs, p)
            assert np.array_equal(costs, before)


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

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_the_per_point_loop(self, dw_spec, dw_constants, d):
        # bitwise in d = 1; an anisotropic K in d = 2 may sum in another order
        mc = dw_constants
        k = np.eye(1) if d == 1 else np.array([[1.0, 0.3], [0.3, 2.0]])
        m = GroundMetric.glued(k, mc.tau, mc.alpha, mc.eps, mc.glue_offset,
                               mc.profile, dw_spec.gamma, dw_spec.u)
        ax, ay, bx, by = self.supports(40 + d, (48, d), scale=20.0)
        loop = per_point_costs(lambda pa, pb: float(m.dist(pa, pb)), (ax, ay), (bx, by))
        costs = cost_matrix_zw(m.dist_zw, ax, ay, bx, by)
        if d == 1:
            assert np.array_equal(costs, loop)
        else:
            assert np.all(np.abs(costs - loop) <= 1e-15 * np.abs(loop))

    @pytest.mark.parametrize("d", [1, 2])
    def test_in_place_slot_cost_matches_the_lambda(self, d):
        # run_chaos's cost overwrites the difference buffers; it must still
        # give slot_ell1's costs on the full broadcast bit for bit
        r, n = 100, 50
        assert r % (BLOCK_ELEMENTS // (r * n * d)) != 0  # a ragged last block
        ax, ay, bx, by = self.supports(50 + d, (r, n, d))
        full = slot_ell1(ax[:, None] - bx[None], ay[:, None] - by[None])
        got = cost_matrix_zw(_slot_ell1_cost, ax, ay, bx, by)
        assert got.tobytes() == full.tobytes()

    def test_in_place_slot_cost_keeps_no_block_temporary(self):
        r, n = 256, 128
        ax, ay, bx, by = self.supports(31, (r, n, 1))
        peaks = {}
        for name, cost in (("in_place", _slot_ell1_cost), ("lambda", slot_ell1)):
            tracemalloc.start()
            try:
                costs = cost_matrix_zw(cost, ax, ay, bx, by)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the result and the two difference buffers, plus less than half a
        # block (ufunc buffers, the per-block means)
        bound = costs.nbytes + 2 * 8 * BLOCK_ELEMENTS + 256 * 1024
        assert peaks["in_place"] <= bound < peaks["lambda"]

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
        zeros = np.zeros((64, 1))
        costs = cost_matrix_zw(lambda z, w: np.abs(z[..., 0]),
                               a[:, None], zeros, b[:, None], zeros)
        exact = wasserstein_from_costs(costs ** p) ** (1 / p)
        assert wasserstein_1d_sorted(a, b, p) == pytest.approx(exact, abs=1e-10)

    def test_rejects_vector_input(self):
        with pytest.raises(TransportError):
            wasserstein_1d_sorted(np.zeros((3, 2)), np.zeros((3, 2)))


class TestDistanceCurve:
    """W_1 and its bootstrap error at each dump of two trajectories."""

    @staticmethod
    def curve(x_a, y_a, x_b, y_b, cost_zw, n_boot, seed=0):
        """Per-dump ``(w, se)`` of (K, n, d) position and velocity dumps."""
        w, se = [], []
        for k in range(len(x_a)):
            costs = cost_matrix_zw(cost_zw, x_a[k], y_a[k], x_b[k], y_b[k])
            w.append(wasserstein_from_costs(costs))
            se.append(bootstrap_se(costs, seed, n_boot))
        return np.array(w), np.array(se)

    def test_same_run_identically_zero(self):
        gen = np.random.default_rng(6)
        x = gen.normal(size=(3, 16, 1))
        y = gen.normal(size=(3, 16, 1))
        w, se = self.curve(x, y, x, y, euclid, n_boot=20)
        assert np.allclose(w, 0.0)

    def test_deterministic_diracs_decay_exactly(self, quad_spec, quad_constants):
        # two synchronous Dirac trajectories: the Wasserstein curve under the
        # strong metric is exactly the deterministic distance decay
        from kinlang.coupling import CouplingControl
        from kinlang.dynamics import IntegratorConfig
        mc = quad_constants
        control = CouplingControl(mode="synchronous", xi=1e-3)
        cfg = IntegratorConfig(step=0.01, horizon=2.0, seed=16)
        traj = coupled_trajectory(quad_spec, pair_state(
            (np.array([1.0]), np.array([0.0])),
            (np.array([0.0]), np.array([0.0]))), control, cfg, mc,
            dump_times=np.linspace(0, 2, 5))
        m = GroundMetric.from_constants(quad_spec, mc, "r_strong")
        w, se = self.curve(traj.ax, traj.ay, traj.bx, traj.by, m.dist_zw, n_boot=10)
        direct = traj.distance_series(m)[:, 0]
        assert np.allclose(w, direct, atol=1e-12)
        # single-atom supports: the bootstrap spread collapses
        assert np.allclose(se, 0.0)

    def test_curve_bounded_by_mean_pair_cost(self, dw_spec, dw_constants):
        gen = np.random.default_rng(8)
        x = gen.normal(size=(2, 24, 1))
        y = gen.normal(size=(2, 24, 1))
        m = GroundMetric.from_constants(dw_spec, dw_constants, "rho")
        w, se = self.curve(x, y, x + 0.5, y - 0.2, m.dist_zw, n_boot=25)
        for k in range(2):
            a, b = (x[k], y[k]), (x[k] + 0.5, y[k] - 0.2)
            # the index-aligned pairing is one transport plan
            assert w[k] <= m.dist_zw(a[0] - b[0], a[1] - b[1]).mean() + 1e-12
        assert np.all(se >= 0)

    def test_bootstrap_se_matches_the_ix_gather(self):
        gen = np.random.default_rng(13)
        n, n_boot, seed = 37, 30, 8
        for costs in (gen.random((n, n)), np.round(gen.random((n, n)), 1)):
            vals = np.empty(n_boot)
            for b in range(n_boot):
                ia = rng.integers(seed, rng.SUB_BOOTSTRAP, 2 * b, 0, n, (n,))
                ib = rng.integers(seed, rng.SUB_BOOTSTRAP, 2 * b + 1, 0, n, (n,))
                vals[b] = wasserstein_from_costs(costs[np.ix_(ia, ib)])
            assert bootstrap_se(costs, seed, n_boot) == float(np.std(vals, ddof=1))
