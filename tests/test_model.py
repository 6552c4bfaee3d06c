from __future__ import annotations

import math

import numpy as np
import pytest

from kinlang.dynamics import BlowUpError, IntegratorConfig, simulate
from kinlang import model
from kinlang.model import ExternalForce, InteractionForce, ModelError, ModelSpec
from oracles import double_well_radius_full_grid, double_well_radius_scan

FD = 1e-6


def dw(beta=1.0, gamma=10.0, u=1.0, dim=1, inter=None):
    return ModelSpec(external=ExternalForce.double_well(beta, dim=dim),
                     interaction=inter or InteractionForce.none(),
                     gamma=gamma, u=u, dim=dim)


class TestExternalForce:
    def test_double_well_values(self):
        spec = dw()
        assert spec.external.force(np.array([0.0])) == pytest.approx(0.0)
        # the quartic branch has a zero of the force at |x| = 1
        assert spec.external.force(np.array([1.0])) == pytest.approx(0.0)
        # outer branch is -3 beta x
        assert spec.external.force(np.array([3.0])) == pytest.approx(-9.0)

    def test_double_well_splitting_constants(self):
        ext = ExternalForce.double_well(2.5, dim=1)
        assert ext.kappa == pytest.approx(5.0)
        assert ext.lip_k == pytest.approx(5.0)
        assert ext.lip_g == pytest.approx(22.5)

    def test_monotonicity_radius_oracle(self):
        # symmetric pairs +-a in the quartic branch violate monotonicity up
        # to separation 2*sqrt(3); the radius pads by one grid step
        assert 2 * math.sqrt(3) <= model.DW_RADIUS <= 2 * math.sqrt(3) + 0.02
        assert ExternalForce.double_well(0.3, dim=2).radius == model.DW_RADIUS

    def test_radius_constant_is_the_grid_scan_bitwise(self):
        assert model.DW_RADIUS == double_well_radius_scan()
        assert model.DW_RADIUS == double_well_radius_full_grid(0.01, 10.0)

    @pytest.mark.parametrize("step, box", [(0.01, 10.0), (0.05, 5.0), (0.013, 7.0),
                                           (0.5, 1.0), (3.0, 3.0)])
    def test_monotonicity_radius_equals_full_grid_bitwise(self, step, box):
        # the blocked scan against the whole (n, n) grid of pairs at once
        assert double_well_radius_scan(step, box) == double_well_radius_full_grid(step, box)

    def test_splitting_recomposes(self):
        # g = b + K x with K = 2 beta I is the perturbation -beta (r^2 - 3) x
        # inside |x| <= 2 and -beta x outside
        beta = 0.7
        ext = dw(beta=beta, dim=2).external
        x = np.random.default_rng(3).normal(size=(256, 2)) * 3
        r2 = np.sum(x ** 2, axis=-1, keepdims=True)
        closed = np.where(r2 <= 4.0, -beta * (r2 - 3.0) * x, -beta * x)
        assert np.allclose(ext.force(x) + x @ ext.matrix_k.T, closed, atol=1e-12)

    def test_gradient_matches_potential(self):
        for spec in (dw(beta=1.3, dim=3), dw(beta=1.0, dim=1)):
            x = np.random.default_rng(11).normal(size=(1000, spec.dim)) * 3
            force = spec.external.force(x)
            fd = np.empty_like(force)
            for j in range(spec.dim):
                e = np.zeros(spec.dim)
                e[j] = FD
                fd[:, j] = -(spec.external.potential(x + e)
                             - spec.external.potential(x - e)) / (2 * FD)
            scale = np.maximum(np.abs(force), 1.0)
            assert np.all(np.abs(force - fd) <= 1e-6 * scale)

    def test_quadratic_gradient_matches_potential(self):
        k = np.array([[2.0, 0.3], [0.3, 1.0]])
        spec = ModelSpec(external=ExternalForce.quadratic(k),
                         interaction=InteractionForce.none(), gamma=2.0, u=1.0, dim=2)
        x = np.random.default_rng(5).normal(size=(1000, 2))
        force = spec.external.force(x)
        fd = np.empty_like(force)
        for j in range(2):
            e = np.zeros(2)
            e[j] = FD
            fd[:, j] = -(spec.external.potential(x + e)
                         - spec.external.potential(x - e)) / (2 * FD)
        assert np.all(np.abs(force - fd) <= 1e-6 * np.maximum(np.abs(force), 1.0))

    def test_deterministic_and_dimension_preserving(self):
        spec = dw(dim=3)
        x = np.random.default_rng(0).normal(size=(17, 3))
        a = spec.external.force(x)
        b = spec.external.force(x)
        assert a.shape == x.shape
        assert np.array_equal(a, b)

    def test_nonfinite_positions_stop_the_run(self):
        # the outer branch -3 x overflows at x = 1e308, so state 1 has
        # infinite positions; the test at the horizon finds them and the
        # replay reports a blow-up at state 1, not at the horizon
        cfg = IntegratorConfig(step=0.01, horizon=1.0)
        with pytest.raises(BlowUpError) as err:
            simulate(dw(), np.array([[1e308]]), np.zeros((1, 1)), cfg)
        assert err.value.t == 0.01

    @pytest.mark.parametrize("k", [[[1.0, 0.4], [0.4, 2.5]], [[1.0, 0.0], [0.0, 2.5]],
                                   [[3.0, -0.7], [-0.7, 0.5]]])
    def test_quadratic_force_is_the_negated_product_bitwise(self, k):
        # x @ (-K)^T against (-x) @ K^T, signed zeros included
        ext = ExternalForce.quadratic(np.array(k))
        gen = np.random.default_rng(11)
        for shape in [(1, 2), (9, 2), (2, 64, 2), (2, 16, 5, 2)]:
            x = gen.normal(size=shape) * 10.0 ** gen.integers(-5, 5, size=shape)
            x.flat[::5] = 0.0
            x.flat[2::7] = -0.0
            for view in (x, x[..., ::-1]):
                assert ext.force(view).tobytes() == ((-view) @ ext.matrix_k.T).tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_double_well_force_matches_the_two_branch_form(self, dim):
        beta = 1.3
        gen = np.random.default_rng(12)
        x = gen.normal(size=(200, dim)) * 2.0
        on_sphere = np.zeros((4, dim))
        on_sphere[:, 0] = [2.0, -2.0, 2.0, -2.0]
        x = np.concatenate([x, on_sphere, np.full((1, dim), -0.0), np.zeros((1, dim))])
        r2 = np.sum(x ** 2, axis=-1, keepdims=True)
        assert (r2 < 4).any() and (r2 == 4).sum() == 4 and (r2 > 4).any()
        old = np.where(r2 <= 4.0, -beta * (r2 - 1.0) * x, -3.0 * beta * x)
        assert model.double_well_force(x, beta).tobytes() == old.tobytes()

    def test_rejects_bad_k(self):
        with pytest.raises(ModelError):
            ExternalForce.quadratic(np.array([[0.0]]))


class TestInteractionForce:
    def test_linear(self):
        spec = dw(inter=InteractionForce.linear(0.5))
        out = spec.interaction.pair_force(np.array([7.0]), np.array([2.0]))
        assert out == pytest.approx(1.0)
        assert spec.interaction.lip == pytest.approx(0.5)

    def test_mollified_coincident_is_zero(self):
        inter = InteractionForce.mollified_coulomb(1.0, p=2.0, q=1.0)
        x = np.array([0.3, -0.7, 1.1])
        assert np.allclose(inter.pair_force(x, x), 0.0)

    def test_mollified_matches_finite_differences(self):
        inter = InteractionForce.mollified_coulomb(1.0, p=2.0, q=1.0)
        x = np.array([1.0])
        y = np.array([0.0])
        fd = -(inter.potential(x + FD, y) - inter.potential(x - FD, y)) / (2 * FD)
        assert inter.pair_force(x, y)[0] == pytest.approx(float(fd), rel=1e-6)

    def test_mollified_log_matches_finite_differences(self):
        inter = InteractionForce.mollified_log(p=2.0, q=0.5)
        pts = np.random.default_rng(4).normal(size=(50, 2, 2))
        x, y = pts[:, 0], pts[:, 1]
        for j in range(2):
            e = np.zeros(2)
            e[j] = FD
            fd = -(inter.potential(x + e, y) - inter.potential(x - e, y)) / (2 * FD)
            assert np.allclose(inter.pair_force(x, y)[:, j], fd, atol=1e-5)

    def test_singular_mollifier_rejected(self):
        with pytest.raises(ModelError):
            InteractionForce.mollified_coulomb(1.0, p=2.0, q=0.0)

    def test_lipschitz_estimate_not_falsified(self):
        # the field depends on x - z alone, so its joint Lipschitz constant
        # is that of the radial field h(r) r/|r|: on a dense line of
        # differences the steepest chord is sup |h'|, and the estimate pads
        # its grid maximum by 5%
        for inter in (InteractionForce.mollified_coulomb(2.0, p=2.0, q=0.7),
                      InteractionForce.mollified_coulomb(1.0, p=3.0, q=0.5),
                      InteractionForce.mollified_log(p=2.0, q=0.5)):
            r = np.linspace(-20.0, 20.0, 400_001)[:, None]
            f = inter.pair_force(r, np.zeros_like(r))[:, 0]
            steepest = np.max(np.abs(np.diff(f)) / np.diff(r[:, 0]))
            assert steepest <= inter.lip <= 1.05 * steepest * (1 + 1e-6)
            # random pairs of pairs in d = 3, close and far
            gen = np.random.default_rng(8)
            a, b = gen.normal(size=(2, 20_000, 3)) * 5
            da, db = gen.normal(size=(2, 20_000, 3)) * np.geomspace(1e-4, 5, 20_000)[:, None]
            num = np.linalg.norm(inter.pair_force(a, b) - inter.pair_force(a + da, b + db),
                                 axis=-1)
            den = np.linalg.norm(da, axis=-1) + np.linalg.norm(db, axis=-1)
            assert np.max(num / den) <= inter.lip


class TestSplittingConstants:
    """The constants each built-in kind declares, checked on its own force:
    ``g = b + K x`` for external forces, the pair force for interactions."""

    def test_double_well_lip_g_and_radius(self):
        for beta in (0.3, 1.0, 2.5):
            ext = ExternalForce.double_well(beta, dim=1)
            # lip_g = 9 beta is sup |g'|, reached at |x| = 2 from inside
            xs = np.linspace(-10.0, 10.0, 200_001)[:, None]
            g = (ext.force(xs) + xs @ ext.matrix_k.T)[:, 0]
            slopes = np.abs(np.diff(g)) / np.diff(xs[:, 0])
            assert ext.lip_g == 9.0 * beta
            assert 0.999 * ext.lip_g <= slopes.max() <= ext.lip_g * (1 + 1e-9)
            # g is monotone across every pair separated by at least R, in
            # d = 1 and, sampled, in d = 2 and 3
            for d in (1, 2, 3):
                ext = ExternalForce.double_well(beta, dim=d)
                gen = np.random.default_rng(d)
                x, xb = gen.normal(size=(2, 50_000, d)) * 3
                sep = np.linalg.norm(x - xb, axis=-1)
                gx = ext.force(x) + x @ ext.matrix_k.T
                gb = ext.force(xb) + xb @ ext.matrix_k.T
                inner = np.einsum("ij,ij->i", gx - gb, x - xb)
                far = sep >= ext.radius
                assert far.sum() > 1000
                assert np.all(inner[far] <= 1e-10 * sep[far] ** 2)
            # and the radius is sharp: the pair +-a just inside 2 sqrt(3)
            # violates monotonicity
            a = np.array([[math.sqrt(3) - 0.01], [-(math.sqrt(3) - 0.01)]])
            ga = ExternalForce.double_well(beta).force(a) + 2.0 * beta * a
            assert (ga[0, 0] - ga[1, 0]) * (a[0, 0] - a[1, 0]) > 0

    def test_quadratic_g_vanishes(self):
        k = np.array([[2.0, 0.3], [0.3, 1.0]])
        ext = ExternalForce.quadratic(k)
        x = np.random.default_rng(2).normal(size=(2000, 2)) * 5
        assert np.all(ext.force(x) + x @ ext.matrix_k.T == 0.0)
        assert ext.lip_g == 0.0 and ext.radius == 0.0
        assert (ext.kappa, ext.lip_k) == pytest.approx(tuple(np.linalg.eigvalsh(k)))

    def test_linear_difference_split(self):
        # b_int(x, z) = -Kt (x - z): the affine split with gt = 0, and the
        # joint Lipschitz constant the largest eigenvalue of Kt, reached
        # when only x moves along its eigenvector
        kt = np.array([[1.5, 0.4], [0.4, 0.5]])
        inter = InteractionForce.linear_difference(kt)
        eigs, vecs = np.linalg.eigh(kt)
        assert inter.has_split and inter.split_g is None and inter.split_lip_g == 0.0
        assert (inter.split_kappa, inter.split_lip_k) == pytest.approx(tuple(eigs))
        assert inter.lip == pytest.approx(eigs[-1])
        gen = np.random.default_rng(5)
        x, z, dx, dz = gen.normal(size=(4, 1000, 2)) * 5
        direct = inter.pair_force(x, z)
        assert np.allclose(direct, -(x - z) @ kt.T, rtol=0, atol=1e-12)
        num = np.linalg.norm(direct - inter.pair_force(x + dx, z + dz), axis=-1)
        den = np.linalg.norm(dx, axis=-1) + np.linalg.norm(dz, axis=-1)
        assert np.max(num / den) <= inter.lip * (1 + 1e-12)
        along = np.linalg.norm(inter.pair_force(vecs[:, -1], np.zeros(2)))
        assert along == pytest.approx(inter.lip)


class TestJsonRoundTrip:
    def test_round_trip_double_well(self):
        spec = dw(beta=2.0, gamma=8.0, u=0.5, inter=InteractionForce.linear(0.1))
        back = ModelSpec.from_dict(spec.to_dict())
        assert back.gamma == spec.gamma and back.u == spec.u
        assert back.external.params["beta"] == 2.0
        assert back.interaction.params["k"] == 0.1

    def test_round_trip_quadratic_matrix(self):
        k = np.array([[2.0, 0.5], [0.5, 1.0]])
        spec = ModelSpec(external=ExternalForce.quadratic(k),
                         interaction=InteractionForce.none(), gamma=3.0, u=1.0, dim=2)
        back = ModelSpec.from_dict(spec.to_dict())
        assert np.allclose(back.external.matrix_k, k)

    def test_round_trip_mollified(self):
        spec = ModelSpec(external=ExternalForce.quadratic(np.eye(2)),
                         interaction=InteractionForce.mollified_coulomb(2.0, p=3.0, q=0.5),
                         gamma=4.0, u=1.0, dim=2)
        back = ModelSpec.from_dict(spec.to_dict())
        assert back.interaction.params == spec.interaction.params
        assert back.interaction.lip == pytest.approx(spec.interaction.lip)

    def test_round_trip_linear_difference(self):
        spec = ModelSpec(external=ExternalForce.zero(1),
                         interaction=InteractionForce.linear_difference(1.5, dim=1),
                         gamma=2.0, u=1.0, dim=1)
        back = ModelSpec.from_dict(spec.to_dict())
        assert back.interaction.has_split
        assert back.interaction.split_kappa == pytest.approx(1.5)

    def test_invalid_params_rejected(self):
        with pytest.raises(ModelError):
            ModelSpec(external=ExternalForce.double_well(1.0),
                      interaction=InteractionForce.none(), gamma=-1.0, u=1.0, dim=1)
        with pytest.raises(ModelError):
            ModelSpec(external=ExternalForce.double_well(1.0),
                      interaction=InteractionForce.none(), gamma=1.0, u=0.0, dim=1)
