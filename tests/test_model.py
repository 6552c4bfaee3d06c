from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from kinlang.dynamics import BlowUpError, IntegratorConfig, simulate
from kinlang import model
from kinlang.model import (ExternalForce, InteractionForce, ModelError, ModelSpec,
                           double_well_monotonicity_radius, validate_assumptions)

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
        # to separation 2*sqrt(3); the stored radius pads by one grid step
        r = double_well_monotonicity_radius()
        assert 2 * math.sqrt(3) <= r <= 2 * math.sqrt(3) + 0.02

    @pytest.mark.parametrize("step, box", [(0.01, 10.0), (0.05, 5.0), (0.013, 7.0),
                                           (0.5, 1.0), (3.0, 3.0)])
    def test_monotonicity_radius_equals_full_grid_bitwise(self, step, box):
        # reference: the whole (n, n) grid of pairs at once
        def full_grid(step, box):
            xs = np.arange(-box, box + step / 2, step)
            g = np.where(np.abs(xs) <= 2.0, -(xs ** 3 - 3.0 * xs), -xs)
            dx = xs[:, None] - xs[None, :]
            dg = g[:, None] - g[None, :]
            viol = dg * dx > 1e-12
            if not viol.any():
                return 0.0
            return float(np.abs(dx[viol]).max() + step)

        assert double_well_monotonicity_radius(step, box) == full_grid(step, box)

    def test_monotonicity_radius_cases_cover_block_edges(self):
        # the default grid of 2001 points ends in a partial block of rows,
        # and the three points of the (3.0, 3.0) grid hold no violating pair
        rows = model.RADIUS_BLOCK_ELEMENTS // 2001
        assert 1 < rows < 2001 and 2001 % rows != 0
        assert double_well_monotonicity_radius() == 3.469999999999926
        assert double_well_monotonicity_radius(3.0, 3.0) == 0.0

    def test_monotonicity_radius_memory_is_bounded(self):
        # the full (2001, 2001) grid of pairs took about 100 MB
        tracemalloc.start()
        try:
            double_well_monotonicity_radius()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_splitting_recomposes(self):
        spec = dw(beta=0.7, dim=2)
        x = np.random.default_rng(3).normal(size=(256, 2)) * 3
        recomposed = -x @ spec.external.matrix_k.T + spec.external.g(x)
        assert np.allclose(recomposed, spec.external.force(x), atol=1e-12)

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
        inter = InteractionForce.mollified_coulomb(2.0, p=2.0, q=0.7)
        spec = dw(inter=inter)
        report = validate_assumptions(spec, samples=4000, seed=8)
        assert report.ok, report.violations


class TestValidateAssumptions:
    def test_double_well_not_falsified(self):
        report = validate_assumptions(dw(), samples=5000, seed=1)
        assert report.ok
        assert report.estimates["lip_g_observed"] <= 9.0 + 1e-9

    def test_quadratic_not_falsified(self):
        spec = ModelSpec(external=ExternalForce.quadratic(np.eye(2)),
                         interaction=InteractionForce.none(), gamma=2.0, u=1.0, dim=2)
        assert validate_assumptions(spec, samples=2000, seed=2).ok

    def test_understated_interaction_lipschitz_is_caught(self):
        lying = InteractionForce(kind="linear", lip=1.0, params={"k": 2.0})
        spec = dw(inter=lying)
        report = validate_assumptions(spec, samples=500, seed=3)
        assert not report.ok
        assert any(v.check == "interaction_lipschitz" for v in report.violations)
        bad = [v for v in report.violations if v.check == "interaction_lipschitz"][0]
        assert bad.observed > bad.declared

    def test_understated_radius_is_caught(self):
        ext = ExternalForce(kind="double_well", dim=1, matrix_k=np.array([[2.0]]),
                            kappa=2.0, lip_k=2.0, lip_g=9.0, radius=0.5,
                            params={"beta": 1.0})
        spec = ModelSpec(external=ext, interaction=InteractionForce.none(),
                         gamma=10.0, u=1.0, dim=1)
        report = validate_assumptions(spec, samples=5000, seed=4)
        assert any(v.check == "external_monotonicity" for v in report.violations)

    def test_rejects_zero_samples(self):
        with pytest.raises(ModelError):
            validate_assumptions(dw(), samples=0)

    def test_antisymmetry_checked_for_split(self):
        spec = ModelSpec(external=ExternalForce.zero(1),
                         interaction=InteractionForce.linear_difference(1.5, dim=1),
                         gamma=2.0, u=1.0, dim=1)
        assert validate_assumptions(spec, samples=1000, seed=5).ok


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
