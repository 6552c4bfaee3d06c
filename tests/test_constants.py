from __future__ import annotations

import math

import numpy as np
import pytest

from kinlang.constants import ConstantsError, derive_constants
from kinlang.model import ExternalForce, InteractionForce, ModelSpec
from kinlang import profile
from kinlang.profile import _logsumexp_rows, build_profile
from oracles import grid_glue_offset, grid_small_cutoff, one_shot_profile_tables


def spec_of(kappa, lip_k, lip_g, radius, gamma, u, dim=1, inter=None):
    eigs = np.linspace(kappa, lip_k, dim) if dim > 1 else np.array([kappa])
    ext = ExternalForce.custom(force=lambda x: -x, k_matrix=np.diag(eigs),
                               lip_g=lip_g, radius=radius, dim=dim)
    return ModelSpec(external=ext, interaction=inter or InteractionForce.none(),
                     gamma=gamma, u=u, dim=dim)


class TestScalarConstants:
    def test_quadratic_reference_values(self, quad_constants):
        assert quad_constants.lam == pytest.approx(0.125)
        assert quad_constants.c_strong == pytest.approx(0.25)

    def test_double_well_reference_values(self, dw_constants):
        mc = dw_constants
        assert mc.tau == pytest.approx(0.0019, rel=1e-12)
        assert mc.alpha == pytest.approx(0.22, rel=1e-12)
        assert mc.eps == pytest.approx(0.11, rel=1e-12)
        assert mc.ratio_floor == pytest.approx(0.22727272727, rel=1e-9)
        # region radius: (8 u + lip_g u R^2) / (tau gamma^2)
        r = 3.47
        assert mc.radius_sq == pytest.approx((8 + 9 * r ** 2) / (0.0019 * 100), rel=1e-6)

    def test_rate_formulas_reduce_at_r0(self):
        mc = derive_constants(spec_of(1.0, 1.0, 0.2, 0.0, gamma=2.0, u=1.0))
        g, kap, lg, u = 2.0, 1.0, 0.2, 1.0
        assert mc.c_classical == pytest.approx(
            min(g / 16, kap / (4 * g) - 8 * lg ** 2 * u ** 2 / g ** 3))
        assert mc.c_nonlinear == pytest.approx(
            min(g / 32, kap * u / (8 * g) - 0.5 * lg ** 2 * u ** 2 / g ** 3))
        assert mc.c_chaos == mc.c_nonlinear

    def test_strong_equivalence_constant(self, quad_constants):
        # sqrt(max(u L_K + gamma^2, 3/2) * max(1/(u kappa), 2))
        assert quad_constants.m_strong == pytest.approx(math.sqrt(5.0 * 2.0))

    def test_unconfined_constants(self, unconfined_constants):
        mc = unconfined_constants
        assert mc.sigma == pytest.approx(min(0.125, 0.5 * 1.0 / 4.0))
        assert mc.c_unconfined == pytest.approx(min(2.0 / 16.0, 1.0 / 8.0))
        assert mc.m4 == pytest.approx(2.0 * max(math.sqrt(2.0), 2.0))

    def test_admissibility_margin_grows_with_friction(self):
        # the dimensionless margin tau * gamma^2 never decreases in gamma,
        # and admissibility itself is monotone
        taus = []
        for g in np.linspace(4.5, 40.0, 24):
            mc = derive_constants(spec_of(1.0, 1.0, 3.0, 1.0, gamma=g, u=1.0))
            assert mc.friction_ok
            taus.append(mc.tau * g ** 2)
        assert np.all(np.diff(taus) >= -1e-12)

    def test_double_well_friction_threshold(self):
        # the admissibility boundary of the well-depth-1 double well sits
        # exactly at gamma = 9 (sqrt(2 lip_g^2 u / kappa) with 9/2 splitting)
        from kinlang.model import ExternalForce as EF
        spec = ModelSpec(external=EF.double_well(1.0, dim=1),
                         interaction=InteractionForce.none(), gamma=10.0, u=1.0, dim=1)
        assert derive_constants(spec).min_gamma == pytest.approx(9.0)
        near = ModelSpec(external=EF.double_well(1.0, dim=1),
                         interaction=InteractionForce.none(), gamma=8.9, u=1.0, dim=1)
        assert not derive_constants(near).friction_ok

    def test_friction_diagnostic(self):
        mc = derive_constants(spec_of(1.0, 1.0, 3.0, 1.0, gamma=2.0, u=1.0))
        assert not mc.friction_ok
        assert mc.min_gamma == pytest.approx(math.sqrt(2 * 9.0))
        assert any("friction too small" in d for d in mc.diagnostics)
        assert math.isnan(mc.small_cutoff)
        # well-defined pieces are still there
        assert mc.alpha == pytest.approx(2 * 4.0 / 4.0)

    def test_interaction_diagnostic(self):
        strong = InteractionForce.linear(5.0)
        mc = derive_constants(spec_of(1.0, 1.0, 0.0, 0.0, gamma=2.0, u=1.0, inter=strong))
        assert mc.interaction_ok is False
        assert any("interaction too strong" in d for d in mc.diagnostics)
        weak = InteractionForce.linear(mc.max_interaction_lip / 2)
        mc2 = derive_constants(spec_of(1.0, 1.0, 0.0, 0.0, gamma=2.0, u=1.0, inter=weak))
        assert mc2.interaction_ok is True


class TestDegenerateChain:
    def test_r0_collapses_everything(self):
        mc = derive_constants(spec_of(1.0, 2.0, 0.5, 0.0, gamma=3.0, u=1.0))
        assert mc.radius_sq == 0.0
        assert mc.glue_offset == 0.0
        assert mc.small_cutoff == 0.0
        assert mc.big_lambda == 0.0
        assert mc.profile.is_identity
        r = np.linspace(0, 5, 23)
        assert np.array_equal(mc.profile.value(r), r)
        assert np.array_equal(mc.profile.slope(r), np.ones_like(r))


class TestSuprema:
    def test_glue_offset_against_grid_1d(self, dw_spec, dw_constants):
        mc = dw_constants
        gval, gerr = grid_glue_offset(dw_spec, mc.tau, mc.alpha, mc.eps, mc.radius_sq)
        assert mc.glue_offset >= gval - 1e-9
        assert mc.glue_offset <= gval + gerr + 1e-9

    def test_small_cutoff_against_grid_1d(self, dw_spec, dw_constants):
        mc = dw_constants
        gval, gerr = grid_small_cutoff(dw_spec, mc.tau, mc.alpha, mc.eps, mc.glue_offset)
        assert mc.small_cutoff >= gval - 1e-9
        assert mc.small_cutoff <= gval + gerr + 1e-9

    def test_glue_offset_against_grid_2d(self):
        spec = spec_of(0.8, 1.6, 0.5, 1.0, gamma=3.0, u=1.0, dim=2)
        mc = derive_constants(spec)
        gval, gerr = grid_glue_offset(spec, mc.tau, mc.alpha, mc.eps, mc.radius_sq,
                                      points=51 ** 2)
        assert mc.glue_offset >= gval - 1e-9
        assert mc.glue_offset <= gval + gerr + 1e-9

    def test_paper_bound_on_glue_offset(self, dw_constants):
        mc = dw_constants
        assert mc.glue_offset <= (1 / mc.ratio_floor - 2 * mc.eps) * math.sqrt(mc.radius_sq)

    def test_cutoff_brackets(self, dw_constants):
        mc = dw_constants
        root = math.sqrt(mc.radius_sq)
        assert 2 * mc.eps * root <= mc.small_cutoff <= 2 * (1 / mc.ratio_floor - 2 * mc.eps) * root

    def test_random_specs_land_in_brackets(self):
        gen = np.random.default_rng(99)
        for _ in range(40):
            kap = float(np.exp(gen.uniform(np.log(0.05), np.log(5))))
            lk = kap * float(gen.uniform(1.0, 3.0))
            lg = float(np.exp(gen.uniform(np.log(0.01), np.log(2))))
            u = float(np.exp(gen.uniform(np.log(0.3), np.log(3))))
            radius = float(gen.uniform(0.1, 3.0))
            gamma = math.sqrt(2 * lg * lg * u / kap) * float(gen.uniform(1.1, 6.0))
            d = int(gen.integers(1, 4))
            mc = derive_constants(spec_of(kap, lk, lg, radius, gamma, u, dim=d))
            root = math.sqrt(mc.radius_sq)
            lo = (2 / 3) * min(1.0, mc.alpha) * root
            hi = 4 * max(math.sqrt(8) * (lk + lg) * u / (gamma * math.sqrt(kap)), 1) * root
            assert lo <= mc.small_cutoff <= hi


class TestProfile:
    def test_psi_range_and_endpoints(self, dw_constants):
        prof = dw_constants.profile
        s = np.linspace(0, prof.cutoff * 1.5, 1000)
        psi = prof.psi(s)
        assert np.all(psi >= 0.5 - 1e-12) and np.all(psi <= 1.0 + 1e-12)
        assert prof.psi(0.0) == pytest.approx(1.0)
        assert prof.psi(prof.cutoff) == pytest.approx(0.5, abs=1e-9)

    def test_f_sandwich(self, mild_constants):
        prof = mild_constants.profile
        r = np.linspace(0, 2 * prof.cutoff, 500)[1:]
        f = prof.value(r)
        big = prof.big_phi(r)
        assert np.all(f <= big + 1e-12)
        assert np.all(big <= r + 1e-12)
        assert np.all(f >= 0.5 * big - 1e-12)
        assert np.all(prof.slope_at_cutoff * r <= f + 1e-12)

    def test_f_concave_increasing(self, mild_constants):
        prof = mild_constants.profile
        r = np.linspace(0, 1.5 * prof.cutoff, 2000)
        f = prof.value(r)
        assert np.all(np.diff(f) >= 0)
        second = np.diff(f, 2)
        assert np.all(second <= 1e-12)

    def test_linear_beyond_cutoff(self, mild_constants):
        prof = mild_constants.profile
        c = prof.cutoff
        slope = prof.slope_at_cutoff
        assert prof.value(c + 2.0) == pytest.approx(prof.value(c) + 2.0 * slope)
        assert prof.slope(c + 5.0) == pytest.approx(slope)
        assert prof.slope_at_cutoff == pytest.approx(0.5 * prof.phi(c))

    def test_decay_rate_against_trapezoid_oracle(self, mild_constants):
        # Richardson-extrapolated trapezoid of big_phi/phi at two resolutions
        prof = mild_constants.profile
        cut = prof.cutoff

        def trap(n):
            s = np.linspace(0, cut, n + 1)
            g = prof.big_phi(s) / prof.phi(s)
            return np.trapezoid(g, s)

        coarse, fine = trap(20000), trap(40000)
        integral = (4 * fine - coarse) / 3
        oracle = prof.u / (prof.gamma * integral)
        assert prof.chat == pytest.approx(oracle, rel=1e-6)

    def test_identity_profile(self):
        prof = build_profile(0.0, 1.0, 2.0, 1.0)
        assert prof.is_identity
        r = np.linspace(0, 3, 7)
        assert np.array_equal(prof.value(r), r)
        assert prof.chat == np.inf

    def test_stiff_profile_is_finite_and_monotone(self, dw_constants):
        prof = dw_constants.profile
        assert np.all(np.isfinite(prof.f_knots))
        assert np.all(np.diff(prof.f_knots) >= 0)
        assert prof.chat == 0.0  # underflows for this configuration
        assert prof.log_inner_total > 700  # the log-space value stays usable

    def test_row_logsumexp_matches_scipy_bitwise(self):
        from scipy.special import logsumexp
        gen = np.random.default_rng(11)
        a = gen.normal(size=(60, 10)) * 300.0
        a[5] = np.round(a[5] / 300.0)              # ties at the row maximum
        a[6] = -np.inf                              # empty row
        a[7, gen.random(10) < 0.5] = -np.inf
        a[8, 3] = np.inf
        a[9, 2] = np.nan
        with np.errstate(all="ignore"):
            want = logsumexp(a, axis=1)
        got = _logsumexp_rows(a)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)


    @pytest.mark.parametrize("block", [profile.BLOCK_PANELS, 300, 1, profile.N_PANELS])
    def test_blocked_tables_match_the_one_shot_build_bitwise(self, dw_constants,
                                                              mild_constants,
                                                              monkeypatch, block):
        # the default block, one that leaves a partial last block, single
        # panels and all panels at once give the same bits
        monkeypatch.setattr(profile, "BLOCK_PANELS", block)
        for prof in (dw_constants.profile, mild_constants.profile):
            built = build_profile(prof.cutoff, prof.curvature, prof.gamma, prof.u)
            knots, log_inner, psi, f = one_shot_profile_tables(prof.cutoff, prof.curvature)
            assert np.array_equal(built.knots, knots)
            assert np.array_equal(built.psi_knots, psi)
            assert np.array_equal(built.f_knots, f)
            assert built.log_inner_total == log_inner[-1]
            assert built.chat == prof.u / prof.gamma * float(np.exp(-log_inner[-1]))


class TestAscent:
    def test_log_ratio_gradient_matches_finite_differences(self):
        from kinlang.constants import _ascent_terms
        from kinlang.metrics import small_norm, twisted_norm
        spec = ModelSpec(external=ExternalForce.quadratic(np.array([[2.0, 0.4], [0.4, 0.7]])),
                         interaction=InteractionForce.none(), gamma=3.0, u=0.8, dim=2)
        mc = derive_constants(spec)
        gen = np.random.default_rng(4)
        z, w = gen.normal(size=(6, 2)), gen.normal(size=(6, 2))
        rl, rs, gz, gw = _ascent_terms(z, w, spec, mc.tau, mc.alpha)
        k = spec.external.matrix_k

        def log_ratio(z, w):
            return np.log(small_norm(z, w, mc.alpha, spec.gamma)
                          / twisted_norm(z, w, k, mc.tau, spec.gamma, spec.u))

        assert np.array_equal(rl[:, 0], twisted_norm(z, w, k, mc.tau, spec.gamma, spec.u))
        assert np.array_equal(rs[:, 0], small_norm(z, w, mc.alpha, spec.gamma))
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            dz = (log_ratio(z + e, w) - log_ratio(z - e, w)) / (2 * h)
            dw = (log_ratio(z, w + e) - log_ratio(z, w - e)) / (2 * h)
            assert np.allclose(gz[:, i], dz, rtol=1e-6, atol=1e-8)
            assert np.allclose(gw[:, i], dw, rtol=1e-6, atol=1e-8)


class TestHardFailure:
    def test_cutoff_outside_bracket_raises(self, dw_spec, dw_constants):
        from kinlang.constants import _max_norm_ratios, compute_small_cutoff
        mc = dw_constants
        ratios = _max_norm_ratios(dw_spec, mc.tau, mc.alpha)
        with pytest.raises(ConstantsError):
            compute_small_cutoff(mc.eps, mc.ratio_floor, radius_sq=1e-6,
                                 glue_offset=mc.glue_offset, ratios=ratios)
