from __future__ import annotations

import math

import numpy as np
import pytest

import kinlang.dynamics as dyn
from kinlang.dynamics import (BlowUpError, DynamicsError, IntegratorConfig, default_step,
                              dirac_ensemble, drift, gaussian_ensemble, law_term,
                              simulate, track_moments, trajectory_to_rows)
from kinlang.model import ExternalForce, InteractionForce, ModelSpec
from oracles import expression_integrator, pair_law_term


def quad_spec(dim=1, gamma=2.0, u=1.0, kappa=1.0, inter=None):
    return ModelSpec(external=ExternalForce.quadratic(kappa * np.eye(dim)),
                     interaction=inter or InteractionForce.none(),
                     gamma=gamma, u=u, dim=dim)


def copies(state):
    """``start`` for :func:`kinlang.dynamics.march`: fresh copies of a state."""
    return lambda: tuple(a.copy() for a in state)


@pytest.fixture
def zero_noise(monkeypatch):
    real = dyn.rng.normals
    monkeypatch.setattr(dyn.rng, "normals",
                        lambda seed, sub, step, shape, out=None: np.zeros(shape))
    return real


class TestScheme:
    def test_free_flight_is_exact(self, zero_noise):
        # no force, no noise: the damped free flight has a closed form
        spec = ModelSpec(external=ExternalForce.zero(1),
                         interaction=InteractionForce.none(), gamma=1.0, u=1.0, dim=1)
        h = 0.3
        cfg = IntegratorConfig(step=h, horizon=h, scheme="ou_splitting")
        out = simulate(spec, *dirac_ensemble([0.5], [1.0]), cfg)
        assert out.y[-1, 0, 0] == pytest.approx(math.exp(-h))
        assert out.x[-1, 0, 0] == pytest.approx(0.5 + (1 - math.exp(-h)) * 1.0)

    def test_default_step(self):
        assert default_step(10.0) == pytest.approx(0.01)
        assert default_step(50.0) == pytest.approx(0.002)

    def test_stationary_variance_quadratic(self):
        # Boltzmann-Gibbs marginals: Var(X) = 1/kappa, Var(Y) = u
        spec = quad_spec(u=1.0)
        cfg = IntegratorConfig(step=0.01, horizon=30.0, seed=77)
        x, y = gaussian_ensemble(0.0, 0.0, 1.0, n=20000, dim=1, seed=1)
        traj = simulate(spec, x, y, cfg)
        assert float(np.var(traj.x[-1])) == pytest.approx(1.0, abs=0.05)
        assert float(np.var(traj.y[-1])) == pytest.approx(1.0, abs=0.05)

    def test_weak_self_convergence_order_one(self):
        # exact second-moment recursion of the actual one-step map; the
        # scheme is linear for a quadratic force, so the map is extracted
        # by probing the integrator update with basis states and basis noise
        spec = quad_spec()
        t_end = 1.0

        def moment_after(h, scheme):
            advance = dyn.integrator(h, spec.gamma, spec.u, scheme)

            def one_step(x0, y0, force, noise):
                x, y = np.array([[x0]]), np.array([[y0]])
                advance(x, y, np.array([[force]]), np.array([[noise]]))
                return [x[0, 0], y[0, 0]]

            a = np.zeros((2, 2))
            for j, (x0, y0) in enumerate(((1.0, 0.0), (0.0, 1.0))):
                a[:, j] = one_step(x0, y0, -x0, 0.0)
            gain = np.array(one_step(0.0, 0.0, 0.0, 1.0))
            m = np.array([[4.0, 0.0], [0.0, 0.0]])  # Dirac at x=2, y=0
            for _ in range(int(round(t_end / h))):
                m = a @ m @ a.T + np.outer(gain, gain)
            return m[0, 0]

        for scheme in ("ou_splitting", "euler_maruyama"):
            e1 = moment_after(0.04, scheme)
            e2 = moment_after(0.02, scheme)
            e3 = moment_after(0.01, scheme)
            ratio = abs(e1 - e2) / abs(e2 - e3)
            assert 1.6 <= ratio <= 2.5, (scheme, ratio)

    def test_determinism_bitwise(self):
        spec = quad_spec(dim=2, inter=InteractionForce.linear(0.2))
        cfg = IntegratorConfig(step=0.02, horizon=1.0, seed=123)
        x, y = gaussian_ensemble(0.0, 0.0, 1.0, n=32, dim=2, seed=5)
        t1 = simulate(spec, x, y, cfg)
        t2 = simulate(spec, x, y, cfg)
        assert np.array_equal(t1.x, t2.x) and np.array_equal(t1.y, t2.y)

    def test_seed_changes_trajectory(self):
        spec = quad_spec()
        x, y = dirac_ensemble([1.0], [0.0])
        a = simulate(spec, x, y, IntegratorConfig(step=0.02, horizon=1.0, seed=1))
        b = simulate(spec, x, y, IntegratorConfig(step=0.02, horizon=1.0, seed=2))
        assert not np.array_equal(a.x, b.x)

    def test_horizon_zero_is_identity(self):
        spec = quad_spec()
        cfg = IntegratorConfig(step=0.01, horizon=0.0)
        x, y = dirac_ensemble([1.0], [2.0])
        traj = simulate(spec, x, y, cfg, dump_times=[0.0])
        assert np.array_equal(traj.x[0], x) and np.array_equal(traj.y[0], y)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_reports_time(self):
        stiff = ModelSpec(external=ExternalForce.quadratic(np.eye(1) * 1e8),
                          interaction=InteractionForce.none(), gamma=0.1, u=1.0, dim=1)
        cfg = IntegratorConfig(step=10.0, horizon=10000.0, scheme="euler_maruyama")
        with pytest.raises(BlowUpError) as err:
            simulate(stiff, *dirac_ensemble([1.0], [0.0]), cfg)
        assert err.value.t > 0


class TestInPlaceUpdate:
    """The integrator update overwrites the state and its force buffer; it
    must give the expression form's values to the bit."""

    SHAPES = [((64, 2), (64, 2)),              # an (N, d) ensemble
              ((2, 16, 3), (16, 3)),           # coupled pairs, shared noise
              ((2, 16, 3), (2, 16, 3)),        # coupled pairs, reflected noise
              ((2, 8, 16, 1), (8, 16, 1)),     # chaos slots, shared noise
              ((2, 8, 16, 1), (2, 8, 16, 1))]  # chaos slots, reflected noise

    @pytest.mark.parametrize("scheme", ["ou_splitting", "euler_maruyama"])
    def test_matches_the_expression_form_bitwise(self, scheme):
        h, gamma, u = 0.013, 1.7, 0.9
        advance = dyn.integrator(h, gamma, u, scheme)
        reference = expression_integrator(h, gamma, u, scheme)
        gen = np.random.default_rng(17)
        # one update across every shape: its buffers follow the shape
        for shape, noise_shape in self.SHAPES:
            x, y = gen.normal(size=shape), gen.normal(size=shape)
            ref_x, ref_y = x.copy(), y.copy()
            for _ in range(3):
                force = -2.5 * x + gen.normal(size=shape)
                noise = gen.normal(size=noise_shape)
                drawn = noise.copy()
                ref_x, ref_y = reference(ref_x, ref_y, force.copy(), noise)
                advance(x, y, force, noise)
                assert x.tobytes() == ref_x.tobytes(), shape
                assert y.tobytes() == ref_y.tobytes(), shape
                assert noise.tobytes() == drawn.tobytes()


class TestCheckpointBlowUp:
    """march tests the state only at dumps and after the last step, and
    replays from the last finite checkpoint: the reported time must be the
    one a test of every state gives."""

    def stiff_run(self):
        spec = ModelSpec(external=ExternalForce.quadratic(np.eye(1) * 1e8),
                         interaction=InteractionForce.none(), gamma=0.1, u=1.0, dim=1)
        cfg = IntegratorConfig(step=10.0, horizon=10000.0, scheme="euler_maruyama",
                               seed=4)
        return spec, cfg, dirac_ensemble([1.0], [0.0])

    def test_blow_up_between_dumps(self, first_nonfinite):
        spec, cfg, state = self.stiff_run()
        k_ref, _ = first_nonfinite(dyn.system_step(spec, cfg, state[0].shape), state,
                                   cfg.n_steps)
        every = 7
        assert 0 < k_ref < cfg.n_steps and k_ref % every != 0
        dump_times = cfg.step * np.arange(0, cfg.n_steps + 1, every)
        kept = []
        with pytest.raises(BlowUpError) as err:
            dyn.march(copies(state), cfg, dyn.system_step(spec, cfg, state[0].shape),
                      lambda k, _: kept.append(k), dump_times)
        assert err.value.t == k_ref * cfg.step
        # every dump before the blow-up was kept, none after it
        assert kept == list(range(0, k_ref, every))
        with pytest.raises(BlowUpError) as err:
            simulate(spec, *state, cfg, dump_times=dump_times)
        assert err.value.t == k_ref * cfg.step

    def test_blow_up_that_starts_in_the_velocity(self, first_nonfinite):
        # under Euler-Maruyama an infinite force reaches the velocity one
        # step before the positions
        spec = ModelSpec(
            external=ExternalForce.custom(
                force=lambda x: np.where(x > 1.0, -np.inf, -1e-3 * x),
                k_matrix=np.eye(1) * 1e-3, lip_g=0.0, radius=0.0, dim=1),
            interaction=InteractionForce.none(), gamma=1e-3, u=1.0, dim=1)
        cfg = IntegratorConfig(step=0.01, horizon=2.0, scheme="euler_maruyama", seed=3)
        x, y = dirac_ensemble([0.0], [1.0], n=3)
        k_ref, bad = first_nonfinite(dyn.system_step(spec, cfg, x.shape), (x, y),
                                     cfg.n_steps)
        assert 1 < k_ref < cfg.n_steps
        assert np.isfinite(bad[0]).all() and not np.isfinite(bad[1]).all()
        for dump_times in (None, [0.5, 1.5], cfg.step * np.arange(cfg.n_steps + 1)):
            with pytest.raises(BlowUpError) as err:
                simulate(spec, x, y, cfg, dump_times=dump_times)
            assert err.value.t == k_ref * cfg.step

    def test_replay_starts_at_the_last_kept_state(self):
        # the replay steps on from the last checkpoint, not from the start
        spec, cfg, state = self.stiff_run()
        step = dyn.system_step(spec, cfg, state[0].shape)
        replayed = []

        def counting(k, arrays):
            replayed.append(k)
            return step(k, arrays)

        every = 7
        with pytest.raises(BlowUpError) as err:
            dyn.march(copies(state), cfg, counting, lambda k, _: None,
                      cfg.step * np.arange(0, cfg.n_steps + 1, every))
        k_bad = round(err.value.t / cfg.step)
        last_kept = (k_bad // every) * every
        # the run stops at the first dump after the blow-up, then replays
        # from the last kept state up to the first non-finite one
        first_dump_after = last_kept + every
        assert replayed == (list(range(first_dump_after))
                            + list(range(last_kept, k_bad)))


class TestParticles:
    def test_no_interaction_decouples(self):
        # prefix check: row i draws the same noise in every run of more
        # than i particles, so the first m rows of a 4-particle run are
        # the run of those m rows alone
        spec = quad_spec(inter=InteractionForce.none())
        cfg = IntegratorConfig(step=0.02, horizon=0.5, seed=9)
        x, y = gaussian_ensemble(0.0, 0.0, 1.0, n=4, dim=1, seed=2)
        joint = simulate(spec, x, y, cfg)
        for m in range(1, 4):
            prefix = simulate(spec, x[:m], y[:m], cfg)
            assert np.array_equal(prefix.x[-1], joint.x[-1, :m])
            assert np.array_equal(prefix.y[-1], joint.y[-1, :m])

    def test_fast_path_matches_reference(self):
        # the affine kinds reduce through the mean, not over all pairs
        for inter in (InteractionForce.linear(0.4),
                      InteractionForce.linear_difference(0.7, dim=1)):
            spec = quad_spec(inter=inter)
            x = np.random.default_rng(3).normal(size=(128, 1))
            assert np.allclose(law_term(spec, x), pair_law_term(spec, x), atol=1e-12)

    def test_stacked_ensembles_reduce_per_replica(self):
        # axis -2 is the member axis, so (R, N, d) stacks reduce one
        # ensemble at a time, on every path
        gen = np.random.default_rng(4)
        stack = gen.normal(size=(3, 16, 2))
        for inter in (InteractionForce.linear(0.4),
                      InteractionForce.linear_difference(0.7, dim=2),
                      InteractionForce.mollified_log()):
            spec = quad_spec(dim=2, inter=inter)
            for term in (law_term, pair_law_term):
                got = term(spec, stack)
                for r in range(3):
                    assert np.allclose(got[r], term(spec, stack[r]), atol=1e-12)

    def test_external_law_mean_replaces_empirical(self):
        x = np.random.default_rng(5).normal(size=(32, 1))
        for inter in (InteractionForce.linear(0.4),
                      InteractionForce.linear_difference(0.7, dim=1)):
            spec = quad_spec(inter=inter)
            own = np.broadcast_to(law_term(spec, x), x.shape)
            external = np.broadcast_to(law_term(spec, x, x.mean(axis=0)), x.shape)
            assert np.array_equal(external, own)
        spec = quad_spec(inter=InteractionForce.mollified_log())
        with pytest.raises(DynamicsError):
            law_term(spec, x, np.zeros(1))

    def test_law_term_broadcasts_against_the_ensemble(self):
        # the linear kind's k * mean comes back once per ensemble; every
        # other kind's term, and hence the unconfined drift, has x's shape
        stack = np.random.default_rng(8).normal(size=(3, 16, 2))
        spec = quad_spec(dim=2, inter=InteractionForce.linear(0.4))
        assert law_term(spec, stack).shape == (3, 1, 2)
        for inter in (InteractionForce.none(),
                      InteractionForce.linear_difference(0.7, dim=2),
                      InteractionForce.mollified_log()):
            spec = quad_spec(dim=2, inter=inter)
            assert law_term(spec, stack).shape == stack.shape
        unconfined = ModelSpec(external=ExternalForce.zero(2),
                               interaction=InteractionForce.linear_difference(0.7, dim=2),
                               gamma=2.0, u=1.0, dim=2)
        assert drift(unconfined, stack).shape == stack.shape

    def test_single_particle_self_interaction(self):
        inter = InteractionForce.linear(0.4)
        spec = quad_spec(inter=inter)
        x = np.array([[2.0]])
        expected = inter.pair_force(x[0], x[0])
        assert np.allclose(law_term(spec, x), expected)

    def test_exchangeability(self):
        # the drift is permutation equivariant: relabelling the particles
        # relabels their forces (up to summation order in the law term)
        x = np.random.default_rng(6).normal(size=(8, 2))
        perm = np.random.default_rng(7).permutation(8)
        for inter in (InteractionForce.linear(0.3),
                      InteractionForce.linear_difference(0.7, dim=2),
                      InteractionForce.mollified_log()):
            specs = [quad_spec(dim=2, inter=inter)]
            if inter.has_split:
                specs.append(ModelSpec(external=ExternalForce.zero(2), interaction=inter,
                                       gamma=2.0, u=1.0, dim=2))
            for spec in specs:
                assert np.allclose(drift(spec, x[perm]), drift(spec, x)[perm],
                                   rtol=1e-13, atol=1e-13)

    def test_drift_follows_the_spec(self):
        # interaction none: the external force alone; external zero: the
        # law term alone; otherwise their sum
        x = np.random.default_rng(9).normal(size=(8, 2))
        inter = InteractionForce.linear_difference(0.7, dim=2)
        ext = ExternalForce.quadratic(np.diag([1.0, 2.0]))
        both = ModelSpec(external=ext, interaction=inter, gamma=2.0, u=1.0, dim=2)
        assert np.array_equal(drift(both, x), ext.force(x) + law_term(both, x))
        classical = ModelSpec(external=ext, interaction=InteractionForce.none(),
                              gamma=2.0, u=1.0, dim=2)
        assert np.array_equal(drift(classical, x), ext.force(x))
        unconfined = ModelSpec(external=ExternalForce.zero(2), interaction=inter,
                               gamma=2.0, u=1.0, dim=2)
        assert np.array_equal(drift(unconfined, x), law_term(unconfined, x))
        # a law mean from outside replaces the empirical one
        assert np.array_equal(drift(unconfined, x, np.zeros(2)), -x @ inter.split_matrix.T)


class TestMcKeanVlasov:
    def test_no_interaction_coincides_with_classical(self):
        # a zero-strength interaction adds a zero law term to the force
        spec = quad_spec(inter=InteractionForce.linear(0.0))
        cfg = IntegratorConfig(step=0.02, horizon=0.5, seed=11)
        x, y = gaussian_ensemble(0.0, 0.0, 1.0, n=16, dim=1, seed=3)
        a = simulate(spec, x, y, cfg)
        b = simulate(quad_spec(), x, y, cfg)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_centered_attractive_mean_stays_zero(self):
        spec = quad_spec(inter=InteractionForce.linear(0.5))
        cfg = IntegratorConfig(step=0.01, horizon=2.0, seed=13)
        x, y = gaussian_ensemble(0.0, 0.0, 1.0, n=4000, dim=1, seed=8, center=True)
        traj = simulate(spec, x, y, cfg)
        assert abs(float(traj.x[-1].mean())) < 5.0 / math.sqrt(4000)

    def test_proxy_noise_scales_like_inverse_root_m(self):
        # the law-proxy feeds an empirical mean whose fluctuation around the
        # exact (zero) mean must shrink like M^(-1/2)
        spec = quad_spec(inter=InteractionForce.linear(0.3))
        cfg_t = 1.0
        h = 0.02
        fluct = {}
        for m_size in (64, 256):
            finals = []
            for rep in range(100):
                cfg = IntegratorConfig(step=h, horizon=cfg_t, seed=1000 + rep)
                x, y = gaussian_ensemble(0.0, 0.0, 1.0, n=m_size, dim=1,
                                         seed=500 + rep, center=True)
                traj = simulate(spec, x, y, cfg)
                finals.append(float(traj.x[-1].mean()))
            fluct[m_size] = float(np.std(finals))
        ratio = fluct[64] / fluct[256]
        assert 1.5 <= ratio <= 2.7  # target 2 = sqrt(256/64)


class TestUnconfined:
    def unconf_spec(self, lip_g=0.05):
        inter = InteractionForce.custom(
            pair=lambda x, z: -(x - z) + 0.05 * np.sin(x - z),
            lip=1.05, split_matrix=np.eye(1),
            split_g=lambda zd: 0.05 * np.sin(zd), split_lip_g=0.05)
        return ModelSpec(external=ExternalForce.zero(1), interaction=inter,
                         gamma=2.0, u=1.0, dim=1)

    def test_uncentered_rejected(self):
        spec = self.unconf_spec()
        cfg = IntegratorConfig(step=0.01, horizon=0.1)
        with pytest.raises(DynamicsError):
            simulate(spec, *dirac_ensemble([1.0], [0.0], n=4), cfg)

    def test_antisymmetric_interaction_cancels_in_the_mean(self, zero_noise):
        # with the noise switched off the ensemble-mean velocity must decay
        # by pure damping: the pairwise terms cancel exactly
        spec = self.unconf_spec()
        h = 0.05
        cfg = IntegratorConfig(step=h, horizon=h)
        x = np.array([[0.4], [-1.0], [2.2]])
        y = np.array([[1.0], [0.5], [-0.2]])
        out = (x.copy(), y.copy())
        dyn.system_step(spec, cfg, x.shape)(0, out)
        assert float(out[1].mean()) == pytest.approx(
            math.exp(-spec.gamma * h) * float(y.mean()), abs=1e-13)

    def test_centering_is_preserved_on_average(self):
        # the sin perturbation has no fast path: keep N modest (O(N^2) drift)
        spec = self.unconf_spec()
        cfg = IntegratorConfig(step=0.01, horizon=1.0, seed=21)
        x, y = gaussian_ensemble(0.0, 0.0, 1.0, n=400, dim=1, seed=9, center=True)
        traj = simulate(spec, x, y, cfg,
                        dump_times=np.linspace(0, 1, 6))
        se = 1.0 / math.sqrt(400)
        assert np.all(np.abs(traj.x.mean(axis=1)) < 5 * se)
        assert np.all(np.abs(traj.y.mean(axis=1)) < 5 * se)


class TestMoments:
    def test_zero_everything_gives_zero_moments(self, zero_noise):
        spec = ModelSpec(external=ExternalForce.zero(1),
                         interaction=InteractionForce.none(), gamma=1.0, u=1.0, dim=1)
        cfg = IntegratorConfig(step=0.01, horizon=1.0)
        traj = simulate(spec, *dirac_ensemble([0.0], [0.0], n=8), cfg,
                        dump_times=np.linspace(0, 1, 11))
        mom = track_moments(traj, spec, twist=0.1)
        assert np.all(mom.ex2 == 0) and np.all(mom.ey2 == 0) and np.all(mom.lyapunov == 0)

    def test_quadratic_moments_plateau_near_stationary(self):
        spec = quad_spec()
        cfg = IntegratorConfig(step=0.01, horizon=30.0, seed=4)
        x, y = gaussian_ensemble(0.0, 0.0, 1.0, n=16000, dim=1, seed=10)
        traj = simulate(spec, x, y, cfg, dump_times=np.linspace(0, 30, 21))
        mom = track_moments(traj, spec, twist=0.125)
        assert mom.plateau()
        assert float(mom.ex2[-1]) == pytest.approx(1.0, abs=0.1)

    def test_constant_moments_without_noise(self, zero_noise):
        spec = ModelSpec(external=ExternalForce.zero(1),
                         interaction=InteractionForce.none(), gamma=1.0, u=1.0, dim=1)
        cfg = IntegratorConfig(step=0.01, horizon=1.0)
        traj = simulate(spec, *dirac_ensemble([1.0], [0.0], n=2), cfg,
                        dump_times=np.linspace(0, 1, 5))
        mom = track_moments(traj, spec, twist=0.0)
        assert np.allclose(mom.ex2, 1.0)


class TestTrajectoryRows:
    def test_header_and_shape(self):
        spec = quad_spec(dim=2)
        cfg = IntegratorConfig(step=0.1, horizon=0.2, seed=1)
        traj = simulate(spec, *dirac_ensemble([0.0, 0.0], [1.0, 0.0], n=3), cfg,
                        dump_times=[0.0, 0.1, 0.2])
        header, rows = trajectory_to_rows(traj)
        assert header == ["t", "i", "x0", "x1", "y0", "y1"]
        assert rows.shape == (9, 6)
