from __future__ import annotations

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kinlang.coupling as cp
from kinlang import rng
from kinlang.coupling import CoupledState, CouplingControl, rc_value, sc_value
from kinlang.dynamics import (BlowUpError, DynamicsError, IntegratorConfig, drift,
                              gaussian_ensemble, march, simulate)
from kinlang.metrics import GroundMetric, row_norm, small_norm, twisted_norm
from kinlang.model import ExternalForce, InteractionForce, ModelSpec
from kinlang.constants import derive_constants
from kinlang.harness.config import load_config_file
from oracles import coupled_trajectory, expression_integrator, marginal_check, pair_state


def quad(gamma=2.0, inter=None):
    return ModelSpec(external=ExternalForce.quadratic(np.eye(1)),
                     interaction=inter or InteractionForce.none(),
                     gamma=gamma, u=1.0, dim=1)


class TestBlend:
    def test_zero_at_origin(self, dw_spec, dw_constants):
        control = CouplingControl(mode="reflection_mix", xi=0.1)
        z = np.zeros((1, 1))
        assert rc_value(control, dw_spec, dw_constants, z, z)[0] == 0.0

    def test_zero_far_outside_gap(self, dw_spec, dw_constants):
        # scale a direction until the gap exceeds offset + 2 xi
        control = CouplingControl(mode="reflection_mix", xi=0.1)
        z = np.array([[1.0]])
        w = np.array([[1.0]])
        m = GroundMetric.from_constants(dw_spec, dw_constants, "rho")
        gap = float(m.delta_zw(z, w)[0])
        scale = (dw_constants.glue_offset + 2 * control.xi) / gap
        rc = rc_value(control, dw_spec, dw_constants, scale * z, scale * w)
        assert rc[0] == 0.0

    def test_one_on_the_saturated_set(self, dw_spec, dw_constants):
        control = CouplingControl(mode="reflection_mix", xi=0.05)
        gamma = dw_spec.gamma
        w = np.array([[control.xi * gamma]])  # |z + w/gamma| = xi exactly
        z = np.zeros((1, 1))
        assert rc_value(control, dw_spec, dw_constants, z, w)[0] == pytest.approx(1.0)

    def test_identity_partition_random(self, dw_spec, dw_constants):
        control = CouplingControl(mode="reflection_mix", xi=1e-3)
        g = np.random.default_rng(0)
        z = 3 * g.normal(size=(100000, 1))
        w = 3 * g.normal(size=(100000, 1))
        rc = rc_value(control, dw_spec, dw_constants, z, w)
        sc = sc_value(rc)
        assert np.all(np.abs(rc ** 2 + sc ** 2 - 1.0) <= 1e-12)
        assert np.all((rc >= 0) & (rc <= 1))

    def test_synchronous_mode_forces_zero(self, dw_spec, dw_constants):
        control = CouplingControl(mode="synchronous", xi=1e-3)
        z = np.array([[1.0]])
        assert rc_value(control, dw_spec, dw_constants, z, z)[0] == 0.0

    def test_degenerate_offset_forces_zero(self, quad_spec, quad_constants):
        control = CouplingControl(mode="reflection_mix", xi=1e-3)
        z = np.array([[1.0]])
        assert quad_constants.glue_offset == 0.0
        assert rc_value(control, quad_spec, quad_constants, z, z)[0] == 0.0

    @pytest.mark.parametrize("shape", [(512, 1), (512, 2), (64, 8, 2)])
    def test_equals_the_clip_expression_bitwise(self, dw_spec, dw_constants, shape):
        # reference: both clamps through np.clip on fresh arrays
        control = CouplingControl(mode="reflection_mix", xi=0.05)
        gen = np.random.default_rng(23)
        z = gen.normal(size=shape) * gen.choice([1e-3, 0.02, 0.3, 3.0], size=shape[:-1] + (1,))
        w = gen.normal(size=shape)
        z[0], w[0] = 0.0, 0.0
        z[1], w[1] = 1.0, -dw_spec.gamma  # Q = 0 away from the origin
        g, mc = dw_spec.gamma, dw_constants
        qn = row_norm(z + w / g)
        rl = twisted_norm(z, w, dw_spec.external.matrix_k, mc.tau, g, dw_spec.u)
        gap = mc.alpha * row_norm(z) + qn - mc.eps * rl
        expected = (np.clip(qn / control.xi, 0.0, 1.0)
                    * np.clip((mc.glue_offset + control.xi - gap) / control.xi, 0.0, 1.0))
        rc = rc_value(control, dw_spec, dw_constants, z, w)
        assert rc.tobytes() == expected.tobytes()
        assert np.any(rc == 0.0) and np.any(rc == 1.0) and np.any((rc > 0) & (rc < 1))

    def test_componentwise_is_not_a_mode(self):
        # a law-mean path, not a mode, makes a coupling componentwise
        with pytest.raises(DynamicsError, match="unknown coupling mode"):
            CouplingControl(mode="componentwise")

    def test_default_width_scales_with_cutoff(self, dw_constants, quad_constants):
        c1 = CouplingControl.for_constants(dw_constants)
        assert c1.xi == pytest.approx(1e-3 * dw_constants.small_cutoff)
        c2 = CouplingControl.for_constants(quad_constants)
        assert c2.xi == pytest.approx(1e-8)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_rows_are_rescaled_alone(self, dw_spec, dw_constants):
        control = CouplingControl(mode="reflection_mix", xi=0.05)
        gen = np.random.default_rng(2)
        z, w = gen.normal(size=(6, 1)) * 0.01, gen.normal(size=(6, 1)) * 0.01
        alone = rc_value(control, dw_spec, dw_constants, z, w)
        z[2], w[4] = 1e300, -1e250
        mixed = rc_value(control, dw_spec, dw_constants, z, w)
        assert np.all(np.isfinite(mixed))
        keep = [0, 1, 3, 5]
        assert mixed[keep].tobytes() == alone[keep].tobytes()


class TestReflection:
    def test_reflection_matrix_orthogonal(self):
        e = np.random.default_rng(1).normal(size=3)
        e /= np.linalg.norm(e)
        h = np.eye(3) - 2 * np.outer(e, e)
        assert np.allclose(h @ h.T, np.eye(3), atol=1e-14)

    def test_reflected_normals_keep_identity_covariance(self):
        gen = np.random.default_rng(2)
        e = gen.normal(size=2)
        e /= np.linalg.norm(e)
        xi = gen.normal(size=(200000, 2))
        reflected = xi - 2 * (xi @ e)[:, None] * e[None, :]
        cov = reflected.T @ reflected / len(reflected)
        # chi-square style bound: entries within 5 / sqrt(n) of the identity
        assert np.all(np.abs(cov - np.eye(2)) < 5 / math.sqrt(200000))


    @pytest.mark.parametrize("shape", [(64, 1), (64, 3), (8, 5, 2)])
    def test_shared_q_direction_equals_the_recomputed_one_bitwise(self, dw_spec,
                                                                   dw_constants, shape):
        # reference: the direction recomputed from Z and W, as a reflecting
        # step did before the blend handed over its Q and |Q|
        def recomputed(z, w, gamma):
            q = z + w / gamma
            norm = row_norm(q, keepdims=True)
            return np.where(norm > cp.Q_TINY, q / np.maximum(norm, cp.Q_TINY), 0.0)

        control = CouplingControl(mode="reflection_mix", xi=0.05)
        g = dw_spec.gamma
        z, w = np.random.default_rng(29).normal(size=(2,) + shape)
        z[:5], w[:5] = 0.0, 0.0                 # Q = 0 at the origin (row 0)
        z[1], w[1] = 1.0, -g                    # Q = 0 away from it
        z[2, ..., 0] = 1e-13                    # 0 < |Q| < Q_TINY
        z[3, ..., 0] = cp.Q_TINY                # |Q| = Q_TINY
        z[4, ..., 0] = 3e-12                    # just above Q_TINY
        rc, q, qn = cp._blend(control, dw_spec, dw_constants, z, w)
        e = cp._unit_q(q, qn)
        expected = recomputed(z, w, g)
        assert e.tobytes() == expected.tobytes()
        assert np.all(e[:4] == 0.0) and np.all(e[4, ..., 0] == 1.0)


class TestCoupledPair:
    def test_identical_copies_stay_glued(self, dw_spec, dw_constants):
        control = CouplingControl(mode="synchronous", xi=1e-3)
        cfg = IntegratorConfig(step=0.01, horizon=1.0, seed=3)
        state = pair_state((np.array([0.7]), np.array([-0.2])),
                           (np.array([0.7]), np.array([-0.2])), n=16)
        traj = coupled_trajectory(dw_spec, state, control, cfg, dw_constants,
                                  dump_times=np.linspace(0, 1, 6))
        assert np.array_equal(traj.ax, traj.bx)
        assert np.array_equal(traj.ay, traj.by)

    def test_zero_offset_reflection_is_synchronous(self, quad_spec, quad_constants,
                                                   monkeypatch):
        # a zero gluing offset makes the blend zero everywhere; the run
        # decides that once, so the blend is never evaluated
        assert quad_constants.glue_offset == 0.0
        cfg = IntegratorConfig(step=0.01, horizon=1.0, seed=8)
        gen = np.random.default_rng(9)
        state = CoupledState(*gen.normal(size=(4, 8, 1)))
        dumps = np.linspace(0, 1, 5)
        calls = []

        def counted(*args):
            calls.append(1)
            return rc_value(*args)

        monkeypatch.setattr(cp, "rc_value", counted)
        runs = {mode: coupled_trajectory(quad_spec, state, CouplingControl(mode=mode),
                                         cfg, quad_constants, dump_times=dumps)
                for mode in ("synchronous", "reflection_mix")}
        _, rc_mean = cp.march_coupled(quad_spec, state, CouplingControl(mode="reflection_mix"),
                                      cfg, quad_constants, lambda i, z, w: None, dumps)
        assert calls == []
        assert np.all(rc_mean == 0.0)
        sync, mix = runs["synchronous"], runs["reflection_mix"]
        for name in ("times", "ax", "ay", "bx", "by", "rc_mean"):
            assert np.array_equal(getattr(sync, name), getattr(mix, name)), name
        assert np.all(mix.rc_mean == 0.0)

    def test_synchronous_quadratic_contracts_at_rate(self, quad_spec, quad_constants):
        # deterministic difference: r(t) <= exp(-c t) r(0) up to O(h)
        mc = quad_constants
        control = CouplingControl(mode="synchronous", xi=1e-3)
        h = 1e-3
        cfg = IntegratorConfig(step=h, horizon=5.0, seed=4)
        state = pair_state((np.array([1.0]), np.array([0.0])),
                           (np.array([-1.0]), np.array([0.5])))
        metric = GroundMetric.from_constants(quad_spec, mc, "r_strong")
        dumps = np.linspace(0, 5, 26)
        traj = coupled_trajectory(quad_spec, state, control, cfg, mc,
                                  dump_times=dumps)
        r = traj.distance_series(metric)[:, 0]
        bound = r[0] * np.exp(-mc.c_strong * traj.times) * (1 + 10 * h)
        assert np.all(r <= bound + 1e-14)
        # differential form between consecutive dumps: the squared distance
        # shrinks at least at rate 2 gamma lam along the whole path
        dt = np.diff(traj.times)
        assert np.all(r[1:] <= r[:-1] * np.exp(-mc.c_strong * dt) * (1 + 10 * h))

    def test_q_noise_increment_formula(self, dw_spec, dw_constants):
        # saturated blend, Euler scheme: the Q update must carry exactly
        # sqrt(8 u / gamma) rc (e . dB) e  on top of the drift part
        control = CouplingControl(mode="reflection_mix", xi=0.05)
        g, u = dw_spec.gamma, dw_spec.u
        h = 1e-3
        cfg = IntegratorConfig(step=h, horizon=h, seed=5, scheme="euler_maruyama")
        first = (np.array([0.3]), np.array([0.1]))
        second = (np.array([0.3]), np.array([0.1 - control.xi * g * 2]))
        state = pair_state(first, second)
        z, w = state.ax - state.bx, state.ay - state.by
        rc = rc_value(control, dw_spec, dw_constants, z, w)
        assert rc[0] == pytest.approx(1.0)
        q0 = z + w / g
        e = cp._unit_q(q0, np.linalg.norm(q0, axis=-1))
        force = dw_spec.external.force
        drift = (h / g) * u * (force(state.ax) - force(state.bx))
        out = coupled_trajectory(dw_spec, state, control, cfg, dw_constants,
                                 dump_times=[h])
        q1 = (out.ax[-1] - out.bx[-1]) + (out.ay[-1] - out.by[-1]) / g
        xi_rc = rng.normals(cfg.seed, rng.SUB_REFLECT, 0, (1, 1))
        expected = q0 + drift + math.sqrt(8 / g * u) * (e * xi_rc) * math.sqrt(h) * e
        assert np.allclose(q1, expected, atol=1e-12)

    @pytest.mark.parametrize("inter", [InteractionForce.none(), InteractionForce.linear(0.3)],
                             ids=["classical-none", "particles-replica_proxy"])
    def test_synchronous_first_copy_matches_uncoupled_bitwise(self, inter):
        spec = ModelSpec(external=ExternalForce.double_well(1.0, dim=1),
                         interaction=inter, gamma=10.0, u=1.0, dim=1)
        constants = derive_constants(spec)
        control = CouplingControl(mode="synchronous", xi=1e-3)
        cfg = IntegratorConfig(step=0.01, horizon=0.5, seed=6)
        n = 8
        gen = np.random.default_rng(7)
        fx, fy = gen.normal(size=(n, 1)), gen.normal(size=(n, 1))
        sx, sy = fx + 1.0, fy.copy()
        state = CoupledState(ax=fx, ay=fy, bx=sx, by=sy)
        traj = coupled_trajectory(spec, state, control, cfg, constants,
                                  dump_times=[0.25, 0.5])
        solo = simulate(spec, fx, fy, cfg, dump_times=[0.25, 0.5])
        assert np.array_equal(traj.ax, solo.x)
        assert np.array_equal(traj.ay, solo.y)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_detected(self, dw_constants):
        stiff = ModelSpec(external=ExternalForce.quadratic(np.eye(1) * 1e9),
                          interaction=InteractionForce.none(), gamma=0.1, u=1.0, dim=1)
        control = CouplingControl(mode="synchronous", xi=1e-3)
        cfg = IntegratorConfig(step=5.0, horizon=500.0, scheme="euler_maruyama")
        state = pair_state((np.array([1.0]), np.array([0.0])),
                           (np.array([0.0]), np.array([0.0])))
        with pytest.raises(BlowUpError):
            coupled_trajectory(stiff, state, control, cfg, dw_constants)

    @pytest.mark.parametrize("kappa, h", [(1e8, 10.0), (1e9, 5.0)])
    @pytest.mark.parametrize("law", ["none", "analytic_zero"])
    def test_blow_up_time_is_the_solo_runs(self, kappa, h, law, dw_constants):
        # the first copy of a synchronous coupling is bitwise the solo run,
        # so both drivers must stamp the same first non-finite state; under
        # the fixed law mean 0 the first copy feels -(x - 0) Kt, the solo
        # force -K x
        solo_spec = ModelSpec(external=ExternalForce.quadratic(np.eye(1) * kappa),
                              interaction=InteractionForce.none(),
                              gamma=0.1, u=1.0, dim=1)
        spec = solo_spec if law == "none" else ModelSpec(
            external=ExternalForce.zero(1),
            interaction=InteractionForce.linear_difference(kappa, dim=1),
            gamma=0.1, u=1.0, dim=1)
        cfg = IntegratorConfig(step=h, horizon=400 * h, scheme="euler_maruyama")
        x, y = np.array([[1.0]]), np.array([[0.0]])
        with pytest.raises(BlowUpError) as solo:
            simulate(solo_spec, x, y, cfg)
        t = solo.value.t
        assert 0 < t < cfg.horizon
        # every state before t is finite
        before = simulate(solo_spec, x, y, IntegratorConfig(step=h, horizon=t - h,
                                                            scheme="euler_maruyama"))
        assert np.all(np.isfinite(before.x)) and np.all(np.isfinite(before.y))
        state = pair_state((x[0], y[0]), (x[0] + 1.0, y[0]))
        control = CouplingControl(mode="synchronous", xi=1e-3)
        law_mean = None if law == "none" else np.zeros(1)
        # mid-run, and at the last state or just before it (the end check)
        for horizon in (cfg.horizon, t, t + h):
            with pytest.raises(BlowUpError) as coupled:
                coupled_trajectory(spec, state, control,
                                   IntegratorConfig(step=h, horizon=horizon,
                                                    scheme="euler_maruyama"),
                                   dw_constants, law_mean=law_mean)
            assert coupled.value.t == t

    def test_blow_up_under_reflection_matches_the_per_state_loop(self, dw_constants,
                                                                 first_nonfinite):
        # the blend's squared norms overflow long before the state does
        # and are then taken at unit scale; the per-copy step tested at
        # every state must give the same time as the checkpoints
        stiff = ModelSpec(external=ExternalForce.quadratic(np.eye(1) * 1e8),
                          interaction=InteractionForce.none(), gamma=0.1, u=1.0, dim=1)
        control = CouplingControl(mode="reflection_mix", xi=0.05)
        cfg = IntegratorConfig(step=0.1, horizon=100.0, scheme="euler_maruyama", seed=3)
        ax = np.random.default_rng(1).normal(size=(8, 1)) * 1e-3
        state = CoupledState(ax=ax, ay=np.zeros((8, 1)), bx=ax + 1e-3, by=np.zeros((8, 1)))
        step, _ = per_copy_step(stiff, control, cfg, dw_constants)
        k_ref, _ = first_nonfinite(step, (state.ax, state.ay, state.bx, state.by),
                                   cfg.n_steps)
        assert 0 < k_ref < cfg.n_steps
        # the blend reflected on some pairs before the blow-up
        before = coupled_trajectory(stiff, state, control,
                                    IntegratorConfig(step=cfg.step, horizon=(k_ref - 1) * cfg.step,
                                                     scheme="euler_maruyama", seed=3),
                                    dw_constants, dump_times=cfg.step * np.arange(k_ref))
        assert np.count_nonzero(before.rc_mean) > 1
        # the blend's squares overflowed well before the last finite state,
        # and the blend stayed finite all the same
        assert np.abs(before.ay[-1] - before.by[-1]).max() > 1e200
        assert np.all(np.isfinite(before.rc_mean))
        for every in (1, 10, cfg.n_steps):
            assert every == 1 or k_ref % every != 0
            with pytest.raises(BlowUpError) as err:
                coupled_trajectory(stiff, state, control, cfg, dw_constants,
                                   dump_times=cfg.step * np.arange(0, cfg.n_steps + 1, every))
            assert err.value.t == k_ref * cfg.step


class TestComponentwise:
    def test_no_interaction_decouples_to_pairs(self, dw_spec, dw_constants):
        # with no interaction the law-mean path has nothing to act on
        control = CouplingControl(mode="reflection_mix", xi=0.05)
        cfg = IntegratorConfig(step=0.01, horizon=0.3, seed=8)
        gen = np.random.default_rng(9)
        n = 6
        state = CoupledState(ax=gen.normal(size=(n, 1)), ay=gen.normal(size=(n, 1)),
                             bx=gen.normal(size=(n, 1)), by=gen.normal(size=(n, 1)))
        a = coupled_trajectory(dw_spec, state, control, cfg, dw_constants, dump_times=[0.3],
                               law_means=gen.normal(size=(cfg.n_steps + 1, 1)))
        b = coupled_trajectory(dw_spec, state, control, cfg, dw_constants,
                               dump_times=[0.3])
        assert np.array_equal(a.ax, b.ax) and np.array_equal(a.bx, b.bx)

    def test_identical_initializations_synchronous_all_zero(self):
        inter = InteractionForce.linear(0.05)
        spec = quad(inter=inter)
        mc = derive_constants(spec)
        control = CouplingControl(mode="synchronous", xi=1e-3)
        cfg = IntegratorConfig(step=0.01, horizon=0.5, seed=10)
        gen = np.random.default_rng(11)
        x = gen.normal(size=(12, 1))
        y = gen.normal(size=(12, 1))
        state = CoupledState(ax=x, ay=y, bx=x.copy(), by=y.copy())
        traj = coupled_trajectory(spec, state, control, cfg, mc, dump_times=[0.5])
        assert np.array_equal(traj.ax, traj.bx) and np.array_equal(traj.ay, traj.by)


def per_copy_step(spec, control, cfg, constants, law_mean=None, law_means=None):
    """The coupled step on four arrays: each copy draws its force and takes
    the expression form of the integrator update on its own, with the
    blend, the reflection and the law means written out in full; a
    law-mean path makes it componentwise.  The step writes the new state
    into the four arrays, as :func:`march` expects.  Returns the step and
    the blend."""
    mean_b = law_mean if law_means is None else None
    advance = expression_integrator(cfg.step, spec.gamma, spec.u, cfg.scheme)
    g, xi = spec.gamma, control.xi

    def norms(z, w):
        rl = twisted_norm(z, w, spec.external.matrix_k, constants.tau, g, spec.u)
        return (np.linalg.norm(z + w / g, axis=-1),
                small_norm(z, w, constants.alpha, g) - constants.eps * rl)

    def blend(z, w):
        if control.mode == "synchronous" or not constants.glue_offset > 0:
            return np.zeros(z.shape[:-1])
        qn, gap = norms(z, w)
        # rows of a finite state whose squares overflowed: at unit scale
        over = ~np.isfinite(gap) & np.isfinite(z).all(axis=-1) & np.isfinite(w).all(axis=-1)
        scale = np.where(over, np.maximum(np.abs(z).max(axis=-1), np.abs(w).max(axis=-1)), 1.0)
        qn_unit, gap_unit = norms(z / scale[..., None], w / scale[..., None])
        qn = np.where(over, scale * qn_unit, qn)
        gap = np.where(over, scale * gap_unit, gap)
        return (np.clip(qn / xi, 0.0, 1.0)
                * np.clip((constants.glue_offset + xi - gap) / xi, 0.0, 1.0))

    def step(k, arrays):
        ax, ay, bx, by = arrays
        noise_a = noise_b = rng.normals(cfg.seed, rng.SUB_MAIN, k, ax.shape)
        z, w = ax - bx, ay - by
        rc = blend(z, w)
        if not np.all(rc == 0.0):
            xi_rc = rng.normals(cfg.seed, rng.SUB_REFLECT, k, z.shape)
            sc = sc_value(rc)[..., None]
            rc = rc[..., None]
            q = z + w / g
            norm = np.linalg.norm(q, axis=-1, keepdims=True)
            e = np.where(norm > cp.Q_TINY, q / np.maximum(norm, cp.Q_TINY), 0.0)
            reflected = xi_rc - 2.0 * np.sum(e * xi_rc, axis=-1, keepdims=True) * e
            noise_a, noise_b = sc * noise_a + rc * xi_rc, sc * noise_a + rc * reflected
        mean_a = law_mean if law_means is None else law_means[k]
        new = (*advance(ax, ay, drift(spec, ax, mean_a), noise_a),
               *advance(bx, by, drift(spec, bx, mean_b), noise_b))
        for a, value in zip(arrays, new):
            a[...] = value

    return step, blend


def per_copy_reference(spec, state0, control, cfg, constants, dump_times, **kw):
    """The coupled run stepped by :func:`per_copy_step`."""
    step, blend = per_copy_step(spec, control, cfg, constants, **kw)
    kept = []

    def keep(k, arrays):
        ax, ay, bx, by = arrays
        kept.append((k, tuple(a.copy() for a in arrays),
                     float(np.mean(blend(ax - bx, ay - by)))))

    march(lambda: tuple(np.array(a) for a in (state0.ax, state0.ay, state0.bx, state0.by)),
          cfg, step, keep, dump_times, t0=state0.t)
    return {"times": state0.t + np.array([k for k, _, _ in kept]) * cfg.step,
            **{name: np.stack([arrays[i] for _, arrays, _ in kept])
               for i, name in enumerate(("ax", "ay", "bx", "by"))},
            "rc_mean": np.array([rc for _, _, rc in kept])}


ANISOTROPIC_K = np.array([[1.0, 0.4], [0.4, 2.5]])


class TestPerCopyReference:
    """The coupled step (kept by the oracle coupled_trajectory) equals the
    per-copy step bitwise in d = 2, where the golden digests (all d = 1) do
    not reach."""

    def assert_matches(self, spec, state, control, cfg, dump_times, **kw):
        constants = derive_constants(spec)
        traj = coupled_trajectory(spec, state, control, cfg, constants,
                                  dump_times=dump_times, **kw)
        ref = per_copy_reference(spec, state, control, cfg, constants, dump_times, **kw)
        for name, value in ref.items():
            assert np.array_equal(getattr(traj, name), value), name
        return traj

    def test_anisotropic_reflection_mix(self):
        ext = ExternalForce.custom(
            force=lambda x: -x @ ANISOTROPIC_K.T + 0.5 * np.tanh(-x),
            k_matrix=ANISOTROPIC_K, lip_g=0.5, radius=1.0, dim=2)
        spec = ModelSpec(external=ext, interaction=InteractionForce.none(),
                         gamma=2.0, u=1.0, dim=2)
        state = CoupledState(*(0.3 * np.random.default_rng(3).normal(size=(4, 16, 2))))
        traj = self.assert_matches(spec, state,
                                   CouplingControl(mode="reflection_mix", xi=0.05),
                                   IntegratorConfig(step=0.01, horizon=0.5, seed=4),
                                   np.linspace(0, 0.5, 6))
        # the blend is active, and partial on some dumps
        assert np.all(traj.rc_mean > 0) and np.any(traj.rc_mean < 1)

    def test_componentwise_external_law_means(self):
        spec = ModelSpec(external=ExternalForce.double_well(1.0, dim=2),
                         interaction=InteractionForce.linear(0.3),
                         gamma=10.0, u=1.0, dim=2)
        gen = np.random.default_rng(5)
        ax, ay = gen.normal(size=(2, 3, 5, 2))
        state = CoupledState(ax=ax, ay=ay, bx=ax + 0.01, by=ay)
        cfg = IntegratorConfig(step=0.01, horizon=0.3, seed=6)
        law_means = 0.1 * gen.normal(size=(cfg.n_steps + 1, 2))
        traj = self.assert_matches(spec, state,
                                   CouplingControl(mode="reflection_mix", xi=0.05),
                                   cfg, [0.0, 0.1, 0.3], law_means=law_means)
        assert np.any(traj.rc_mean > 0)

    def test_componentwise_analytic_zero_unconfined(self):
        spec = ModelSpec(external=ExternalForce.zero(2),
                         interaction=InteractionForce.linear_difference(ANISOTROPIC_K),
                         gamma=2.0, u=1.0, dim=2)
        ax, ay, bx, by = np.random.default_rng(7).normal(size=(4, 3, 5, 2))
        state = CoupledState(ax=ax, ay=ay, bx=bx, by=by)
        cfg = IntegratorConfig(step=0.01, horizon=0.3, seed=8)
        # the centered theory's law mean, as an all-zero path
        self.assert_matches(spec, state, CouplingControl(mode="reflection_mix", xi=0.05),
                            cfg, [0.1, 0.3], law_means=np.zeros((cfg.n_steps + 1, 2)))

    def test_fixed_law_mean_unconfined(self):
        # the centered theory's law mean, fixed at 0 for both copies: the
        # drift is -x Kt, not the empirical -(x - mean) Kt
        spec = ModelSpec(external=ExternalForce.zero(2),
                         interaction=InteractionForce.linear_difference(ANISOTROPIC_K),
                         gamma=2.0, u=1.0, dim=2)
        ax, ay, bx, by = np.random.default_rng(11).normal(size=(4, 6, 2))
        state = CoupledState(ax=ax, ay=ay, bx=bx, by=by)
        cfg = IntegratorConfig(step=0.01, horizon=0.3, seed=12)
        control = CouplingControl(mode="reflection_mix", xi=0.05)
        fixed = self.assert_matches(spec, state, control, cfg, [0.1, 0.3],
                                    law_mean=np.zeros(2))
        own = self.assert_matches(spec, state, control, cfg, [0.1, 0.3])
        assert not np.array_equal(fixed.ax, own.ax)

    def test_replica_proxy_pairs_linear_interaction(self):
        spec = ModelSpec(external=ExternalForce.double_well(1.0, dim=2),
                         interaction=InteractionForce.linear(0.3),
                         gamma=10.0, u=1.0, dim=2)
        ax, ay = np.random.default_rng(9).normal(size=(2, 12, 2))
        state = CoupledState(ax=ax, ay=ay, bx=ax + 0.02, by=ay)
        traj = self.assert_matches(spec, state,
                                   CouplingControl(mode="reflection_mix", xi=0.05),
                                   IntegratorConfig(step=0.01, horizon=0.3, seed=10),
                                   [0.0, 0.15, 0.3])
        assert np.any(traj.rc_mean > 0)


class TestViews:
    def test_unit_direction_norm_in_zero_one(self, dw_spec):
        gen = np.random.default_rng(19)
        z, w = gen.normal(size=(2, 64, 2))
        z[0] = w[0] = 0.0
        q = z + w / dw_spec.gamma
        e = cp._unit_q(q, np.linalg.norm(q, axis=-1))
        norms = np.linalg.norm(e, axis=-1)
        assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))
        assert norms[0] == 0.0
        # the direction of Q = Z + W / gamma
        assert np.allclose(e * np.linalg.norm(q, axis=-1, keepdims=True), q)

    def test_trajectory_copies_are_views_of_one_stack(self, dw_spec, dw_constants):
        state = pair_state((np.array([0.3]), np.array([0.1])),
                           (np.array([-0.3]), np.array([0.0])), n=4)
        traj = coupled_trajectory(dw_spec, state, CouplingControl(mode="synchronous"),
                                  IntegratorConfig(step=0.01, horizon=0.1, seed=1),
                                  dw_constants, dump_times=[0.0, 0.1])
        assert traj.ax.base is traj.bx.base and traj.ay.base is traj.by.base
        assert traj.ax.shape == traj.by.shape == (2, 4, 1)


class TestGluedDecay:
    def test_mean_glued_distance_non_increasing(self, dw_spec, dw_constants):
        # implementable shadow of the contraction guarantee: the mean
        # glued distance never rises beyond two standard errors
        control = CouplingControl.for_constants(dw_constants, mode="reflection_mix")
        cfg = IntegratorConfig(step=0.01, horizon=5.0, seed=17)
        x, y = gaussian_ensemble(0.0, 0.0, 0.5, n=2000, dim=1, seed=18)
        state = CoupledState(ax=x, ay=y, bx=x + 1.5, by=y)
        traj = coupled_trajectory(dw_spec, state, control, cfg, dw_constants,
                                  dump_times=np.linspace(0, 5, 11))
        rho = GroundMetric.from_constants(dw_spec, dw_constants, "rho")
        d = traj.distance_series(rho)
        means = d.mean(axis=1)
        ses = d.std(axis=1, ddof=1) / np.sqrt(d.shape[1])
        rises = np.diff(means) - 2 * (ses[1:] + ses[:-1])
        assert np.all(rises <= 0)


class TestMarginalCheck:
    def test_synchronous_first_component_statistics_exact(self, dw_spec, dw_constants):
        control = CouplingControl(mode="synchronous", xi=1e-3)
        cfg = IntegratorConfig(step=0.01, horizon=0.5, seed=12)
        n = 64
        x, y = gaussian_ensemble(0.0, 0.0, 1.0, n=n, dim=1, seed=13)
        state = CoupledState(ax=x, ay=y, bx=x + 2.0, by=y)
        dumps = np.linspace(0, 0.5, 6)
        traj = coupled_trajectory(dw_spec, state, control, cfg, dw_constants,
                                  dump_times=dumps)
        solo = simulate(dw_spec, x, y, cfg, dump_times=dumps)
        # the first coupled component IS the uncoupled run, so its moment
        # z-scores vanish identically
        report = marginal_check(traj, solo, solo, threshold=4.0)
        first_rows = [r for r in report.observables if r[0] == "first"]
        assert all(r[2] == 0.0 for r in first_rows)

    def test_zero_noise_exact_equality(self, dw_spec, dw_constants, monkeypatch):
        real = cp.rng.normals
        monkeypatch.setattr(cp.rng, "normals",
                            lambda seed, sub, step, shape, out=None: np.zeros(shape))
        import kinlang.dynamics as dyn
        monkeypatch.setattr(dyn.rng, "normals",
                            lambda seed, sub, step, shape, out=None: np.zeros(shape))
        control = CouplingControl(mode="reflection_mix", xi=0.05)
        cfg = IntegratorConfig(step=0.01, horizon=0.4, seed=14)
        x, y = gaussian_ensemble(0.5, 0.0, 1.0, n=16, dim=1, seed=15)
        state = CoupledState(ax=x, ay=y, bx=x, by=y)
        dumps = [0.0, 0.2, 0.4]
        traj = coupled_trajectory(dw_spec, state, control, cfg, dw_constants,
                                  dump_times=dumps)
        solo = simulate(dw_spec, x, y, cfg, dump_times=dumps)
        report = marginal_check(traj, solo, solo)
        assert report.ok and report.max_abs_z == 0.0


def stiff_quadratic(inter=None):
    """Quadratic well with K = 1e8: Euler-Maruyama at h = 10 grows the
    state by about 1e6 per step until it overflows."""
    return ModelSpec(external=ExternalForce.quadratic(np.eye(1) * 1e8),
                     interaction=inter or InteractionForce.none(), gamma=0.1, u=1.0, dim=1)


class TestInPlaceReplay:
    """The run steps its own copy of the start in place; a blow-up replays
    from the last kept copy, or from the caller's start, which the run
    never writes to."""

    def test_componentwise_blow_up_between_dumps(self, first_nonfinite):
        spec = stiff_quadratic(InteractionForce.linear(0.3))
        constants = derive_constants(spec)
        control = CouplingControl(mode="synchronous", xi=1e-3)
        cfg = IntegratorConfig(step=10.0, horizon=10000.0, scheme="euler_maruyama", seed=4)
        gen = np.random.default_rng(5)
        x, y = gen.normal(size=(3, 4, 1)), gen.normal(size=(3, 4, 1))
        state = CoupledState(ax=x, ay=y, bx=x + 0.5, by=y)
        law_means = gen.normal(size=(cfg.n_steps + 1, 1))
        step, _ = per_copy_step(spec, control, cfg, constants, law_means=law_means)
        k_ref, _ = first_nonfinite(step, (state.ax, state.ay, state.bx, state.by),
                                   cfg.n_steps)
        every = 7
        assert 0 < k_ref < cfg.n_steps and k_ref % every != 0
        start = [a.copy() for a in (state.ax, state.ay, state.bx, state.by)]
        with pytest.raises(BlowUpError) as err:
            coupled_trajectory(spec, state, control, cfg, constants, law_means=law_means,
                               dump_times=cfg.step * np.arange(0, cfg.n_steps + 1, every))
        assert err.value.t == k_ref * cfg.step
        for before, after in zip(start, (state.ax, state.ay, state.bx, state.by)):
            assert np.array_equal(before, after)

    def test_blow_up_before_the_first_dump_replays_from_the_start(self, dw_constants,
                                                                  first_nonfinite):
        spec = stiff_quadratic()
        control = CouplingControl(mode="synchronous", xi=1e-3)
        cfg = IntegratorConfig(step=10.0, horizon=1000.0, scheme="euler_maruyama", seed=2)
        state = pair_state((np.array([1.0]), np.array([0.0])),
                           (np.array([0.0]), np.array([0.5])), n=3)
        step, _ = per_copy_step(spec, control, cfg, dw_constants)
        k_ref, _ = first_nonfinite(step, (state.ax, state.ay, state.bx, state.by),
                                   cfg.n_steps)
        assert 0 < k_ref < cfg.n_steps
        # the only dump is the horizon: the blow-up is found there and
        # replayed from step 0 of a fresh copy of the start
        with pytest.raises(BlowUpError) as err:
            coupled_trajectory(spec, state, control, cfg, dw_constants)
        assert err.value.t == k_ref * cfg.step
        assert np.array_equal(state.ax, np.ones((3, 1)))
        assert np.array_equal(state.by, np.full((3, 1), 0.5))
        replayed = []

        def counting(k, arrays):
            replayed.append(k)
            step(k, arrays)

        start = (state.ax, state.ay, state.bx, state.by)
        with pytest.raises(BlowUpError) as err:
            march(lambda: tuple(a.copy() for a in start), cfg, counting, lambda k, _: None)
        assert err.value.t == k_ref * cfg.step
        assert replayed == list(range(cfg.n_steps)) + list(range(k_ref))


class TestMemory:
    def test_chaos_slots_step_in_three_states_of_memory(self):
        # configs/chaos.json at its largest N: the run holds its state, one
        # force buffer, the shared noise block and the kept dump, nothing
        # per step; a stacked start copy or per-step temporaries exceed this
        cfg = load_config_file(Path(__file__).resolve().parent.parent / "configs" / "chaos.json")
        spec = cfg.spec
        constants = derive_constants(spec)
        icfg = IntegratorConfig(step=cfg.step, horizon=cfg.eval_time, seed=cfg.seed)
        r, n, d = cfg.subsample_pairs, max(cfg.ensemble_sizes), spec.dim
        x, y = gaussian_ensemble(0.0, 0.0, 1.0, r * n, d, seed=cfg.seed)
        x, y = x.reshape(r, n, d), y.reshape(r, n, d)
        state = CoupledState(ax=x, ay=y, bx=x, by=y)
        law_means = np.zeros((icfg.n_steps + 1, d))
        stacked_state = 2 * 2 * x.nbytes
        tracemalloc.start()
        try:
            traj = coupled_trajectory(spec, state, CouplingControl.for_constants(constants),
                                      icfg, constants, law_means=law_means)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.ax.shape == (1, r, n, d)
        assert peak <= 3 * stacked_state
