"""Acceptance suite.

One test per criterion, each run at its stated tolerance and runtime cap,
printing one PASS/FAIL line (visible with ``pytest -s`` or ``-rA``).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from kinlang.constants import derive_constants
from kinlang.coupling import CouplingControl, rc_value, sc_value
from kinlang.dynamics import IntegratorConfig, gaussian_ensemble, simulate
from kinlang.harness.config import load_config
from kinlang.harness.experiments import run_chaos, run_contraction, run_moments
from kinlang.metrics import GroundMetric
from kinlang.model import ExternalForce, InteractionForce, ModelSpec
from oracles import coupled_trajectory, euclidean_norm, marginal_check, pair_state


def _report(name: str, ok: bool, detail: str, elapsed: float, cap: float) -> None:
    status = "PASS" if ok and elapsed < cap else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({detail}; {elapsed:.1f}s < {cap:.0f}s)")
    assert ok, detail
    assert elapsed < cap, f"runtime {elapsed:.1f}s exceeded the {cap:.0f}s cap"


def quad_model(dim, gamma=2.0, kappa=1.0, u=1.0, inter=None):
    return ModelSpec(external=ExternalForce.quadratic(kappa * np.eye(dim)),
                     interaction=inter or InteractionForce.none(),
                     gamma=gamma, u=u, dim=dim)


def dw_model(dim=1, gamma=10.0, inter=None):
    return ModelSpec(external=ExternalForce.double_well(1.0, dim=dim),
                     interaction=inter or InteractionForce.none(),
                     gamma=gamma, u=1.0, dim=dim)


def test_c01_strongly_convex_exact_check():
    t0 = time.time()
    h = 1e-3
    ok, worst = True, -np.inf
    for dim in (1, 3):
        spec = quad_model(dim)
        mc = derive_constants(spec)
        assert mc.c_strong == pytest.approx(0.25)
        control = CouplingControl(mode="synchronous", xi=1e-3)
        cfg = IntegratorConfig(step=h, horizon=20.0, seed=1)
        z0 = np.full(dim, 1.0)
        w0 = np.zeros(dim)
        state = pair_state((z0, w0), (np.zeros(dim), np.zeros(dim)))
        dumps = np.linspace(0.0, 20.0, 100)
        traj = coupled_trajectory(spec, state, control, cfg, mc, dump_times=dumps)
        metric = GroundMetric.from_constants(spec, mc, "r_strong")
        r = traj.distance_series(metric)[:, 0]
        bound = r[0] * np.exp(-mc.c_strong * traj.times) * (1.0 + 10.0 * h)
        excess = float(np.max(r - bound))
        worst = max(worst, excess)
        ok = ok and excess <= 0.0
    _report("01 strongly convex exact", ok,
            f"max bound excess {worst:.2e} over d in (1, 3)", time.time() - t0, 5.0)


def test_c02_spectral_gap_order():
    t0 = time.time()
    h = 1e-3
    rates = {}
    for kappa in (0.25, 1.0, 4.0):
        gamma = 2.0 * math.sqrt(kappa)
        spec = quad_model(1, gamma=gamma, kappa=kappa)
        mc = derive_constants(spec)
        control = CouplingControl(mode="synchronous", xi=1e-3)
        horizon = 12.0 / math.sqrt(kappa)   # identical windows in scaled time
        cfg = IntegratorConfig(step=h, horizon=horizon, seed=1)
        state = pair_state((np.array([1.0]), np.array([0.0])),
                           (np.zeros(1), np.zeros(1)))
        dumps = np.linspace(0.0, horizon, 60)
        traj = coupled_trajectory(spec, state, control, cfg, mc, dump_times=dumps)
        metric = GroundMetric.from_constants(spec, mc, "r_strong")
        r = traj.distance_series(metric)[:, 0]
        slope = np.polyfit(traj.times, np.log(r), 1)[0]
        rates[kappa] = -slope
    base = rates[1.0]
    devs = {k: rates[k] / (math.sqrt(k) * base) for k in rates}
    ok = all(abs(v - 1.0) <= 0.15 for v in devs.values())
    _report("02 spectral-gap order", ok,
            "rate/sqrt(kappa) ratios " + str({k: round(v, 3) for k, v in devs.items()}),
            time.time() - t0, 10.0)


def test_c03_constants_pipeline():
    t0 = time.time()
    gen = np.random.default_rng(2024)
    n_specs = 1000
    failures = []
    for trial in range(n_specs):
        d = int(gen.integers(1, 4))
        kap = float(np.exp(gen.uniform(np.log(0.05), np.log(5.0))))
        lk = kap * float(gen.uniform(1.0, 3.0))
        lg = float(np.exp(gen.uniform(np.log(0.01), np.log(2.0))))
        u = float(np.exp(gen.uniform(np.log(0.3), np.log(3.0))))
        radius = 0.0 if trial % 5 == 0 else float(gen.uniform(0.1, 3.0))
        gamma = math.sqrt(2.0 * lg * lg * u / kap) * float(gen.uniform(1.1, 6.0))
        eigs = np.linspace(kap, lk, d)
        ext = ExternalForce.custom(force=lambda x: -x, k_matrix=np.diag(eigs),
                                   lip_g=lg, radius=radius, dim=d)
        spec = ModelSpec(external=ext, interaction=InteractionForce.none(),
                         gamma=gamma, u=u, dim=d)
        mc = derive_constants(spec)
        prof = mc.profile
        if radius == 0.0:
            # degenerate chain must collapse exactly
            if not (mc.radius_sq == 0.0 and mc.glue_offset == 0.0
                    and mc.small_cutoff == 0.0 and prof.is_identity):
                failures.append((trial, "degenerate chain"))
            continue
        root = math.sqrt(mc.radius_sq)
        lo = (2.0 / 3.0) * min(1.0, mc.alpha) * root
        hi = 4.0 * max(math.sqrt(8.0) * (lk + lg) * u / (gamma * math.sqrt(kap)), 1.0) * root
        if not (lo - 1e-9 <= mc.small_cutoff <= hi + 1e-9):
            failures.append((trial, "cutoff bracket"))
        s = np.linspace(0.0, 1.2 * prof.cutoff, 1000)
        psi = prof.psi(s)
        if not (np.all(psi >= 0.5 - 1e-12) and np.all(psi <= 1.0 + 1e-12)):
            failures.append((trial, "psi range"))
        f = prof.f_knots
        if not np.all(np.diff(f) >= -1e-15):
            failures.append((trial, "f not increasing"))
        if not np.all(np.diff(f, 2) <= 1e-12):
            failures.append((trial, "f not concave"))
        r = np.linspace(0.0, 2.0 * prof.cutoff, 64)[1:]
        fv = prof.value(r)
        if not (np.all(prof.slope_at_cutoff * r <= fv + 1e-12)
                and np.all(fv <= r + 1e-12)):
            failures.append((trial, "f sandwich"))
    ok = not failures
    _report("03 constants pipeline", ok,
            f"{n_specs} random specs, failures: {failures[:3]}",
            time.time() - t0, 30.0)


def test_c04_metric_axioms():
    t0 = time.time()
    tol = 1e-10
    worst_tri, worst_sand = 0.0, 0.0
    ok = True
    for dim in (1, 2, 3):
        spec = dw_model(dim=dim)
        mc = derive_constants(spec)
        rho = GroundMetric.from_constants(spec, mc, "rho")
        gen = np.random.default_rng(100 + dim)
        n = 10000
        (ax, ay), (bx, by), (cx, cy) = (
            (2.0 * gen.normal(size=(n, dim)), 2.0 * gen.normal(size=(n, dim)))
            for _ in range(3))
        ab = rho.dist_zw(ax - bx, ay - by)
        bc = rho.dist_zw(bx - cx, by - cy)
        ac = rho.dist_zw(ax - cx, ay - cy)
        tri = float(np.max(ac - ab - bc))
        worst_tri = max(worst_tri, tri)
        ok = ok and tri <= tol
        e = euclidean_norm(ax - bx, ay - by)
        sand = float(max(np.max(mc.equiv_lower * e - ab), np.max(ab - mc.equiv_upper * e)))
        worst_sand = max(worst_sand, sand)
        ok = ok and sand <= tol
    _report("04 metric axioms", ok,
            f"worst triangle excess {worst_tri:.2e}, worst sandwich excess {worst_sand:.2e}",
            time.time() - t0, 10.0)


def test_c05_coupling_validity():
    t0 = time.time()
    spec = dw_model()
    mc = derive_constants(spec)
    # blend identity at 1e5 random points
    control = CouplingControl.for_constants(mc, mode="reflection_mix")
    gen = np.random.default_rng(7)
    z = 3.0 * gen.normal(size=(100000, 1))
    w = 3.0 * gen.normal(size=(100000, 1))
    rc = rc_value(control, spec, mc, z, w)
    sc = sc_value(rc)
    identity_ok = bool(np.all(np.abs(rc ** 2 + sc ** 2 - 1.0) <= 1e-12))

    n = 10000
    h = 0.01
    cfg = IntegratorConfig(step=h, horizon=5.0, seed=11)
    fx, fy = gaussian_ensemble(0.0, 0.0, 1.0, n=n, dim=1, seed=21)
    state = pair_state((fx, fy), (fx + 2.0, fy))
    dumps = np.linspace(1.0, 5.0, 5)
    traj = coupled_trajectory(spec, state, control, cfg, mc, dump_times=dumps)
    indep_first = simulate(spec, *gaussian_ensemble(0.0, 0.0, 1.0, n=n, dim=1, seed=22),
                           IntegratorConfig(step=h, horizon=5.0, seed=1011),
                           dump_times=dumps)
    sx, sy = gaussian_ensemble(0.0, 0.0, 1.0, n=n, dim=1, seed=23)
    indep_second = simulate(spec, sx + 2.0, sy,
                            IntegratorConfig(step=h, horizon=5.0, seed=2011),
                            dump_times=dumps)
    report = marginal_check(traj, indep_first, indep_second, threshold=4.0)
    reflected = float(np.mean(traj.rc_mean)) > 0.01  # the mix actually reflects
    ok = identity_ok and report.ok and reflected
    _report("05 coupling validity", ok,
            f"rc^2+sc^2 exact: {identity_ok}, max |z|-score {report.max_abs_z:.2f}, "
            f"mean rc {float(np.mean(traj.rc_mean)):.3f}",
            time.time() - t0, 120.0)


def test_c06_double_well_contraction():
    t0 = time.time()
    doc = {"experiment": "contract_classical",
           "model": {"dimension": 1, "gamma": 10.0, "u": 1.0,
                     "external": {"kind": "double_well", "beta": 1.0},
                     "interaction": {"kind": "none"}},
           "integrator": {"step": 0.01, "horizon": 10.0, "seed": 31},
           "replicas": 10000,
           "initial": {"kind": "gaussian", "std": 0.5, "mean_x": 0.0},
           "initial_second": {"shift_x": 1.5},
           "dump_count": 21,
           "step_refinement": True}
    rec = run_contraction(load_config(doc))
    ineq = rec.stats["inequality"]
    decay = rec.stats["decay_factor"]
    ok = ineq["ok"] and decay <= 0.5 and not rec.flagged
    _report("06 double-well contraction", ok,
            f"one-sided inequality ok={ineq['ok']} (margin {ineq['min_margin']:.3g}), "
            f"decay factor {decay:.3f} <= 0.5, claimed c={rec.stats['rate_claimed']}",
            time.time() - t0, 300.0)


def test_c07_nonlinear_contraction():
    t0 = time.time()
    bare = quad_model(1)
    cap = derive_constants(bare).max_interaction_lip
    k = cap / 2.0
    doc = {"experiment": "contract_nonlinear",
           "model": {"dimension": 1, "gamma": 2.0, "u": 1.0,
                     "external": {"kind": "quadratic", "k_matrix": [[1.0]]},
                     "interaction": {"kind": "linear", "k": k}},
           "integrator": {"step": 0.01, "horizon": 10.0, "seed": 41},
           "replicas": 2000,
           "initial": {"kind": "gaussian", "std": 1.0},
           "initial_second": {"shift_x": 2.0, "shift_y": 1.0},
           "dump_count": 21,
           "step_refinement": True}
    rec = run_contraction(load_config(doc))
    claimed = rec.stats["rate_claimed"]
    expected = min(2.0 / 32.0, 1.0 / 16.0 - 0.0)
    ineq = rec.stats["inequality"]
    ok = (ineq["ok"] and abs(claimed - expected) < 1e-12
          and rec.constants["interaction_ok"] is True)
    _report("07 nonlinear contraction", ok,
            f"k={k:.5f} (half cap), claimed rate {claimed:.5f}, "
            f"inequality ok={ineq['ok']} (margin {ineq['min_margin']:.3g})",
            time.time() - t0, 180.0)


def test_c08_propagation_of_chaos():
    t0 = time.time()
    bare = quad_model(1)
    cap = derive_constants(bare).max_interaction_lip
    doc = {"experiment": "chaos",
           "model": {"dimension": 1, "gamma": 2.0, "u": 1.0,
                     "external": {"kind": "quadratic", "k_matrix": [[1.0]]},
                     "interaction": {"kind": "linear", "k": cap / 2.0}},
           "integrator": {"step": 0.01, "horizon": 2.0, "seed": 51},
           "ensemble_sizes": [8, 16, 32, 64, 128],
           "proxy_size": 1024,
           "subsample_pairs": 256,
           "eval_time": 2.0,
           "initial": {"kind": "gaussian", "std": 1.0}}
    rec = run_chaos(load_config(doc))
    slope = rec.stats["slope"]
    ok = -0.7 <= slope <= -0.3
    _report("08 propagation of chaos", ok,
            f"log-log slope {slope:.3f} in [-0.7, -0.3], "
            f"ci95 {[round(v, 3) for v in rec.stats['slope_ci95']]}",
            time.time() - t0, 900.0)


def test_c09_unconfined_exact_check():
    t0 = time.time()
    h = 1e-3
    spec = ModelSpec(external=ExternalForce.zero(1),
                     interaction=InteractionForce.linear_difference(1.0, dim=1),
                     gamma=2.0, u=1.0, dim=1)
    mc = derive_constants(spec)
    expected_rate = min(2.0 / 16.0, 1.0 / (4.0 * 2.0))
    assert mc.c_unconfined == pytest.approx(expected_rate)
    control = CouplingControl(mode="synchronous", xi=1e-3)
    state = pair_state((np.array([0.5]), np.array([0.25])),
                       (np.array([-0.5]), np.array([-0.25])))
    dumps = np.linspace(0.0, 20.0, 100)
    traj, other = (coupled_trajectory(spec, state, control,
                                      IntegratorConfig(step=h, horizon=20.0, seed=seed),
                                      mc, dump_times=dumps, law_mean=np.zeros(1))
                   for seed in (61, 62))
    metric = GroundMetric.from_constants(spec, mc, "r_tilde")
    r = traj.distance_series(metric)[:, 0]
    bound = r[0] * np.exp(-mc.c_unconfined * traj.times) * (1.0 + 10.0 * h)
    excess = float(np.max(r - bound))
    # noise must cancel in the synchronous difference: (z, w) may not depend
    # on the seed (up to rounding), while each copy alone must
    zw_gap = max(float(np.max(np.abs((traj.ax - traj.bx) - (other.ax - other.bx)))),
                 float(np.max(np.abs((traj.ay - traj.by) - (other.ay - other.by)))))
    noise_gap = float(np.max(np.abs(traj.ax - other.ax)))
    ok = excess <= 0.0 and zw_gap <= 1e-10 and noise_gap >= 0.1
    _report("09 unconfined exact", ok,
            f"max bound excess {excess:.2e}, rate {mc.c_unconfined}, "
            f"seed gap of (z, w) {zw_gap:.1e}, of the copies {noise_gap:.2f}",
            time.time() - t0, 5.0)


def test_c10_moment_control():
    t0 = time.time()
    doc = {"experiment": "moments",
           "model": {"dimension": 1, "gamma": 10.0, "u": 1.0,
                     "external": {"kind": "double_well", "beta": 1.0},
                     "interaction": {"kind": "none"}},
           "integrator": {"step": 0.01, "horizon": 50.0, "seed": 71},
           "replicas": 1000,
           "initial": {"kind": "gaussian", "std": 1.0},
           "dump_count": 11}
    rec = run_moments(load_config(doc))
    ok = rec.stats["plateau"] and rec.stats["blow_up_at"] is None
    _report("10 moment control", ok,
            f"plateau={rec.stats['plateau']}, final E|X|^2={rec.stats['final_ex2']:.3f}",
            time.time() - t0, 120.0)
