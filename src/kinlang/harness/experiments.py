"""Experiment drivers.

Three families of desk-scale experiments, each emitting a reproducible
:class:`ExperimentRecord`:

* ``run_contraction``: evolve a batch of coupled pairs from two initial
  laws, record the mean distance curve under the experiment's metric,
  fit a decay rate, and check the one-sided guarantee
  ``E[d(t)] <= exp(-c t) E[d(0)] + budget`` with an explicit tolerance
  budget (2 bootstrap-free standard errors plus a step-size term whose
  coefficient can be calibrated by an h-refinement rerun).  A contraction
  run keeps no phase-space dumps: :func:`coupled_rows` reduces each dump,
  as the stepping loop hands it over, to its pairs' distances and those to
  their mean and standard error, and the h/2 rerun holds nothing of the h
  run but its curve.  ``kinlang couple`` reduces its dumps the same way, to
  per-dump means.
* ``run_chaos``: couple N independent nonlinear copies (law fed by a
  large proxy ensemble) componentwise to the N-particle system, with the
  config's coupling mode and width, estimate
  the normalized-1-distance Wasserstein gap at a fixed time by exact
  assignment over replica pairs, sweep N, and fit the log-log slope.
* ``run_moments``: track second moments and the contraction Lyapunov
  form along a particle run and report the plateau verdict.

All estimators average in a fixed order over replica index, so records
are bitwise reproducible from (config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .. import rng
from ..constants import MetricConstants, derive_constants
from ..coupling import CouplingControl, purely_synchronous, rc_value, simulate_coupled
from ..dynamics import (BlowUpError, IntegratorConfig, Trajectory, dirac_ensemble, dump_steps,
                        gaussian_ensemble, march, simulate, system_step, track_moments)
from ..metrics import GroundMetric, project_centered
from ..model import InteractionForce, ModelSpec
from ..transport import bootstrap_se, cost_matrix_zw, wasserstein_from_costs
from .config import ConfigError, ExperimentConfig

Array = np.ndarray


@dataclass(frozen=True)
class ExperimentRecord:
    """Everything needed to audit one run, JSON-serializable via to_dict."""

    experiment: str
    config_hash: str
    seed: int
    constants: dict
    stats: dict
    curves: dict
    flagged: bool
    diagnostics: tuple

    def to_dict(self) -> dict:
        return {"experiment": self.experiment, "config_hash": self.config_hash,
                "seed": self.seed, "constants": self.constants, "stats": self.stats,
                "flagged": self.flagged, "diagnostics": list(self.diagnostics),
                "curves": {k: {"columns": v[0], "rows": np.asarray(v[1]).tolist()}
                           for k, v in self.curves.items()}}


# ---------------------------------------------------------------------------
# initial laws
# ---------------------------------------------------------------------------

def _draw_initial(doc: dict, spec: ModelSpec, n: int, seed: int, substream: int,
                  base: Optional[tuple] = None) -> tuple[Array, Array]:
    kind = doc.get("kind")
    d = spec.dim
    if kind is None and base is not None:
        x, y = base
        return (x + float(doc.get("shift_x", 0.0)),
                y + float(doc.get("shift_y", 0.0)))
    if kind == "dirac":
        return dirac_ensemble(doc.get("x", np.zeros(d)), doc.get("y", np.zeros(d)), n)
    if kind == "gaussian":
        return gaussian_ensemble(float(doc.get("mean_x", 0.0)),
                                 float(doc.get("mean_y", 0.0)), float(doc.get("std", 1.0)),
                                 n, d, seed, substream, center=doc.get("center", False))
    if kind == "csv":
        rows = np.loadtxt(doc["path"], delimiter=",", skiprows=1, ndmin=2)
        if rows.shape[1] != 2 * d:
            raise ConfigError(f"initial csv must have {2 * d} columns (x..., y...)")
        # rows are recycled when more replicas than rows are requested
        idx = np.resize(np.arange(rows.shape[0]), n)
        return rows[idx, :d].copy(), rows[idx, d:].copy()
    raise ConfigError(f"unknown initial kind {kind!r}")


def _integrator(cfg: ExperimentConfig, **over) -> IntegratorConfig:
    return IntegratorConfig(**{"step": cfg.step, "horizon": cfg.horizon,
                               "scheme": cfg.scheme, "seed": cfg.seed, **over})


def build_initial_pair(cfg: ExperimentConfig) -> tuple[Array, Array]:
    """Coupled initial batch, positions and velocities stacked on a copy
    axis, (2, R, d) each: common draws, second law defaulting to a shifted
    copy of the first (a comonotone coupling of the two laws)."""
    first = _draw_initial(cfg.initial, cfg.spec, cfg.replicas, cfg.seed, rng.SUB_INIT)
    second_doc = cfg.initial_second or {"shift_x": 1.0}
    if "kind" in second_doc:
        second = _draw_initial(second_doc, cfg.spec, cfg.replicas, cfg.seed,
                               rng.SUB_SECOND_INIT)
    else:
        second = _draw_initial(second_doc, cfg.spec, cfg.replicas, cfg.seed,
                               rng.SUB_INIT, base=first)
    return np.stack((first[0], second[0])), np.stack((first[1], second[1]))


# ---------------------------------------------------------------------------
# rate fitting and budgets
# ---------------------------------------------------------------------------

def fit_decay_rate(times: Array, means: Array, ses: Array,
                   snr: float = 5.0) -> Optional[dict]:
    """OLS decay rate of log(mean) over the window where the signal beats
    ``snr`` times its standard error (avoids fitting the noise floor)."""
    mask = (means > 0) & (means > snr * ses)
    if mask.sum() < 3:
        return None
    t = times[mask]
    slope, se = _ols_slope(t, np.log(means[mask]))
    return {"rate": -slope, "rate_se": se,
            "window": [float(t[0]), float(t[-1])], "points": int(mask.sum())}


def _ols_slope(x: Array, y: Array) -> tuple[float, float]:
    """Least-squares slope of y on x and its standard error."""
    a = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(a, y, rcond=None)
    dof = max(len(x) - 2, 1)
    resid_var = float(res[0]) / dof if len(res) else 0.0
    x_var = float(np.sum((x - x.mean()) ** 2))
    se = math.sqrt(resid_var / x_var) if x_var > 0 else float("nan")
    return float(coef[0]), se


def step_budget_coefficient(stat_h: Array, stat_h2: Array, h: float) -> float:
    """Refinement-study coefficient: budget term = c_h * h covers twice the
    observed h -> h/2 shift of the statistic."""
    return float(2.0 * np.max(np.abs(stat_h - stat_h2)) / h)


def check_one_sided_decay(times: Array, means: Array, ses: Array, rate: float,
                          c_h: float, h: float) -> dict:
    budget = 2.0 * ses + c_h * h
    rate = 0.0 if not np.isfinite(rate) else rate
    bound = means[0] * np.exp(-rate * times) + budget
    ok = bool(np.all(means <= bound + 1e-14))
    margin = float(np.min(bound - means))
    return {"ok": ok, "min_margin": margin, "rate_claimed": rate,
            "c_h": c_h, "budget_se_factor": 2.0}


# ---------------------------------------------------------------------------
# contraction experiments
# ---------------------------------------------------------------------------

_METRIC_FOR = {"contract_strong": "r_strong", "contract_classical": "rho",
               "contract_nonlinear": "rho", "unconfined_contract": "r_tilde"}
_RATE_FOR = {"contract_strong": "c_strong", "contract_classical": "c_classical",
             "contract_nonlinear": "c_nonlinear", "unconfined_contract": "c_unconfined"}


def _coupling_control(cfg: ExperimentConfig, constants: MetricConstants) -> CouplingControl:
    """Coupling mode and blend width: the config's, else the experiment's
    default mode and a width scaled to the cutoff."""
    mode = cfg.coupling_mode or ("synchronous" if cfg.experiment in
                                 ("contract_strong", "unconfined_contract")
                                 else "reflection_mix")
    if cfg.coupling_xi is not None:
        return CouplingControl(mode=mode, xi=cfg.coupling_xi)
    return CouplingControl.for_constants(constants, mode=mode)


def _coupled_model(cfg: ExperimentConfig) -> tuple[ModelSpec, Optional[Array]]:
    """The model a coupled run integrates and the fixed law mean both copies
    use (None: each copy's own empirical marginal).

    The strong and classical contractions drop the interaction.  Between
    two Dirac laws under a pure linear splitting, the centered unconfined
    theory keeps the law mean at the origin exactly.
    """
    spec = cfg.spec
    if cfg.experiment in ("contract_strong", "contract_classical"):
        return replace(spec, interaction=InteractionForce.none()), None
    if cfg.experiment == "unconfined_contract":
        if not spec.interaction.has_split:
            raise ConfigError("unconfined_contract needs an interaction splitting")
        both_dirac = (cfg.initial.get("kind") == "dirac"
                      and (cfg.initial_second or {}).get("kind") == "dirac")
        if both_dirac and spec.interaction.split_g is None:
            return spec, np.zeros(spec.dim)
    return spec, None


def coupled_rows(cfg: ExperimentConfig, constants: MetricConstants, step: float,
                 reduce: Callable) -> tuple[Array, Array, Array]:
    """March the coupled pairs a config describes at ``step``, keeping one
    row per dump: ``reduce(z, w)`` of its pair differences Z and W, fresh
    arrays that ``reduce`` may keep.  Returns the dump times, the rows
    stacked in a (T, ...) array and the mean blend at each dump (0
    throughout a purely synchronous run); no phase-space dump is kept.
    Dumps and blow-ups follow :func:`kinlang.dynamics.march`."""
    spec, law_mean = _coupled_model(cfg)
    control = _coupling_control(cfg, constants)
    icfg = _integrator(cfg, step=step)
    synchronous = purely_synchronous(control, constants)
    steps = dump_steps(icfg, cfg.dump_times)
    rows, rc_mean = [], np.zeros(len(steps))

    def keep(k: int, state: tuple) -> None:
        x, y = state
        z, w = x[0] - x[1], y[0] - y[1]
        if not synchronous:
            rc_mean[len(rows)] = np.mean(rc_value(control, spec, constants, z, w))
        rows.append(reduce(z, w))

    # the draws are counter-keyed: a blow-up replay draws the same start
    simulate_coupled(spec, lambda: build_initial_pair(cfg), control, icfg, constants,
                     (cfg.replicas, spec.dim), keep, cfg.dump_times, law_mean=law_mean)
    return steps * step, np.array(rows), rc_mean


def _contraction_curve(cfg: ExperimentConfig, constants: MetricConstants,
                       step: float) -> tuple[Array, Array, Array, Array]:
    """Dump times, the mean distance curve under the experiment's metric
    with its standard errors, and the mean blend at each dump.  Each dump
    is reduced to its pairs' distances under the metric and then to their
    mean and standard error, the same bits as the row means and standard
    deviations of the (T, R) distances."""
    metric = GroundMetric.from_constants(cfg.spec, constants, _METRIC_FOR[cfg.experiment])

    def mean_and_se(z: Array, w: Array) -> tuple[float, float]:
        dists = metric.dist_zw(z, w)
        se = dists.std(ddof=1) / math.sqrt(len(dists)) if len(dists) > 1 else 0.0
        return dists.mean(), se

    times, curve, rc_mean = coupled_rows(cfg, constants, step, mean_and_se)
    return times, curve[:, 0], curve[:, 1], rc_mean


def run_contraction(cfg: ExperimentConfig) -> ExperimentRecord:
    """Coupled-pair contraction experiment for the four contract_* kinds."""
    spec = cfg.spec
    constants = derive_constants(spec)
    diags = list(constants.diagnostics)
    flagged = bool(diags)
    if flagged and not constants.friction_ok:
        diags.append("no guarantee: running outside the admissible regime")

    times, means, ses, rc_mean = _contraction_curve(cfg, constants, cfg.step)
    c_h = 0.0
    if cfg.step_refinement:
        means_h2 = _contraction_curve(cfg, constants, cfg.step / 2.0)[1]
        c_h = step_budget_coefficient(means, means_h2, cfg.step)

    rate_name = _RATE_FOR[cfg.experiment]
    claimed = getattr(constants, rate_name)
    claimed = float("nan") if claimed is None else claimed
    fitted = fit_decay_rate(times, means, ses)
    check = check_one_sided_decay(times, means, ses, claimed, c_h, cfg.step)
    control = _coupling_control(cfg, constants)
    snapshot = constants.to_dict()  # non-finite numbers as None
    stats = {"rate_claimed_name": rate_name, "rate_claimed": snapshot[rate_name],
             "fit": fitted, "inequality": check,
             "initial_mean_dist": float(means[0]),
             "final_mean_dist": float(means[-1]),
             "decay_factor": float(means[-1] / means[0]) if means[0] > 0 else None,
             "blend_width": control.xi,
             "blend_resolved": bool(control.resolved_by(spec, cfg.step))}
    curves = {"distance": (["t", "mean_dist", "se_dist", "rc_mean"],
                           np.column_stack([times, means, ses, rc_mean]))}
    return ExperimentRecord(experiment=cfg.experiment, config_hash=cfg.hash,
                            seed=cfg.seed, constants=snapshot,
                            stats=stats, curves=curves, flagged=flagged,
                            diagnostics=tuple(diags))


# ---------------------------------------------------------------------------
# propagation of chaos
# ---------------------------------------------------------------------------

def _law_mean_series(cfg: ExperimentConfig) -> Array:
    """Evolve the proxy ensemble, whose empirical measure stands in for the
    nonlinear dynamics' law, to the evaluation time, keeping only its
    empirical mean after each step."""
    spec = cfg.spec
    init = dict(cfg.initial)
    if cfg.experiment == "unconfined_chaos":
        init.setdefault("center", True)
    x, y = _draw_initial(init, spec, cfg.proxy_size, cfg.seed, rng.SUB_INIT)
    icfg = _integrator(cfg, horizon=cfg.eval_time, substream=rng.SUB_PROXY)
    means = np.empty((icfg.n_steps + 1, spec.dim))

    def keep(k, state):
        means[k] = state[0].mean(axis=0)

    march(lambda: (x.copy(), y.copy()), icfg, system_step(spec, icfg, x.shape), keep,
          dump_times=icfg.step * np.arange(icfg.n_steps + 1))
    return means


def _slot_ell1_cost(z: Array, w: Array) -> Array:
    """Mean over slots of |dx| + |dy| for every replica pair of a block:
    ``(|z| + |w|).mean(axis=-1)`` op for op, squaring, reducing and
    taking roots in the blocks' own memory (it overwrites ``z`` and ``w``)."""
    norms = []
    for v in (z, w):
        np.multiply(v, v, out=v)
        # a sum over a single component is that component
        sq = v[..., 0] if v.shape[-1] == 1 else np.add.reduce(v, axis=-1)
        norms.append(np.sqrt(sq, out=sq))
    return np.add(*norms, out=norms[0]).mean(axis=-1)


def _chaos_point(cfg: ExperimentConfig, constants: MetricConstants,
                 control: CouplingControl, law_means: Array,
                 n_slots: int) -> tuple[float, float]:
    """W1 between N = ``n_slots`` nonlinear copies and the N-particle
    system, coupled slot by slot, with its bootstrap standard error.

    The slots march to the evaluation time through
    :func:`kinlang.coupling.simulate_coupled` on the stacked (2, R, N, d)
    state, both copies starting from the same draws, and the cost matrix
    is built from the final state: no dump is copied and the initial
    draws are not held (a blow-up replay draws them again).  Everything
    goes out of scope on return, before the next N runs."""
    spec = cfg.spec
    shape = (cfg.subsample_pairs, n_slots, spec.dim)
    # key initials and slot noise by N so the sweep points decorrelate
    seed_n = cfg.seed + n_slots
    icfg = _integrator(cfg, horizon=cfg.eval_time, seed=seed_n)

    def start() -> tuple[Array, Array]:
        x, y = _draw_initial(cfg.initial, spec, cfg.subsample_pairs * n_slots, seed_n,
                             rng.SUB_SLOTS)
        x, y = x.reshape(shape), y.reshape(shape)
        return np.stack((x, x)), np.stack((y, y))

    x, y = simulate_coupled(spec, start, control, icfg, constants, shape,
                            law_means=law_means)
    ax, ay, bx, by = x[0], y[0], x[1], y[1]
    if cfg.experiment == "unconfined_chaos":
        ax, ay = project_centered((ax, ay))
        bx, by = project_centered((bx, by))
    costs = cost_matrix_zw(_slot_ell1_cost, ax, ay, bx, by)
    return wasserstein_from_costs(costs), bootstrap_se(costs, cfg.seed, n_boot=100)


def run_chaos(cfg: ExperimentConfig) -> ExperimentRecord:
    """N-sweep of the gap between the particle system and independent
    nonlinear copies, coupled slot by slot."""
    spec = cfg.spec
    constants = derive_constants(spec)
    unconfined = cfg.experiment == "unconfined_chaos"
    law_means = _law_mean_series(cfg)
    control = _coupling_control(cfg, constants)

    r = cfg.subsample_pairs
    rows = [(n_slots, *_chaos_point(cfg, constants, control, law_means, n_slots))
            for n_slots in cfg.ensemble_sizes]

    ns = np.array([row[0] for row in rows], dtype=float)
    ws = np.array([row[1] for row in rows])
    fit = _loglog_fit(ns, ws)
    # the theory's prefactor has no formula; report the empirical surrogate
    # max_N W sqrt(N) c (an estimate, not a certified constant)
    c_rate = constants.c_chaos if not unconfined else constants.c_unconfined
    surrogate = float(np.max(ws * np.sqrt(ns)) * c_rate) \
        if c_rate and np.isfinite(c_rate) else None
    stats = {"eval_time": cfg.eval_time, "proxy_size": cfg.proxy_size,
             "subsample_pairs": r, "slope": fit["slope"],
             "slope_se": fit["slope_se"], "slope_ci95": fit["ci95"],
             "halving_ratios": [float(ws[i] ** 2 / ws[i + 1] ** 2)
                                for i in range(len(ws) - 1)],
             "prefactor_surrogate_empirical": surrogate}
    curves = {"chaos": (["n", "w1_ell1", "w1_se"], np.column_stack([ns, ws,
                        np.array([row[2] for row in rows])]))}
    return ExperimentRecord(experiment=cfg.experiment, config_hash=cfg.hash,
                            seed=cfg.seed, constants=constants.to_dict(),
                            stats=stats, curves=curves,
                            flagged=bool(constants.diagnostics),
                            diagnostics=constants.diagnostics)


def _loglog_fit(ns: Array, ws: Array) -> dict:
    slope, se = _ols_slope(np.log(ns), np.log(ws))
    return {"slope": slope, "slope_se": se,
            "ci95": [slope - 2 * se, slope + 2 * se]}


# ---------------------------------------------------------------------------
# moment control
# ---------------------------------------------------------------------------

def simulate_particles(cfg: ExperimentConfig) -> Trajectory:
    """The particle run a config describes: the model's own forces, started
    from the initial law (centered for an unconfined model, whatever the
    initial kind)."""
    spec = cfg.spec
    x, y = _draw_initial(cfg.initial, spec, cfg.replicas, cfg.seed, rng.SUB_INIT)
    if spec.unconfined:
        x, y = project_centered((x, y))
    return simulate(spec, x, y, _integrator(cfg), dump_times=cfg.dump_times)


def run_moments(cfg: ExperimentConfig) -> ExperimentRecord:
    """Moment curves of a particle run plus the plateau verdict."""
    spec = cfg.spec
    constants = derive_constants(spec)
    try:
        traj = simulate_particles(cfg)
    except BlowUpError as err:
        stats = {"plateau": False, "blow_up_at": err.t}
        curves = {}
    else:
        if spec.unconfined:
            mom = track_moments(traj, spec, twist=constants.sigma,
                                k_matrix=spec.interaction.split_matrix)
        else:
            twist = constants.tau if constants.friction_ok else constants.lam
            mom = track_moments(traj, spec, twist=twist)
        stats = {"plateau": bool(mom.plateau()), "blow_up_at": None,
                 "final_ex2": float(mom.ex2[-1]), "final_ey2": float(mom.ey2[-1]),
                 "final_lyapunov": float(mom.lyapunov[-1])}
        curves = {"moments": (["t", "ex2", "ey2", "lyapunov"],
                              np.column_stack([mom.times, mom.ex2, mom.ey2,
                                               mom.lyapunov]))}
    return ExperimentRecord(experiment=cfg.experiment, config_hash=cfg.hash,
                            seed=cfg.seed, constants=constants.to_dict(),
                            stats=stats, curves=curves,
                            flagged=bool(constants.diagnostics),
                            diagnostics=constants.diagnostics)


def run_experiment(cfg: ExperimentConfig) -> ExperimentRecord:
    if cfg.experiment in _METRIC_FOR:
        return run_contraction(cfg)
    if cfg.experiment in ("chaos", "unconfined_chaos"):
        return run_chaos(cfg)
    if cfg.experiment == "moments":
        return run_moments(cfg)
    raise ConfigError(f"unknown experiment {cfg.experiment!r}")
