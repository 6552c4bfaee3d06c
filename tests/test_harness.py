from __future__ import annotations

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kinlang import coupling, rng
from kinlang.constants import derive_constants
from kinlang.dynamics import BlowUpError
from kinlang.harness import cli as cli_mod
from kinlang.harness import record as record_mod
from kinlang.harness.cli import main as cli_main
from kinlang.harness.config import (CONFIG_SCHEMA, ConfigError, config_hash, load_config,
                                    load_config_file, validate_config)
from kinlang.harness import experiments
from kinlang.harness.experiments import (_METRIC_FOR, ExperimentRecord, _chaos_point,
                                         _contraction_curve, _coupled_model, _coupling_control,
                                         _draw_initial, _integrator, _law_mean_series,
                                         build_initial_pair, coupled_rows, fit_decay_rate,
                                         run_chaos, run_contraction, run_experiment,
                                         run_moments)
from kinlang.harness.record import record_json, write_record
from kinlang.metrics import GroundMetric, project_centered
from kinlang.model import ExternalForce
from kinlang.transport import SIZE_CAP, bootstrap_se, cost_matrix_zw, wasserstein_from_costs
from oracles import chaos_doc, coupled_trajectory, ell1_norm, pair_state

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def quad_doc(**over):
    doc = {"experiment": "contract_strong",
           "model": {"dimension": 1, "gamma": 2.0, "u": 1.0,
                     "external": {"kind": "quadratic", "k_matrix": [[1.0]]},
                     "interaction": {"kind": "none"}},
           "integrator": {"step": 0.001, "horizon": 4.0, "seed": 7},
           "replicas": 4,
           "initial": {"kind": "dirac", "x": [1.0], "y": [0.0]},
           "initial_second": {"kind": "dirac", "x": [0.0], "y": [0.0]},
           "dump_count": 9}
    doc.update(over)
    return doc


def unconfined_doc(**over):
    doc = json.loads((CONFIGS / "unconfined.json").read_text())
    doc.update(over)
    return doc


def dw_doc(**over):
    doc = {"experiment": "moments",
           "model": {"dimension": 1, "gamma": 10.0, "u": 1.0,
                     "external": {"kind": "double_well", "beta": 1.0},
                     "interaction": {"kind": "none"}},
           "integrator": {"step": 0.01, "horizon": 5.0, "seed": 5},
           "replicas": 64, "dump_count": 11}
    doc.update(over)
    return doc


def kept_trajectory(cfg, constants, step):
    """The coupled pairs of a contraction config at ``step`` with every
    dump kept, through the oracle :func:`coupled_trajectory`: the reference
    for the runs that reduce each dump as it comes."""
    spec, law_mean = _coupled_model(cfg)
    return coupled_trajectory(spec, build_initial_pair(cfg), _coupling_control(cfg, constants),
                              _integrator(cfg, step=step), constants,
                              dump_times=cfg.dump_times, law_mean=law_mean)


class TestConfig:
    def test_schema_error_carries_pointer(self):
        doc = quad_doc()
        doc["integrator"]["step"] = -1.0
        with pytest.raises(ConfigError, match="/integrator/step"):
            validate_config(doc)

    def test_unknown_experiment_rejected(self):
        doc = quad_doc(experiment="warp_drive")
        with pytest.raises(ConfigError, match="/experiment"):
            validate_config(doc)

    def test_dump_times_beyond_horizon_rejected(self):
        doc = quad_doc(dump_times=[0.0, 99.0])
        with pytest.raises(ConfigError, match="dump_times"):
            load_config(doc)

    def test_subsample_pairs_above_the_solver_cap_rejected(self):
        doc = quad_doc(experiment="chaos", subsample_pairs=SIZE_CAP + 1)
        with pytest.raises(ConfigError, match="/subsample_pairs"):
            load_config(doc)
        load_config(quad_doc(experiment="chaos", subsample_pairs=SIZE_CAP))

    # one size, and one size twice: the slope would be fitted through one N
    @pytest.mark.parametrize("sizes", [[8], [8, 8]])
    def test_fewer_than_two_distinct_ensemble_sizes_rejected(self, sizes):
        doc = quad_doc(experiment="chaos", ensemble_sizes=sizes)
        with pytest.raises(ConfigError, match="/ensemble_sizes"):
            load_config(doc)

    # a misspelt key would run with the default it misspelt; the retired
    # wasserstein_curve option is unknown like any other key
    @pytest.mark.parametrize("section, key", [(None, "dump_cont"), ("integrator", "stepp"),
                                              ("coupling", "mod"), (None, "wasserstein_curve")])
    def test_unknown_key_rejected(self, section, key):
        doc = quad_doc(coupling={"mode": "synchronous"})
        (doc[section] if section else doc)[key] = 4
        pointer = f"/{section}" if section else "/"
        with pytest.raises(ConfigError, match=f"at {pointer}: .*'{key}' was unexpected"):
            load_config(doc)

    def test_hash_stable_and_order_independent(self):
        a = {"b": 1, "a": [1, 2]}
        b = {"a": [1, 2], "b": 1}
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 16

    def test_coupling_modes_are_the_coupling_modules(self):
        # the config module does not import the coupling module, so this
        # test is what keeps the two lists in step
        schema = CONFIG_SCHEMA["properties"]["coupling"]["properties"]["mode"]
        assert schema["enum"] == list(coupling.MODES) == ["synchronous", "reflection_mix"]

    @pytest.mark.parametrize("key, literal", [("gamma", "NaN"), ("horizon", "Infinity"),
                                              ("horizon", "-Infinity")])
    def test_non_finite_literals_rejected(self, tmp_path, capsys, key, literal):
        doc = quad_doc()
        section = doc["integrator"] if key == "horizon" else doc["model"]
        section[key] = "@"
        cfgp = tmp_path / "nonfinite.json"
        cfgp.write_text(json.dumps(doc).replace('"@"', literal))
        with pytest.raises(ConfigError, match=literal):
            load_config_file(cfgp)
        assert cli_main(["run", "-c", str(cfgp), "--out", str(tmp_path / "runs")]) == 1
        assert literal in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    # inf passes every bound and NaN fails none, so neither is a number
    @pytest.mark.parametrize("section, key, value", [
        ("model", "gamma", float("inf")), ("integrator", "horizon", float("nan")),
        (None, "replicas", float("inf"))])
    def test_non_finite_numbers_rejected(self, section, key, value):
        doc = quad_doc()
        (doc[section] if section else doc)[key] = value
        pointer = f"/{section}/{key}" if section else f"/{key}"
        with pytest.raises(ConfigError, match=f"at {pointer}: "):
            load_config(doc)

    # the force documents stay open to their kind's parameters, but each
    # known one is a number: inf loaded as kappa = inf, NaN failed as an
    # asymmetric K
    @pytest.mark.parametrize("doc, section, key, value, pointer", [
        (quad_doc, "external", "k_matrix", [[float("inf")]], "/model/external/k_matrix/0/0"),
        (dw_doc, "external", "beta", float("nan"), "/model/external/beta"),
        (quad_doc, "interaction", "k", float("inf"), "/model/interaction/k")],
        ids=["k_matrix-inf", "beta-nan", "k-inf"])
    def test_non_finite_force_parameters_rejected(self, doc, section, key, value, pointer):
        doc = doc()
        if key == "k":
            doc["model"]["interaction"] = {"kind": "linear"}
        doc["model"][section][key] = value
        with pytest.raises(ConfigError, match=f"at {pointer}: .* is not of type 'number'"):
            load_config(doc)

    # each reached the run: a 1-d Dirac start under a 2-d double well ran
    # as a 1-d ensemble, and under a 2-d quadratic it failed in a matmul
    @pytest.mark.parametrize("law, key", [("initial", "x"), ("initial", "y"),
                                          ("initial_second", "x"), ("initial_second", "y")])
    @pytest.mark.parametrize("external", [
        {"kind": "double_well", "beta": 1.0},
        {"kind": "quadratic", "k_matrix": [[1.0, 0.0], [0.0, 1.0]]}],
        ids=["double_well", "quadratic"])
    def test_dirac_point_of_another_dimension_rejected(self, tmp_path, capsys, law, key,
                                                       external):
        doc = quad_doc()
        doc["model"].update(dimension=2, external=external)
        for name in ("initial", "initial_second"):
            doc[name].update(x=[0.5, 0.0], y=[0.0, 0.0])
        load_config(doc)
        doc[law][key] = [1.0]
        message = f"config invalid at /{law}/{key}: [1.0] does not have the dimension 2"
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert str(err.value) == message
        cfgp = tmp_path / "bad.json"
        cfgp.write_text(json.dumps(doc))
        assert cli_main(["run", "-c", str(cfgp), "--out", str(tmp_path / "runs")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    # a 2 x 2 K under a 1-d quadratic raised a ModelError without a
    # pointer; a 2 x 2 Kt under the 1-d unconfined model failed in a matmul
    # under run, yet constants printed its constants and exited 0
    @pytest.mark.parametrize("doc, section, key, matrix", [
        (quad_doc, "external", "k_matrix", [[1.0, 0.0], [0.0, 1.0]]),
        (quad_doc, "external", "k_matrix", [[1.0, 0.0]]),
        (unconfined_doc, "interaction", "kt_matrix", [[1.0, 0.0], [0.0, 1.0]]),
        (unconfined_doc, "interaction", "kt_matrix", [[1.0], [0.0]])],
        ids=["k-2x2", "k-1x2", "kt-2x2", "kt-2x1"])
    @pytest.mark.parametrize("command, full", [("run", True), ("constants", True),
                                               ("constants", False)],
                             ids=["run", "constants-config", "constants-model"])
    def test_matrix_of_another_dimension_rejected(self, tmp_path, capsys, doc, section, key,
                                                  matrix, command, full):
        doc = doc()
        doc["model"][section][key] = matrix
        cfgp = tmp_path / "bad.json"
        cfgp.write_text(json.dumps(doc if full else doc["model"]))
        outp = tmp_path / "out"
        assert cli_main([command, "-c", str(cfgp), "--out", str(outp)]) == 1
        pointer = ("/model" if full else "") + f"/{section}/{key}"
        assert (f"error: config invalid at {pointer}: {matrix!r} is not a 1 x 1 matrix"
                in capsys.readouterr().err)
        assert not outp.exists()

    # a contraction run failed with an IndexError, a moments run with an
    # index out of bounds
    @pytest.mark.parametrize("doc", [quad_doc, dw_doc], ids=["contraction", "moments"])
    def test_empty_dump_times_rejected(self, tmp_path, capsys, doc):
        doc = doc(dump_times=[])
        with pytest.raises(ConfigError, match=r"at /dump_times: \[\] should be non-empty"):
            load_config(doc)
        cfgp = tmp_path / "bad.json"
        cfgp.write_text(json.dumps(doc))
        assert cli_main(["run", "-c", str(cfgp), "--out", str(tmp_path / "runs")]) == 1
        assert "config invalid at /dump_times" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_default_step_follows_friction(self):
        doc = dw_doc()
        del doc["integrator"]["step"]
        cfg = load_config(doc)
        assert cfg.step == pytest.approx(min(0.01, 0.1 / 10.0))


class TestInitialLaws:
    def test_shift_sugar(self):
        cfg = load_config(quad_doc(initial={"kind": "gaussian", "std": 0.5},
                                   initial_second={"shift_x": 2.0}))
        x, y = build_initial_pair(cfg)
        assert x.shape == y.shape == (2, 4, 1)
        assert np.allclose(x[1] - x[0], 2.0)
        assert np.array_equal(y[0], y[1])

    def test_csv_initial(self, tmp_path):
        rows = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        path = tmp_path / "init.csv"
        np.savetxt(path, rows, delimiter=",", header="x0,y0", comments="")
        cfg = load_config(quad_doc(replicas=3,
                                   initial={"kind": "csv", "path": str(path)}))
        x, y = build_initial_pair(cfg)
        assert np.allclose(x[0, :, 0], rows[:, 0])
        assert np.allclose(y[0, :, 0], rows[:, 1])


class TestRateFit:
    def test_recovers_clean_exponential(self):
        t = np.linspace(0, 5, 26)
        means = 3.0 * np.exp(-0.7 * t)
        fit = fit_decay_rate(t, means, np.zeros_like(t))
        assert fit["rate"] == pytest.approx(0.7, rel=1e-9)

    def test_window_excludes_noise_floor(self):
        t = np.linspace(0, 10, 41)
        means = np.maximum(np.exp(-1.0 * t), 2e-3)
        ses = np.full_like(t, 1e-3)
        fit = fit_decay_rate(t, means, ses)
        assert fit["window"][1] < 7.0
        assert fit["rate"] == pytest.approx(1.0, rel=0.05)

    def test_too_few_points_returns_none(self):
        t = np.array([0.0, 1.0])
        assert fit_decay_rate(t, np.array([1.0, 0.5]), np.zeros(2)) is None


class TestRecords:
    def test_contraction_record_bitwise_reproducible(self):
        cfg = load_config(quad_doc())
        a = record_json(run_contraction(cfg))
        b = record_json(run_contraction(cfg))
        assert a == b

    def test_record_embeds_constants_snapshot(self):
        cfg = load_config(quad_doc())
        rec = run_contraction(cfg)
        assert rec.constants["lam"] == pytest.approx(0.125)
        assert rec.stats["rate_claimed"] == pytest.approx(0.25)

    def test_moments_record(self):
        cfg = load_config(dw_doc())
        rec = run_moments(cfg)
        assert "plateau" in rec.stats
        assert rec.curves["moments"][0] == ["t", "ex2", "ey2", "lyapunov"]

    def test_write_record_layout(self, tmp_path):
        cfg = load_config(quad_doc())
        rec = run_contraction(cfg)
        run_dir = write_record(rec, tmp_path)
        assert run_dir.name == cfg.hash
        assert (run_dir / "record.json").exists()
        assert (run_dir / "distance.csv").read_text().startswith(
            "t,mean_dist,se_dist,rc_mean")

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "rerun"])
    def test_failed_write_leaves_no_partial_outputs(self, tmp_path, monkeypatch, earlier):
        def record(value):
            return ExperimentRecord(experiment="moments", config_hash="abc123", seed=1,
                                    constants={}, stats={"v": value},
                                    curves={"a": (["t"], [[value]]),
                                            "b": (["t"], [[value]])},
                                    flagged=False, diagnostics=())

        before = {}
        if earlier:
            run_dir = write_record(record(1.0), tmp_path)
            before = {f.name: f.read_bytes() for f in run_dir.iterdir()}
        real_write_csv = record_mod.write_csv
        calls = []

        def failing_write_csv(path, columns, rows):
            calls.append(path)
            if len(calls) == 2:
                path.write_text("t\n")  # a partly written file, then the failure
                raise OSError("disk full")
            real_write_csv(path, columns, rows)

        monkeypatch.setattr(record_mod, "write_csv", failing_write_csv)
        with pytest.raises(OSError, match="disk full"):
            write_record(record(2.0), tmp_path)
        assert len(calls) == 2
        left = sorted(p.name for p in tmp_path.iterdir())
        assert left == (["abc123"] if earlier else [])
        if earlier:
            after = {f.name: f.read_bytes() for f in (tmp_path / "abc123").iterdir()}
            assert after == before

    def test_failed_swap_restores_the_earlier_run(self, tmp_path, monkeypatch):
        rec = ExperimentRecord(experiment="moments", config_hash="abc123", seed=1,
                               constants={}, stats={}, curves={"a": (["t"], [[1.0]])},
                               flagged=False, diagnostics=())
        run_dir = write_record(rec, tmp_path)
        (run_dir / "trajectory.csv").write_text("t,i,x0,y0\n")
        before = {f.name: f.read_bytes() for f in run_dir.iterdir()}
        real_rename = Path.rename

        def failing_rename(self, target):
            # the filled directory's rename into place fails; moving back works
            if Path(target) == run_dir and self.suffix != ".old":
                raise OSError("rename failed")
            return real_rename(self, target)

        monkeypatch.setattr(Path, "rename", failing_rename)
        with pytest.raises(OSError, match="rename failed"):
            write_record(rec, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["abc123"]
        assert {f.name: f.read_bytes() for f in run_dir.iterdir()} == before

    def test_rewrite_replaces_record_files_and_keeps_the_rest(self, tmp_path):
        cfg = load_config(quad_doc())
        rec = run_contraction(cfg)
        run_dir = write_record(rec, tmp_path)
        (run_dir / "distance.csv").write_text("t\n")
        (run_dir / "trajectory.csv").write_text("t,i,x0,y0\n")
        assert write_record(rec, tmp_path) == run_dir
        assert sorted(p.name for p in tmp_path.iterdir()) == [cfg.hash]
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "distance.csv", "record.json", "trajectory.csv"]
        assert (run_dir / "record.json").read_text() == record_json(rec)
        assert (run_dir / "distance.csv").read_text().startswith("t,mean_dist")
        assert (run_dir / "trajectory.csv").read_text() == "t,i,x0,y0\n"

    @pytest.mark.parametrize("doc", [
        quad_doc(initial={"kind": "gaussian", "std": 1.0},
                 initial_second={"shift_x": 1.0}, replicas=64, dump_count=5),
        # analytic-zero law: the curve must follow the same law choice
        unconfined_doc(replicas=64, dump_count=5),
        # contract_strong drops the interaction; so must the curve
        quad_doc(model={"dimension": 1, "gamma": 2.0, "u": 1.0,
                        "external": {"kind": "quadratic", "k_matrix": [[1.0]]},
                        "interaction": {"kind": "linear", "k": 0.3}},
                 replicas=64, dump_count=5),
    ], ids=["gaussian_shift", "unconfined_dirac", "strong_linear_interaction"])
    def test_wasserstein_curve_bounded_by_coupled_mean(self, doc):
        # W_1 between the two coupled marginals at each dump, under the
        # experiment's metric: the coupled pairing is one admissible
        # transport plan, and its mean cost is the record's distance curve
        cfg = load_config(doc)
        rec = run_contraction(cfg)
        constants = derive_constants(cfg.spec)
        traj = kept_trajectory(cfg, constants, cfg.step)
        metric = GroundMetric.from_constants(cfg.spec, constants, _METRIC_FOR[cfg.experiment])
        mean_dist = np.asarray(rec.curves["distance"][1])[:, 1]
        for k, mean in enumerate(mean_dist):
            costs = cost_matrix_zw(metric.dist_zw, traj.ax[k], traj.ay[k],
                                   traj.bx[k], traj.by[k])
            assert np.diag(costs).mean() == pytest.approx(mean, rel=1e-12)
            assert wasserstein_from_costs(costs) <= mean + 1e-9

    def test_chaos_smoke(self):
        doc = quad_doc(experiment="chaos",
                       model={"dimension": 1, "gamma": 2.0, "u": 1.0,
                              "external": {"kind": "quadratic", "k_matrix": [[1.0]]},
                              "interaction": {"kind": "linear", "k": 0.005}},
                       ensemble_sizes=[4, 8], proxy_size=64,
                       subsample_pairs=24, eval_time=0.5,
                       initial={"kind": "gaussian", "std": 1.0})
        doc["integrator"] = {"step": 0.01, "horizon": 0.5, "seed": 1}
        rec = run_chaos(load_config(doc))
        assert "slope" in rec.stats
        cols, rows = rec.curves["chaos"]
        assert cols == ["n", "w1_ell1", "w1_se"]
        assert np.asarray(rows).shape == (2, 3)

    @pytest.mark.parametrize("mode", ["synchronous", None])
    def test_chaos_honours_the_coupling_section(self, monkeypatch, mode):
        # the double well has a positive gluing offset, so the default
        # reflection_mix coupling reflects; a synchronous one never draws
        # the reflection substream
        doc = quad_doc(experiment="chaos",
                       model={"dimension": 1, "gamma": 10.0, "u": 1.0,
                              "external": {"kind": "double_well", "beta": 1.0},
                              "interaction": {"kind": "linear", "k": 0.001}},
                       ensemble_sizes=[2, 4], proxy_size=32, subsample_pairs=8,
                       eval_time=0.2, initial={"kind": "gaussian", "std": 0.01})
        doc["integrator"] = {"step": 0.01, "horizon": 0.2, "seed": 3}
        if mode is not None:
            doc["coupling"] = {"mode": mode}
        substreams = []
        normals = rng.normals

        def counted(seed, substream, step, shape, out=None):
            substreams.append(substream)
            return normals(seed, substream, step, shape, out)

        monkeypatch.setattr(rng, "normals", counted)
        run_chaos(load_config(doc))
        assert rng.SUB_MAIN in substreams
        assert (rng.SUB_REFLECT in substreams) == (mode is None)

    def test_unconfined_chaos_smoke(self):
        doc = quad_doc(experiment="unconfined_chaos",
                       model={"dimension": 1, "gamma": 2.0, "u": 1.0,
                              "external": {"kind": "zero"},
                              "interaction": {"kind": "custom",
                                              "builtin": "linear_difference",
                                              "kt_matrix": [[1.0]]}},
                       ensemble_sizes=[4, 8], proxy_size=64,
                       subsample_pairs=16, eval_time=0.5,
                       initial={"kind": "gaussian", "std": 1.0, "center": True})
        doc["integrator"] = {"step": 0.01, "horizon": 0.5, "seed": 2}
        rec = run_chaos(load_config(doc))
        assert "slope" in rec.stats
        assert rec.constants["c_unconfined"] is not None

    def test_eval_time_beyond_horizon_rejected(self):
        doc = quad_doc(experiment="chaos", eval_time=99.0)
        with pytest.raises(ConfigError, match="config invalid at /eval_time: beyond the horizon"):
            load_config(doc)

    def test_chaos_proxy_too_small_rejected(self):
        # at load time, before any constant is derived, for both chaos kinds
        for doc in (quad_doc(experiment="chaos", ensemble_sizes=[8, 16], proxy_size=64),
                    unconfined_doc(experiment="unconfined_chaos", ensemble_sizes=[8, 16],
                                   proxy_size=64)):
            with pytest.raises(ConfigError, match="config invalid at /proxy_size: 64 is less "
                                                  "than 8 x the largest ensemble size 16"):
                load_config(doc)
            load_config(dict(doc, proxy_size=128))
        # the proxy exists only in chaos runs
        load_config(quad_doc(ensemble_sizes=[8, 16], proxy_size=2))


def dw_contract_doc(**over):
    doc = dw_doc(experiment="contract_classical", replicas=64,
                 initial={"kind": "gaussian", "std": 0.5},
                 initial_second={"shift_x": 1.5}, coupling={"mode": "reflection_mix"})
    doc.update(over)
    return doc


class TestReducingRuns:
    def test_a_contraction_step_calls_each_traced_layer_once(self, monkeypatch):
        # configs/quadratic_contract.json at a tenth of its horizon: a step
        # builder that hoists a draw or a force evaluation out of the step
        # would change the per-layer counts a trace of the run reports
        doc = json.loads((CONFIGS / "quadratic_contract.json").read_text())
        doc["integrator"]["horizon"] = 2.0
        cfg = load_config(doc)
        calls = {"normals": 0, "force": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(rng, "normals", counted("normals", rng.normals))
        monkeypatch.setattr(ExternalForce, "force", counted("force", ExternalForce.force))
        run_experiment(cfg)
        n_steps = _integrator(cfg).n_steps
        assert n_steps == 2000
        assert calls == {"normals": n_steps, "force": n_steps}

    @pytest.mark.parametrize("doc", [
        dw_contract_doc(),
        dw_contract_doc(model={"dimension": 3, "gamma": 10.0, "u": 1.0,
                               "external": {"kind": "double_well", "beta": 1.0},
                               "interaction": {"kind": "none"}}),
        quad_doc(initial={"kind": "gaussian", "std": 1.0},
                 initial_second={"shift_x": 1.0}, replicas=64),
    ], ids=["double_well_d1", "double_well_d3", "r_strong"])
    def test_pair_distances_match_the_kept_dumps_bitwise(self, doc):
        # a contraction run reduces each dump to its pairs' distances as the
        # stepping loop hands it over; evaluating the metric on the whole
        # stack of kept dumps gives the same bits
        cfg = load_config(doc)
        constants = derive_constants(cfg.spec)
        metric = GroundMetric.from_constants(cfg.spec, constants, _METRIC_FOR[cfg.experiment])
        for step in (cfg.step, cfg.step / 2.0):
            times, dists, rc_mean = coupled_rows(cfg, constants, step, metric.dist_zw)
            traj = kept_trajectory(cfg, constants, step)
            kept = traj.distance_series(metric)
            assert dists.shape == (len(traj.times), cfg.replicas)
            assert np.array_equal(dists, kept)
            assert np.array_equal(times, traj.times)
            assert np.array_equal(rc_mean, traj.rc_mean)
            # and the curve reduces each dump's distances further, to the
            # bits of the row means and standard errors of all of them
            curve = _contraction_curve(cfg, constants, step)
            assert np.array_equal(curve[1], kept.mean(axis=1))
            assert np.array_equal(curve[2], kept.std(axis=1, ddof=1) / math.sqrt(cfg.replicas))
        # the double wells reflect, so their blend is not zero throughout
        assert rc_mean.any() == (cfg.experiment == "contract_classical")

    def test_coupled_rows_hands_each_dumps_differences(self):
        # a reflecting double well: each dump's Z and W, and its mean blend,
        # are the bits of the kept dumps
        cfg = load_config(dw_contract_doc())
        constants = derive_constants(cfg.spec)
        handed = []
        times, rows, rc_mean = coupled_rows(cfg, constants, cfg.step,
                                            lambda z, w: handed.append((z, w)) or len(handed))
        traj = kept_trajectory(cfg, constants, cfg.step)
        assert len(handed) == len(traj.times)
        assert np.array_equal(rows, np.arange(1, len(handed) + 1))
        for i, (z, w) in enumerate(handed):
            assert np.array_equal(z, traj.ax[i] - traj.bx[i])
            assert np.array_equal(w, traj.ay[i] - traj.by[i])
        assert np.array_equal(times, traj.times)
        assert np.array_equal(rc_mean, traj.rc_mean)
        assert rc_mean.any()

    def test_contraction_memory_grows_with_distances_not_dumps(self):
        # 180 more dumps of R pairs may add about 180 R doubles of
        # distances; kept phase-space dumps of both copies would add 4 d R
        # doubles per dump, for the h run and its h/2 rerun alike
        replicas, extra = 2000, 180
        cfgs = {count: load_config(dw_contract_doc(
            replicas=replicas, dump_count=count, step_refinement=True,
            integrator={"step": 0.01, "horizon": 2.0, "seed": 31}))
            for count in (21, 21 + extra)}
        run_contraction(cfgs[21])  # first-call loads and caches stay untraced
        peaks = {}
        for count, cfg in cfgs.items():
            tracemalloc.start()
            try:
                run_contraction(cfg)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[21 + extra] - peaks[21] <= 1.5 * extra * replicas * 8


def chaos_point_reference(cfg, constants, control, law_means, n_slots):
    """A chaos point through the kept-trajectory oracle: the slots' initial
    draws, the whole coupled run with its last dump kept, the cost matrix
    of that dump under the pair cost of :func:`ell1_norm`, its W1 and its
    bootstrap standard error."""
    spec = cfg.spec
    r, d = cfg.subsample_pairs, spec.dim
    seed_n = cfg.seed + n_slots
    x, y = _draw_initial(cfg.initial, spec, r * n_slots, seed_n, rng.SUB_SLOTS)
    x, y = x.reshape(r, n_slots, d), y.reshape(r, n_slots, d)
    traj = coupled_trajectory(spec, pair_state((x, y), (x, y)), control,
                              _integrator(cfg, horizon=cfg.eval_time, seed=seed_n),
                              constants, law_means=law_means)
    a, b = (traj.ax[-1], traj.ay[-1]), (traj.bx[-1], traj.by[-1])
    if cfg.experiment == "unconfined_chaos":
        a, b = project_centered(a), project_centered(b)
    costs = cost_matrix_zw(lambda z, w: ell1_norm(z, w).mean(axis=-1), *a, *b)
    return costs, wasserstein_from_costs(costs), bootstrap_se(costs, cfg.seed, n_boot=100)


class TestChaosPoint:
    """A chaos point marches the coupled step on its own stacked state and
    reads the final state; the oracle keeps the whole trajectory."""

    @pytest.mark.parametrize("shape", ["chaos", "unconfined_chaos"])
    def test_matches_the_kept_trajectory_bitwise(self, shape, monkeypatch):
        cfg = load_config(chaos_doc(shape, subsample_pairs=12, ensemble_sizes=[3, 5],
                                    proxy_size=64, eval_time=0.5))
        constants = derive_constants(cfg.spec)
        control = _coupling_control(cfg, constants)
        law_means = _law_mean_series(cfg)
        seen = []

        def assign(costs):
            seen.append(costs.copy())
            return wasserstein_from_costs(costs)

        monkeypatch.setattr(experiments, "wasserstein_from_costs", assign)
        for n_slots in cfg.ensemble_sizes:
            w1, se = _chaos_point(cfg, constants, control, law_means, n_slots)
            costs, ref_w1, ref_se = chaos_point_reference(cfg, constants, control,
                                                          law_means, n_slots)
            assert costs.shape == (12, 12)
            assert np.array_equal(seen[-1], costs)
            assert w1 == ref_w1 and se == ref_se

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stiff_blow_up_time_is_the_oracles(self):
        # K = 1e8 under Euler-Maruyama at h = 10, as in the CLI blow-up
        # smoke: the only dump is the evaluation time, so the blow-up is
        # found there and replayed from freshly drawn slots
        doc = chaos_doc("chaos", subsample_pairs=4, ensemble_sizes=[2, 3],
                        proxy_size=64, eval_time=10000.0)
        doc["model"] = {"dimension": 1, "gamma": 0.1, "u": 1.0,
                        "external": {"kind": "quadratic", "k_matrix": [[1e8]]},
                        "interaction": {"kind": "linear", "k": 0.0052}}
        doc["integrator"] = {"step": 10.0, "horizon": 10000.0, "seed": 4,
                             "scheme": "euler_maruyama"}
        cfg = load_config(doc)
        constants = derive_constants(cfg.spec)
        control = _coupling_control(cfg, constants)
        law_means = np.zeros((_integrator(cfg).n_steps + 1, 1))
        with pytest.raises(BlowUpError) as got:
            _chaos_point(cfg, constants, control, law_means, 3)
        with pytest.raises(BlowUpError) as ref:
            chaos_point_reference(cfg, constants, control, law_means, 3)
        assert 0 < got.value.t < cfg.eval_time
        assert got.value.t == ref.value.t

    def test_peak_memory_within_three_stacked_states(self):
        # configs/chaos.json at its largest N: the march holds the stacked
        # state, one force buffer and the shared noise block, and the cost
        # matrix is built from the final state; a kept dump, or initial
        # draws held through the march, would exceed this
        cfg = load_config_file(CONFIGS / "chaos.json")
        constants = derive_constants(cfg.spec)
        control = _coupling_control(cfg, constants)
        law_means = _law_mean_series(cfg)
        _chaos_point(cfg, constants, control, law_means, 8)  # first-call loads stay untraced
        n_slots = max(cfg.ensemble_sizes)
        stacked_state = 2 * 2 * cfg.subsample_pairs * n_slots * cfg.spec.dim * 8
        tracemalloc.start()
        try:
            _chaos_point(cfg, constants, control, law_means, n_slots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * stacked_state


class TestCli:
    def test_constants_command(self, tmp_path, capsys):
        model = {"dimension": 1, "gamma": 10.0, "u": 1.0,
                 "external": {"kind": "double_well", "beta": 1.0}}
        cfgp = tmp_path / "dw.json"
        cfgp.write_text(json.dumps(model))
        outp = tmp_path / "constants.json"
        code = cli_main(["constants", "-c", str(cfgp), "--out", str(outp)])
        assert code == 0
        got = json.loads(outp.read_text())
        assert got["tau"] == pytest.approx(0.0019)
        assert got["alpha"] == pytest.approx(0.22)

    @pytest.mark.parametrize("option", [["--seed", "3"], ["--step", "0.01"]])
    def test_constants_rejects_run_options(self, tmp_path, option, capsys):
        # the constants depend on the model alone, so these are not offered
        cfgp = tmp_path / "dw.json"
        cfgp.write_text(json.dumps(dw_doc()))
        with pytest.raises(SystemExit) as err:
            cli_main(["constants", "-c", str(cfgp), *option])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # each ran before the model was validated: gamma = true printed the
    # constants of gamma = 1, a missing u raised KeyError, an unknown kind a
    # ModelError without a pointer
    @pytest.mark.parametrize("key, value, where, message", [
        ("gamma", True, "/gamma", "True is not of type 'number'"),
        ("u", None, "", "'u' is a required property"),
        ("external", {"kind": "quartic"}, "/external/kind", "'quartic' is not one of"),
    ], ids=["gamma-bool", "u-missing", "kind-unknown"])
    @pytest.mark.parametrize("full", [True, False], ids=["config", "model"])
    def test_constants_rejects_an_invalid_model(self, tmp_path, capsys, key, value,
                                                where, message, full):
        doc = dw_doc()
        if value is None:
            del doc["model"][key]
        else:
            doc["model"][key] = value
        cfgp = tmp_path / "bad.json"
        cfgp.write_text(json.dumps(doc if full else doc["model"]))
        outp = tmp_path / "constants.json"
        assert cli_main(["constants", "-c", str(cfgp), "--out", str(outp)]) == 1
        pointer = "/model" + where if full else where or "/"
        assert f"error: config invalid at {pointer}: {message}" in capsys.readouterr().err
        assert not outp.exists()

    def test_constants_out_creates_its_directory(self, tmp_path):
        cfgp = tmp_path / "dw.json"
        cfgp.write_text(json.dumps(dw_doc()))
        outp = tmp_path / "fresh" / "nested" / "constants.json"
        code = cli_main(["constants", "-c", str(cfgp), "--out", str(outp)])
        assert code in (0, 2)
        assert json.loads(outp.read_text())["config_hash"]
        assert [p.name for p in outp.parent.iterdir()] == ["constants.json"]

    def test_failed_constants_write_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        cfgp = tmp_path / "dw.json"
        cfgp.write_text(json.dumps(dw_doc()))
        outp = tmp_path / "out" / "constants.json"
        outp.parent.mkdir()
        outp.write_text("earlier")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(record_mod.os, "replace", failing_replace)
        code = cli_main(["constants", "-c", str(cfgp), "--out", str(outp)])
        assert code == 1
        assert outp.read_text() == "earlier"
        assert [p.name for p in outp.parent.iterdir()] == ["constants.json"]

    def test_contract_command_reports_rate(self, tmp_path):
        cfgp = tmp_path / "quad.json"
        cfgp.write_text(json.dumps(quad_doc()))
        code = cli_main(["run", "-c", str(cfgp), "--out", str(tmp_path / "runs")])
        assert code == 0
        run_dirs = list((tmp_path / "runs").iterdir())
        assert len(run_dirs) == 1
        rec = json.loads((run_dirs[0] / "record.json").read_text())
        assert rec["stats"]["fit"]["rate"] >= 0.25

    def test_missing_config_exits_1_without_outputs(self, tmp_path, capsys):
        code = cli_main(["run", "-c", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "runs")])
        assert code == 1
        assert not (tmp_path / "runs").exists()

    def test_malformed_config_reports_pointer(self, tmp_path, capsys):
        doc = quad_doc()
        doc["integrator"]["step"] = -2
        cfgp = tmp_path / "bad.json"
        cfgp.write_text(json.dumps(doc))
        code = cli_main(["run", "-c", str(cfgp)])
        assert code == 1
        assert "/integrator/step" in capsys.readouterr().err

    # an override never passes the JSON parser's check of NaN and Infinity
    @pytest.mark.parametrize("step", ["inf", "nan"])
    def test_non_finite_step_override_rejected(self, tmp_path, capsys, step):
        code = cli_main(["run", "-c", str(CONFIGS / "quadratic_contract.json"),
                         "--step", step, "--out", str(tmp_path / "runs")])
        assert code == 1
        assert f"/integrator/step: {step} is not of type" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_diagnostics_exit_code_2(self, tmp_path):
        model = {"dimension": 1, "gamma": 2.0, "u": 1.0,
                 "external": {"kind": "double_well", "beta": 1.0}}
        cfgp = tmp_path / "lowfric.json"
        cfgp.write_text(json.dumps(model))
        code = cli_main(["constants", "-c", str(cfgp), "--out",
                         str(tmp_path / "c.json")])
        assert code == 2

    def test_seed_override_changes_hash(self, tmp_path):
        cfgp = tmp_path / "quad.json"
        cfgp.write_text(json.dumps(quad_doc(initial={"kind": "gaussian", "std": 1.0},
                                            replicas=8)))
        out = tmp_path / "runs"
        assert cli_main(["run", "-c", str(cfgp), "--out", str(out)]) == 0
        assert cli_main(["run", "-c", str(cfgp), "--out", str(out),
                         "--seed", "99"]) == 0
        assert len(list(out.iterdir())) == 2

    def test_out_root_does_not_change_hash(self, tmp_path):
        cfgp = tmp_path / "quad.json"
        cfgp.write_text(json.dumps(quad_doc()))
        a, b = tmp_path / "runs_a", tmp_path / "runs_b"
        assert cli_main(["run", "-c", str(cfgp), "--out", str(a)]) == 0
        assert cli_main(["run", "-c", str(cfgp), "--out", str(b)]) == 0
        names = [[p.name for p in root.iterdir()] for root in (a, b)]
        assert names[0] == names[1] == [config_hash(quad_doc())]

    def test_run_follows_the_config_experiment(self, tmp_path):
        # no subcommand overrides the experiment the config names
        cfgp = tmp_path / "dw.json"
        cfgp.write_text(json.dumps(dw_doc(replicas=8, dump_count=3)))
        out = tmp_path / "runs"
        assert cli_main(["run", "-c", str(cfgp), "--out", str(out)]) == 0
        rec = json.loads((next(out.iterdir()) / "record.json").read_text())
        assert rec["experiment"] == "moments"
        assert "moments" in rec["curves"]

    def test_simulate_and_couple_commands(self, tmp_path):
        doc = dw_doc(replicas=8, dump_count=5)
        cfgp = tmp_path / "dw.json"
        cfgp.write_text(json.dumps(doc))
        out = tmp_path / "runs"
        assert cli_main(["simulate", "-c", str(cfgp), "--out", str(out)]) == 0
        traj_csv = next(out.iterdir()) / "trajectory.csv"
        assert traj_csv.read_text().splitlines()[0] == "t,i,x0,y0"
        out2 = tmp_path / "runs2"
        assert cli_main(["couple", "-c", str(cfgp), "--out", str(out2)]) == 0
        cpl = next(out2.iterdir()) / "coupled.csv"
        assert cpl.read_text().splitlines()[0] == "t,rs,rl,delta,rho,abs_z,abs_q,rc"

    def test_simulate_centers_the_unconfined_dirac(self, tmp_path):
        # the unconfined system needs a centered start; the shipped config's
        # Dirac initial law at x = 0.5 is centered like a Gaussian one
        config = Path(__file__).resolve().parent.parent / "configs" / "unconfined.json"
        out = tmp_path / "runs"
        assert cli_main(["simulate", "-c", str(config), "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        assert json.loads((run_dir / "trajectory.json").read_text())["system"] == "unconfined"
        rows = np.loadtxt(run_dir / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(rows[0], [0.0, 0.0, 0.0, 0.0])
        assert np.all(np.isfinite(rows))

    def test_run_keeps_simulate_and_couple_outputs(self, tmp_path):
        # all three commands write into the same <out>/<config-hash>/
        cfgp = tmp_path / "dw.json"
        cfgp.write_text(json.dumps(dw_doc(replicas=8, dump_count=3)))
        out = tmp_path / "runs"
        assert cli_main(["simulate", "-c", str(cfgp), "--out", str(out)]) == 0
        assert cli_main(["couple", "-c", str(cfgp), "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert sorted(before) == ["coupled.csv", "coupled.json", "trajectory.csv",
                                  "trajectory.json"]
        assert "system" in json.loads(before["trajectory.json"])
        assert "mode" in json.loads(before["coupled.json"])
        assert cli_main(["run", "-c", str(cfgp), "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == [run_dir.name]
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "coupled.csv", "coupled.json", "moments.csv", "record.json",
            "trajectory.csv", "trajectory.json"]
        assert all((run_dir / name).read_bytes() == data
                   for name, data in before.items())

    def test_failed_couple_leaves_the_earlier_run_intact(self, tmp_path, monkeypatch):
        cfgp = tmp_path / "dw.json"
        cfgp.write_text(json.dumps(dw_doc(replicas=8, dump_count=3)))
        out = tmp_path / "runs"
        assert cli_main(["simulate", "-c", str(cfgp), "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}

        def failing_write_csv(path, columns, rows):
            path.write_text("t\n")  # a partly written file, then the failure
            raise OSError("disk full")

        monkeypatch.setattr(cli_mod, "write_csv", failing_write_csv)
        assert cli_main(["couple", "-c", str(cfgp), "--out", str(out)]) == 1
        assert [p.name for p in out.iterdir()] == [run_dir.name]
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_rerun_reproduces_csv_bytes(self, tmp_path):
        cfgp = tmp_path / "quad.json"
        cfgp.write_text(json.dumps(quad_doc(initial={"kind": "gaussian", "std": 1.0},
                                            replicas=16)))
        out = tmp_path / "runs"
        assert cli_main(["run", "-c", str(cfgp), "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        first = (run_dir / "distance.csv").read_bytes()
        assert cli_main(["run", "-c", str(cfgp), "--out", str(out)]) == 0
        assert (run_dir / "distance.csv").read_bytes() == first
