"""Command-line interface.

Subcommands: ``constants``, ``simulate``, ``couple`` and ``run``.  Every
command reads a JSON config (``-c/--config``), optionally overridden by
``--seed``, ``--out``, ``--replicas`` and ``--step``, and writes its
artifacts into a run directory named by the config hash.  ``run`` executes
the experiment the config names.

Exit codes: 0 on success, 2 when the run completed but assumption
diagnostics fired (results carry no guarantee), 1 on any runtime error
(missing or malformed config included), in which case no partial outputs
are written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ..constants import derive_constants
from ..dynamics import trajectory_to_rows
from ..metrics import GroundMetric
from ..model import ModelSpec
from .config import ConfigError, ExperimentConfig, config_hash, load_config, load_document
from .experiments import (_coupling_control, coupled_trajectory, run_experiment,
                          simulate_particles)
from .record import filled_run_dir, write_csv, write_record


def _apply_overrides(doc: dict, args) -> dict:
    doc = dict(doc)
    integ = dict(doc.get("integrator", {}))
    if args.seed is not None:
        integ["seed"] = args.seed
    if args.step is not None:
        integ["step"] = args.step
    if integ:
        doc["integrator"] = integ
    if getattr(args, "replicas", None) is not None:
        doc["replicas"] = args.replicas
    if args.out is not None:
        doc["out"] = args.out
    return doc


def _out_root(cfg: ExperimentConfig) -> Path:
    return cfg.out if cfg.out is not None else Path("runs")


def cmd_constants(args) -> int:
    doc = load_document(args.config)
    model_doc = doc.get("model", doc)
    spec = ModelSpec.from_dict(model_doc)
    constants = derive_constants(spec)
    payload = constants.to_dict()
    payload["config_hash"] = config_hash(model_doc)
    text = json.dumps(payload, sort_keys=True, indent=1)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 2 if constants.diagnostics else 0


def _experiment_config(args) -> ExperimentConfig:
    doc = _apply_overrides(load_document(args.config), args)
    doc.setdefault("experiment", "moments")
    return load_config(doc)


def cmd_simulate(args) -> int:
    cfg = _experiment_config(args)
    system, traj = simulate_particles(cfg)
    run_dir = _out_root(cfg) / cfg.hash
    meta = {"config_hash": cfg.hash, "seed": cfg.seed, "system": system,
            "step": cfg.step, "horizon": cfg.horizon}
    with filled_run_dir(run_dir) as tmp:
        if args.binary:
            np.savez_compressed(tmp / "trajectory.npz", times=traj.times,
                                x=traj.x, y=traj.y)
        write_csv(tmp / "trajectory.csv", *trajectory_to_rows(traj))
        (tmp / "trajectory.json").write_text(json.dumps(meta, sort_keys=True, indent=1))
    print(run_dir)
    return 0


def cmd_couple(args) -> int:
    cfg = _experiment_config(args)
    spec = cfg.spec
    constants = derive_constants(spec)
    control = _coupling_control(cfg, constants)
    traj = coupled_trajectory(cfg, constants, cfg.step)
    cols = ["t", "rs", "rl", "delta", "rho", "abs_z", "abs_q", "rc"]
    rho = GroundMetric.from_constants(spec, constants, "rho")
    rs = GroundMetric.from_constants(spec, constants, "r_s")
    rl = GroundMetric.from_constants(spec, constants, "r_l")
    z = traj.ax - traj.bx
    w = traj.ay - traj.by
    rows = np.column_stack([
        traj.times,
        rs.dist_zw(z, w).mean(axis=1),
        rl.dist_zw(z, w).mean(axis=1),
        rho.delta_zw(z, w).mean(axis=1),
        rho.dist_zw(z, w).mean(axis=1),
        np.linalg.norm(z, axis=-1).mean(axis=1),
        np.linalg.norm(z + w / spec.gamma, axis=-1).mean(axis=1),
        traj.rc_mean,
    ])
    run_dir = _out_root(cfg) / cfg.hash
    meta = {"config_hash": cfg.hash, "seed": cfg.seed, "xi": control.xi,
            "mode": control.mode, "constants": constants.to_dict()}
    with filled_run_dir(run_dir) as tmp:
        write_csv(tmp / "coupled.csv", cols, rows)
        (tmp / "coupled.json").write_text(json.dumps(meta, sort_keys=True, indent=1))
    print(run_dir)
    return 2 if constants.diagnostics else 0


def cmd_run(args) -> int:
    cfg = load_config(_apply_overrides(load_document(args.config), args))
    record = run_experiment(cfg)
    run_dir = write_record(record, _out_root(cfg))
    print(run_dir)
    return 2 if record.flagged else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kinlang",
                                     description="coupled kinetic Langevin laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {"constants": cmd_constants, "simulate": cmd_simulate,
                "couple": cmd_couple, "run": cmd_run}
    for name, fn in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--step", type=float, default=None)
        if name not in ("constants",):
            p.add_argument("--replicas", type=int, default=None)
        if name == "simulate":
            p.add_argument("--binary", action="store_true",
                           help="also dump the trajectory as .npz")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failures: no partial outputs
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
