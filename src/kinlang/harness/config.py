"""Experiment configuration: JSON schema, validation, hashing.

A config document fully determines an experiment; its canonical-JSON
SHA-256 names the run directory, so identical configs land in the same
place and different configs never collide.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import jsonschema
import numpy as np

from .. import transport
from ..dynamics import default_step
from ..model import ModelSpec

EXPERIMENTS = ("contract_strong", "contract_classical", "contract_nonlinear",
               "chaos", "unconfined_contract", "unconfined_chaos", "moments")


class ConfigError(ValueError):
    """Malformed configuration; the message carries a JSON pointer path."""


_number = {"type": "number"}
_positive = {"type": "number", "exclusiveMinimum": 0}

MODEL_SCHEMA = {
    "type": "object",
    "required": ["dimension", "gamma", "u", "external"],
    "properties": {
        "dimension": {"type": "integer", "minimum": 1},
        "gamma": _positive,
        "u": _positive,
        "external": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"enum": ["quadratic", "double_well", "zero"]}},
        },
        "interaction": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"enum": ["none", "linear", "mollified_coulomb",
                                             "mollified_log", "custom"]}},
        },
    },
}

# "kind" may be omitted for the second law: shift-only documents reuse the
# first law with a translation
INITIAL_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["dirac", "gaussian", "csv"]},
        "x": {"type": "array", "items": _number},
        "y": {"type": "array", "items": _number},
        "mean_x": _number,
        "mean_y": _number,
        "std": _positive,
        "shift_x": _number,
        "shift_y": _number,
        "path": {"type": "string"},
        "center": {"type": "boolean"},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["experiment", "model"],
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "model": MODEL_SCHEMA,
        "integrator": {
            "type": "object",
            "properties": {
                "step": _positive,
                "horizon": {"type": "number", "minimum": 0},
                "scheme": {"enum": ["ou_splitting", "euler_maruyama"]},
                "seed": {"type": "integer"},
            },
        },
        "coupling": {
            "type": "object",
            "properties": {
                "mode": {"enum": ["synchronous", "reflection_mix", "componentwise"]},
                "xi": _positive,
            },
        },
        "replicas": {"type": "integer", "minimum": 1},
        # the chaos slope is fitted across the sizes, so it needs two
        "ensemble_sizes": {"type": "array", "items": {"type": "integer", "minimum": 1},
                           "minItems": 2, "uniqueItems": True},
        "proxy_size": {"type": "integer", "minimum": 2},
        "dump_count": {"type": "integer", "minimum": 2},
        "dump_times": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "initial": INITIAL_SCHEMA,
        "initial_second": INITIAL_SCHEMA,
        "eval_time": _positive,
        "subsample_pairs": {"type": "integer", "minimum": 2,
                            "maximum": transport.SIZE_CAP},
        "step_refinement": {"type": "boolean"},
        "wasserstein_curve": {"type": "boolean"},
        "out": {"type": "string"},
    },
}


def validate_config(doc: dict) -> None:
    """Schema-validate; errors carry the offending JSON pointer."""
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        pointer = "/" + "/".join(str(p) for p in e.absolute_path)
        raise ConfigError(f"config invalid at {pointer or '/'}: {e.message}")


def config_hash(doc: dict) -> str:
    """Canonical-JSON hash of the experiment; ``out`` only says where its
    run directory goes, so it is left out."""
    doc = {k: v for k, v in doc.items() if k != "out"}
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, resolved experiment description."""

    experiment: str
    spec: ModelSpec
    step: float
    horizon: float
    scheme: str
    seed: int
    coupling_mode: Optional[str]
    coupling_xi: Optional[float]
    replicas: int
    ensemble_sizes: tuple
    proxy_size: int
    dump_times: np.ndarray
    initial: dict
    initial_second: Optional[dict]
    eval_time: float
    subsample_pairs: int
    step_refinement: bool
    out: Optional[Path]
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def hash(self) -> str:
        return config_hash(self.raw)


def load_config(doc: dict) -> ExperimentConfig:
    validate_config(doc)
    spec = ModelSpec.from_dict(doc["model"])
    integ = doc.get("integrator", {})
    step = float(integ.get("step", default_step(spec.gamma)))
    horizon = float(integ.get("horizon", 10.0))
    dump = doc.get("dump_times")
    if dump is None:
        count = int(doc.get("dump_count", 21))
        dump = np.linspace(0.0, horizon, count)
    else:
        dump = np.asarray(dump, dtype=float)
        if dump.max(initial=0.0) > horizon + 1e-12:
            raise ConfigError("config invalid at /dump_times: beyond the horizon")
    eval_time = float(doc.get("eval_time", horizon))
    if eval_time > horizon + 1e-12:
        raise ConfigError("config invalid at /eval_time: beyond the horizon")
    coup = doc.get("coupling", {})
    return ExperimentConfig(
        experiment=doc["experiment"],
        spec=spec,
        step=step,
        horizon=horizon,
        scheme=integ.get("scheme", "ou_splitting"),
        seed=int(integ.get("seed", 0)),
        coupling_mode=coup.get("mode"),
        coupling_xi=coup.get("xi"),
        replicas=int(doc.get("replicas", 1000)),
        ensemble_sizes=tuple(doc.get("ensemble_sizes", (8, 16, 32, 64, 128))),
        proxy_size=int(doc.get("proxy_size", 1024)),
        dump_times=dump,
        initial=doc.get("initial", {"kind": "gaussian", "mean_x": 0.0,
                                    "mean_y": 0.0, "std": 1.0}),
        initial_second=doc.get("initial_second"),
        eval_time=eval_time,
        subsample_pairs=int(doc.get("subsample_pairs", 256)),
        step_refinement=bool(doc.get("step_refinement", False)),
        out=Path(doc["out"]) if "out" in doc else None,
        raw=doc,
    )


def load_document(path) -> dict:
    """The JSON document of a config file; a missing file or malformed
    JSON raises ConfigError."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err


def load_config_file(path) -> ExperimentConfig:
    return load_config(load_document(path))
