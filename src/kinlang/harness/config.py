"""Experiment configuration: JSON schema, validation, hashing.

A config document fully determines an experiment; its canonical-JSON
SHA-256 names the run directory, so identical configs land in the same
place and different configs never collide.

``validate_config`` checks a document against ``CONFIG_SCHEMA`` with a
small validator of its own.  It knows exactly the keywords the schema
uses, with JSON Schema Draft 2020-12 semantics: a bool is not a number, an
integer-valued float is an integer, and ``enum`` and ``uniqueItems``
compare numbers by value but never a bool with a number.  It departs from
the draft in one place: NaN and the infinities are not numbers (nor
integers), since every bound compares False against NaN and
``exclusiveMinimum: 0`` admits inf.  So a non-finite value is rejected
whether it comes from a file, a CLI override or a dict.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

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
_matrix = {"type": "array", "items": {"type": "array", "items": _number}}

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
            "properties": {"kind": {"enum": ["quadratic", "double_well", "zero"]},
                           "k_matrix": _matrix, "beta": _number},
        },
        "interaction": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"enum": ["none", "linear", "mollified_coulomb",
                                             "mollified_log", "custom"]},
                           "k": _number, "k_tilde": _number, "p": _number, "q": _number,
                           "kt_matrix": _matrix},
        },
    },
}

# "kind" may be omitted for the second law: shift-only documents reuse the
# first law with a translation
INITIAL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
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

# a misspelt key is an error, not a silent default; only the model's force
# documents stay open, as their parameters depend on the kind (each known
# parameter must still be a finite number, or a matrix of them)
CONFIG_SCHEMA = {
    "type": "object",
    "required": ["experiment", "model"],
    "additionalProperties": False,
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "model": MODEL_SCHEMA,
        "integrator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "step": _positive,
                "horizon": {"type": "number", "minimum": 0},
                "scheme": {"enum": ["ou_splitting", "euler_maruyama"]},
                "seed": {"type": "integer"},
            },
        },
        "coupling": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["synchronous", "reflection_mix"]},
                "xi": _positive,
            },
        },
        "replicas": {"type": "integer", "minimum": 1},
        # the chaos slope is fitted across the sizes, so it needs two
        "ensemble_sizes": {"type": "array", "items": {"type": "integer", "minimum": 1},
                           "minItems": 2, "uniqueItems": True},
        "proxy_size": {"type": "integer", "minimum": 2},
        "dump_count": {"type": "integer", "minimum": 2},
        "dump_times": {"type": "array", "items": {"type": "number", "minimum": 0},
                       "minItems": 1},
        "initial": INITIAL_SCHEMA,
        "initial_second": INITIAL_SCHEMA,
        "eval_time": _positive,
        "subsample_pairs": {"type": "integer", "minimum": 2,
                            "maximum": transport.SIZE_CAP},
        "step_refinement": {"type": "boolean"},
        "out": {"type": "string"},
    },
}


def _json_key(value):
    """A hashable key under which two JSON values are equal exactly when
    JSON Schema calls them equal: numbers by value, a bool only to a bool."""
    if isinstance(value, list):
        return list, tuple(map(_json_key, value))
    if isinstance(value, dict):
        return dict, frozenset((k, _json_key(v)) for k, v in value.items())
    if _TYPES["number"](value):
        return numbers.Number, value
    return type(value), value


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: (isinstance(v, numbers.Real) and not isinstance(v, bool)
                         and math.isfinite(v)),
    # is_integer() is False for NaN and the infinities
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}

# keyword: (fails(instance, bound), message); each applies to numbers only
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
}


def _errors(schema: dict, instance, path: tuple):
    """``(path, message)`` of each violation of ``schema`` by ``instance``,
    keyword by keyword in the schema's order.  A keyword (or keyword value)
    this validator does not know raises KeyError rather than pass unchecked."""
    for key, value in schema.items():
        if key in _BOUNDS:
            fails, text = _BOUNDS[key]
            if _TYPES["number"](instance) and fails(instance, value):
                yield path, f"{instance!r} {text} {value!r}"
        elif key == "type":
            if not _TYPES[value](instance):
                yield path, f"{instance!r} is not of type {value!r}"
        elif key == "enum":
            if _json_key(instance) not in map(_json_key, value):
                yield path, f"{instance!r} is not one of {value!r}"
        elif key == "required":
            if isinstance(instance, dict):
                for name in value:
                    if name not in instance:
                        yield path, f"{name!r} is a required property"
        elif key == "properties":
            if isinstance(instance, dict):
                for name, sub in value.items():
                    if name in instance:
                        yield from _errors(sub, instance[name], path + (name,))
        elif key == "additionalProperties" and value is False:
            if isinstance(instance, dict):
                extra = sorted(instance.keys() - schema.get("properties", {}).keys(), key=str)
                if extra:
                    names = ", ".join(map(repr, extra))
                    verb = "was" if len(extra) == 1 else "were"
                    yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "items":
            if isinstance(instance, list):
                for i, item in enumerate(instance):
                    yield from _errors(value, item, path + (i,))
        elif key == "minItems":
            if isinstance(instance, list) and len(instance) < value:
                text = "should be non-empty" if value == 1 else "is too short"
                yield path, f"{instance!r} {text}"
        elif key == "uniqueItems" and value is True:
            if isinstance(instance, list) and len(set(map(_json_key, instance))) < len(instance):
                yield path, f"{instance!r} has non-unique elements"
        else:
            raise KeyError(f"config schema keyword {key}: {value!r} is not supported")


def validate_config(doc: dict) -> None:
    """Schema-validate; the error reported is the first in JSON-pointer
    order, and its message carries that pointer."""
    _validate(CONFIG_SCHEMA, doc, ())


def validate_model(doc, path: tuple = ()) -> None:
    """Validate a model document alone: the schema, as
    :func:`validate_config` does, then the shape of each matrix against
    the dimension.  ``path`` is where it sits in its document,
    ``("model",)`` in a full config, and starts each error's pointer."""
    _validate(MODEL_SCHEMA, doc, path)
    _report(list(_matrix_errors(doc, path)))


def _matrix_errors(model: dict, path: tuple):
    """``(path, message)`` of each matrix of a schema-valid model document
    that is not dimension x dimension."""
    d = int(model["dimension"])
    for part, key in (("external", "k_matrix"), ("interaction", "kt_matrix")):
        matrix = model.get(part, {}).get(key)
        if matrix is not None and (len(matrix) != d or any(len(row) != d for row in matrix)):
            yield path + (part, key), f"{matrix!r} is not a {d} x {d} matrix"


def _point_errors(doc: dict):
    """``(path, message)`` of each Dirac point of a schema-valid config
    whose length is not the model's dimension."""
    d = int(doc["model"]["dimension"])
    for name in ("initial", "initial_second"):
        law = doc.get(name, {})
        if law.get("kind") == "dirac":
            for key in ("x", "y"):
                if key in law and len(law[key]) != d:
                    yield (name, key), f"{law[key]!r} does not have the dimension {d}"


def _validate(schema: dict, doc, path: tuple) -> None:
    _report(list(_errors(schema, doc, path)))


def _report(errors: list) -> None:
    """Raise the first of ``(path, message)`` errors in JSON-pointer order."""
    if errors:
        path, message = min(errors, key=lambda e: e[0])
        pointer = "/" + "/".join(str(p) for p in path)
        raise ConfigError(f"config invalid at {pointer}: {message}")


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
    """The config a document describes: schema-valid, and with every
    matrix and Dirac point of the model's dimension."""
    validate_config(doc)
    _report([*_matrix_errors(doc["model"], ("model",)), *_point_errors(doc)])
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
    sizes = tuple(doc.get("ensemble_sizes", (8, 16, 32, 64, 128)))
    proxy_size = int(doc.get("proxy_size", 1024))
    if doc["experiment"] in ("chaos", "unconfined_chaos") and proxy_size < 8 * max(sizes):
        raise ConfigError(f"config invalid at /proxy_size: {proxy_size} is less than "
                          f"8 x the largest ensemble size {max(sizes)}")
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
        ensemble_sizes=sizes,
        proxy_size=proxy_size,
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


def _reject_constant(name: str):
    # every bound keyword compares False against NaN, so a non-finite
    # number would pass the schema
    raise ConfigError(f"config is not valid JSON: {name} is not a number")


def load_document(path) -> dict:
    """The JSON document of a config file; a missing file, malformed JSON
    or the non-standard literals NaN, Infinity and -Infinity (which Python's
    json module accepts) raise ConfigError."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err


def load_config_file(path) -> ExperimentConfig:
    return load_config(load_document(path))
