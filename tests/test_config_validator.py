"""kinlang's config validator against jsonschema's Draft 2020-12 validator.

``validate_config`` checks ``CONFIG_SCHEMA`` itself, without jsonschema.
Here both judge the same documents: the shipped configs, each mutated at
random, and explicit edge cases.  They must agree on the verdict and on
the first error in JSON-pointer order (its pointer and its message).
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kinlang.harness.config import CONFIG_SCHEMA, ConfigError, validate_config
from kinlang.transport import SIZE_CAP

jsonschema = pytest.importorskip("jsonschema")

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
DOCS = [json.loads(p.read_text()) for p in CONFIGS]
REFERENCE = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def reference_error(doc):
    """jsonschema's first error as ``(pointer, message)``, or None."""
    errors = sorted(REFERENCE.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    return "/" + "/".join(str(p) for p in errors[0].absolute_path), errors[0].message


def own_error(doc):
    """``validate_config``'s error as ``(pointer, message)``, or None."""
    try:
        validate_config(doc)
    except ConfigError as err:
        return re.fullmatch(r"config invalid at (\S*): (.*)", str(err), re.S).groups()
    return None


def test_shipped_configs_are_valid():
    assert CONFIGS
    for doc in DOCS:
        assert own_error(doc) is None and reference_error(doc) is None


def chaos(**over):
    doc = copy.deepcopy(DOCS[[p.name for p in CONFIGS].index("chaos.json")])
    doc.update(over)
    return doc


def without_model():
    doc = chaos()
    del doc["model"]
    return doc


@pytest.mark.parametrize("doc, invalid_at", [
    (chaos(ensemble_sizes=[8, 8.0]), "/ensemble_sizes"),  # equal numbers
    (chaos(ensemble_sizes=[8, True]), "/ensemble_sizes/1"),  # unique, but not an integer
    (chaos(ensemble_sizes=[1, True]), "/ensemble_sizes/1"),
    (chaos(replicas=True), "/replicas"),
    (chaos(proxy_size=3.0), None),  # an integer-valued float is an integer
    (chaos(proxy_size=3.5), "/proxy_size"),
    (without_model(), "/"),
    (chaos(subsample_pairs=SIZE_CAP + 1), "/subsample_pairs"),
    (chaos(subsample_pairs=SIZE_CAP), None),
    (chaos(eval_time=0), "/eval_time"),
    (chaos(dump_cont=3), "/"),
    (chaos(integrator={"stepp": 0.1}), "/integrator"),
    (chaos(coupling={"mod": "synchronous"}), "/coupling"),
    (chaos(initial={"kind": "dirac", "y": [0], "x": [0], "zz": 1, "aa": 2}), "/initial"),
    (chaos(experiment=1), "/experiment"),
    ([], "/"),
    (chaos(coupling={"mode": "componentwise"}), "/coupling/mode"),
    (chaos(dump_times=[]), "/dump_times"),
    (chaos(dump_times=[0.0]), None),
])
def test_edge_cases_agree(doc, invalid_at):
    ours = own_error(doc)
    assert ours == reference_error(doc)
    assert (ours and ours[0]) == invalid_at


# any JSON value, short; arrays hold scalars only, since jsonschema's own
# uniqueItems check sorts the elements and so can miss a duplicate array
# that an equal-but-distinct one ([1] and [True]) separates
KEYS = sorted({"kind", "dump_cont", "stepp", "mod", "x", "step", "mode", "std",
               *CONFIG_SCHEMA["properties"]})
scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 3000),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0, 1, 2, 8, 8.0, 3.0, 16, SIZE_CAP, SIZE_CAP + 1]),
                    st.sampled_from(["", "chaos", "quadratic", "dirac", "synchronous",
                                     "ou_splitting", "moments"]))
arrays = st.lists(scalars, max_size=4)
values = st.one_of(scalars, arrays,
                   st.dictionaries(st.sampled_from(KEYS), scalars | arrays, max_size=3))


def locations(node, path=()):
    """Every path into ``node``, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield from locations(child, path + (key,))


def mutate(doc, data):
    """Replace, delete or add one value somewhere in ``doc``."""
    path = data.draw(st.sampled_from(list(locations(doc))))
    if not path:
        return data.draw(values) if data.draw(st.integers(0, 9)) == 0 else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    op = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if op == "replace":
        parent[path[-1]] = data.draw(scalars if isinstance(parent, list) else values)
    elif op == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[data.draw(st.sampled_from(KEYS))] = data.draw(values)
    else:
        parent.append(data.draw(scalars))
    return doc


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_configs_agree(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(DOCS)))
    for _ in range(data.draw(st.integers(1, 4))):
        doc = mutate(doc, data)
    assert own_error(doc) == reference_error(doc)
