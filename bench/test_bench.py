"""Tests of the benchmark's own checks.

    python3 -m pytest bench -q
"""

import argparse
import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

harness, rng = bench.load_kinlang()
PINS = json.loads(bench.PINS.read_text())


def gate_of(pins, tmp_path, workload="sync_single"):
    """Warm-up plus one untraced and one traced run (trace mode starts no
    set-up probes), checked against ``pins``."""
    args = argparse.Namespace(workload=workload, seed=PINS["workloads"][workload]["seed"],
                              seconds=0.0, trace=1)
    return bench.measure(args, harness, rng, pins, tmp_path)["gate"]


def test_gate_passes_on_pinned_digests(tmp_path):
    gate = gate_of(PINS, tmp_path)
    assert (gate.attempted, gate.failed, gate.problems) == (3, 0, [])


def test_gate_fails_on_wrong_pinned_digest(tmp_path):
    pins = copy.deepcopy(PINS)
    pins["workloads"]["sync_single"]["digests"]["record.json"] = "0" * 64
    gate = gate_of(pins, tmp_path)
    # the warm-up and both timed runs use the default seed: all three compare
    # against the wrong pin
    assert gate.failed == 3
    assert gate.problems == ["seed 1 pinned digest mismatch: record.json"]


def test_noise_change_is_reported_once_not_as_digest_failures(tmp_path):
    pins = copy.deepcopy(PINS)
    pins["noise_fingerprint"] = "f" * 64
    pins["workloads"]["sync_single"]["digests"]["record.json"] = "0" * 64
    gate = gate_of(pins, tmp_path)
    assert gate.failed == 1
    assert len(gate.problems) == 1 and gate.problems[0].startswith("noise layout changed")


def test_verdict_fields_are_checked():
    assert bench.verdict_problems({"experiment": "contract_classical",
                                   "stats": {"inequality": {"ok": False}}})
    assert bench.verdict_problems({"experiment": "chaos",
                                   "stats": {"slope": float("nan"), "slope_se": 0.1,
                                             "slope_ci95": [0.0, 1.0]}})
    assert not bench.verdict_problems({"experiment": "chaos",
                                       "stats": {"slope": -0.5, "slope_se": 0.1,
                                                 "slope_ci95": [-0.7, -0.3]}})


def test_tracer_wraps_every_import_site_and_reports_missing_targets():
    import kinlang.constants
    import kinlang.coupling
    import kinlang.metrics

    original = kinlang.metrics.twisted_norm
    tracer = Tracer([Target("metrics.norms", "kinlang.metrics", "twisted_norm"),
                     Target("gone.function", "kinlang.rng", "no_such_function"),
                     Target("gone.module", "kinlang.no_such_module", "f"),
                     Target("gone.method", "kinlang.metrics", "GroundMetric.no_such")])
    tracer.install()
    try:
        assert kinlang.metrics.twisted_norm is not original
        assert kinlang.coupling.twisted_norm is kinlang.metrics.twisted_norm
        assert kinlang.constants.twisted_norm is kinlang.metrics.twisted_norm
        kinlang.coupling.twisted_norm([1.0], [0.0], [[1.0]], 0.1, 2.0, 1.0)
    finally:
        tracer.uninstall()
    assert kinlang.coupling.twisted_norm is original
    summary = tracer.summary()
    assert summary["layers"]["metrics.norms"]["calls"] == 1
    for layer in ("gone.function", "gone.module", "gone.method"):
        assert summary["layers"][layer] == {"calls": 0, "self_s": 0.0}
    assert len(summary["missing"]) == 3


def test_self_times_add_up_to_root_spans():
    tracer = Tracer(bench.trace_targets(rng))
    tracer.install()
    try:
        cfg = harness.load_config(bench.workload_doc("reflect_batch", 3))
        harness.run_experiment(cfg)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    total = sum(layer["self_s"] for layer in summary["layers"].values())
    assert abs(total - summary["root_s"]) < 1e-9 * max(1.0, summary["root_s"])
    assert summary["missing"] == []


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail(list(range(1, 41))) == (30, 75.0)
    assert bench.tail(list(range(1, 21))) == (10, 50.0)
    # fewer than 20 samples: the maximum, never a percentile under the median
    assert bench.tail(list(range(11, 0, -1))) == (11, 100.0)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in bench.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
