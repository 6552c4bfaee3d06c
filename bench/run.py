"""kinlang benchmark.

    python3 bench/run.py --workload chaos_sweep --seed 3 --seconds 40 --trace 0

Drives the library from outside, on the path the CLI takes:
``load_config`` -> ``run_experiment`` -> ``write_record``.  The workload's
config comes from ``configs/``; ``--seed`` is written into its
``integrator.seed`` and the library sees only that generated config.

Every run is checked.  Before timing, ``rng.normals`` is fingerprinted
against a pinned hash, and an untimed warm-up run with the pinned default
seed must reproduce the pinned SHA-256 of ``record.json`` and every CSV.
Each timed run must reproduce the digests of the first run of its seed
and pass the record's own verdict fields.  A run that raises, blows up or
fails a check counts as failed.

``--trace 0`` prints the end-to-end metrics (set-up time, mean and tail
run time, peak memory) and the median run time; ``--trace 1`` alternates
untraced and traced runs and prints per-layer calls and self time per run.  The last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--print-pins`` prints the pinned values for the current
code.  bench/README.md gives the reasons for each workload and metric.
"""

from __future__ import annotations

import os

# All work here is single-threaded; BLAS reads these when numpy loads, so
# they are set before anything imports numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".bench_out"
PINS = BENCH_DIR / "pinned.json"

WORKLOADS = {"chaos_sweep": "chaos.json",
             "reflect_batch": "double_well.json",
             "sync_single": "quadratic_contract.json"}

# (name, unit) of every end-to-end metric, measured with tracing off
END_TO_END = (("setup_s", "s"), ("run_s_mean", "s"), ("run_s_tail", "s"),
              ("peak_rss_mb", "MB"))
# set-up probes per run, spread evenly over the measuring window
SETUP_PROBES = 7
# (seed, substream, step, shape) keys of the noise fingerprint: plain,
# reflection, chaos-slot and bootstrap substreams, small and huge steps
NOISE_KEYS = ((0, 0, 0, (8,)), (31, 1, 2999, (4, 2)), (179, 6, 199, (3, 1)),
              (123456789, 11, 10_000_019, (5,)))


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources or configs)."""


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------

def load_kinlang():
    """Import kinlang from this checkout's ``src`` and nowhere else."""
    if not (SRC / "kinlang" / "__init__.py").is_file():
        raise SetupError(f"no kinlang sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kinlang
    import kinlang.harness as harness
    import kinlang.rng as rng

    if Path(kinlang.__file__).resolve().parent != SRC / "kinlang":
        raise SetupError(f"kinlang imported from {kinlang.__file__}, not {SRC}")
    return harness, rng


def workload_doc(workload: str, seed: int) -> dict:
    path = CONFIGS / WORKLOADS[workload]
    if not path.is_file():
        raise SetupError(f"workload config {path} is missing")
    doc = json.loads(path.read_text())
    doc.setdefault("integrator", {})["seed"] = seed
    doc.pop("out", None)  # the record's config hash must not depend on paths
    return doc


def machine() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"nproc": os.cpu_count(), "affinity": affinity,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def noise_fingerprint(rng) -> str:
    import numpy as np

    h = hashlib.sha256()
    for seed, substream, step, shape in NOISE_KEYS:
        block = rng.normals(seed, substream, step, shape)
        h.update(np.ascontiguousarray(block, dtype="<f8").tobytes())
    return h.hexdigest()


def file_digests(run_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.iterdir()) if p.is_file()}


def digest_problems(digests: dict, expected: dict, what: str) -> list:
    if digests == expected:
        return []
    names = sorted(set(digests) | set(expected))
    bad = [n for n in names if digests.get(n) != expected.get(n)]
    return [f"{what} digest mismatch: {', '.join(bad)}"]


def verdict_problems(record: dict) -> list:
    """The record's own verdict: the contraction inequality holds, or the
    chaos slope fields are finite."""
    stats = record.get("stats", {})
    if record.get("experiment") in ("chaos", "unconfined_chaos"):
        fields = [stats.get("slope"), stats.get("slope_se"), *(stats.get("slope_ci95") or [None])]
        if not all(isinstance(v, (int, float)) and abs(v) < float("inf") for v in fields):
            return [f"chaos slope fields not finite: {fields}"]
        return []
    if not (stats.get("inequality") or {}).get("ok"):
        return ["contraction inequality.ok is not true"]
    return []


class Gate:
    """Counts attempted and failed operations and keeps their problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [p for p in problems if p not in self.problems]


def run_once(harness, doc: dict, out_root: Path):
    """One timed experiment run, checked: (seconds, digests, problems)."""
    try:
        t0 = time.perf_counter()
        try:
            cfg = harness.load_config(doc)
            record = harness.run_experiment(cfg)
            run_dir = Path(harness.write_record(record, out_root))
        except Exception as err:  # every failure mode of a run is a failed run
            return time.perf_counter() - t0, {}, [f"run raised {type(err).__name__}: {err}"]
        seconds = time.perf_counter() - t0
        try:
            digests = file_digests(run_dir)
            rec = json.loads((run_dir / "record.json").read_text())
        except (OSError, ValueError) as err:
            return seconds, {}, [f"outputs unreadable: {err}"]
        return seconds, digests, verdict_problems(rec)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)


def setup_probe(gate: Gate, cfg_path: Path):
    """Seconds from starting a fresh interpreter until kinlang and the
    harness are imported and the config is validated; None if it failed."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        done = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
                               str(cfg_path)], capture_output=True, text=True, timeout=120,
                              check=True)
        seconds = float(done.stdout.split()[-1]) - t0
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as err:
        gate.record([f"set-up probe failed: {type(err).__name__}: {err}"])
        return None
    gate.record([])
    return seconds


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def trace_targets(rng):
    from tracer import Target

    sub_main = getattr(rng, "SUB_MAIN", 0)
    sub_reflect = getattr(rng, "SUB_REFLECT", 1)

    def arg(args, kwargs, i, name):
        return args[i] if len(args) > i else kwargs.get(name)

    def on_normals(tracer, args, kwargs):
        shape = arg(args, kwargs, 3, "shape")
        size = 1
        for n in shape:
            size *= int(n)
        tracer.count("rng.normals.values", size)
        # a coupled step draws SUB_MAIN, and SUB_REFLECT unless the blend is
        # zero on every pair; steps run in coupling.simulate or inline in
        # run_chaos
        if tracer.parent_layer() in ("coupling.simulate", "harness.run"):
            substream = arg(args, kwargs, 1, "substream")
            if substream == sub_main:
                tracer.count("coupled_steps")
            elif substream == sub_reflect:
                tracer.count("reflect_draws")

    def on_assign(tracer, args, kwargs):
        shape = getattr(arg(args, kwargs, 0, "costs"), "shape", (0, 0))
        tracer.count("transport.assign.cells", int(shape[0]) * int(shape[-1]))

    return [
        Target("harness.load_config", "kinlang.harness.config", "load_config"),
        Target("harness.run", "kinlang.harness.experiments", "run_experiment"),
        Target("harness.record", "kinlang.harness.record", "write_record"),
        Target("constants.derive", "kinlang.constants", "derive_constants"),
        Target("profile.build", "kinlang.profile", "build_profile"),
        Target("profile.value", "kinlang.profile", "ConcaveProfile.value"),
        Target("metrics.dist_zw", "kinlang.metrics", "GroundMetric.dist_zw"),
        Target("metrics.norms", "kinlang.metrics", "twisted_norm"),
        Target("metrics.norms", "kinlang.metrics", "small_norm"),
        Target("coupling.simulate", "kinlang.coupling", "simulate_coupled"),
        Target("coupling.rc_value", "kinlang.coupling", "rc_value"),
        Target("model.force", "kinlang.model", "ExternalForce.force"),
        Target("rng.normals", "kinlang.rng", "normals", on_normals),
        Target("rng.integers", "kinlang.rng", "integers"),
        Target("transport.assign", "kinlang.transport", "wasserstein_from_costs", on_assign),
    ]


# (name, unit, better) of every per-layer metric, in BENCHMARK.json order;
# counts and self times are per traced run
PER_LAYER = (
    ("harness.load_config.self_s", "s", "lower"),
    ("harness.run.self_s", "s", "lower"),
    ("harness.record.self_s", "s", "lower"),
    ("constants.derive.calls", "count", "lower"),
    ("constants.derive.self_s", "s", "lower"),
    ("profile.build.self_s", "s", "lower"),
    ("profile.value.calls", "count", "lower"),
    ("profile.value.self_s", "s", "lower"),
    ("metrics.dist_zw.calls", "count", "lower"),
    ("metrics.dist_zw.self_s", "s", "lower"),
    ("metrics.norms.calls", "count", "lower"),
    ("metrics.norms.self_s", "s", "lower"),
    ("coupling.simulate.self_s", "s", "lower"),
    ("coupling.rc_value.calls", "count", "lower"),
    ("coupling.rc_value.self_s", "s", "lower"),
    ("coupling.sync_shortcut_ratio", "ratio", "higher"),
    ("model.force.calls", "count", "lower"),
    ("model.force.self_s", "s", "lower"),
    ("rng.normals.calls", "count", "lower"),
    ("rng.normals.self_s", "s", "lower"),
    ("rng.normals.values", "count", "lower"),
    ("rng.integers.calls", "count", "lower"),
    ("rng.integers.self_s", "s", "lower"),
    ("transport.assign.calls", "count", "lower"),
    ("transport.assign.self_s", "s", "lower"),
    ("transport.assign.cells", "count", "lower"),
    ("trace.run_s_mean", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.self_sum_ratio", "ratio", "higher"),
)


def layer_metrics(summary: dict, counters: dict, traced_s: list,
                  untraced_s: list) -> dict:
    """Every PER_LAYER metric from the spans and counters of the traced runs."""
    runs = len(traced_s)
    layers = summary["layers"]
    steps = counters.get("coupled_steps", 0)
    traced_mean = statistics.fmean(traced_s)
    special = {
        "coupling.sync_shortcut_ratio":
            (steps - counters.get("reflect_draws", 0)) / steps if steps else 0.0,
        "trace.run_s_mean": traced_mean,
        "trace.overhead_ratio": traced_mean / statistics.fmean(untraced_s),
        # spans cover the three harness calls; the rest is benchmark code
        "trace.self_sum_ratio": summary["root_s"] / sum(traced_s),
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith((".values", ".cells")):
            value = counters.get(name, 0) / runs
        else:
            layer, _, field = name.rpartition(".")
            value = layers.get(layer, {"calls": 0, "self_s": 0.0})[field] / runs
        out[name] = {"value": value, "unit": unit}
    return out


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def tail(samples: list) -> tuple:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Below 20 samples that percentile would sit under the median, so the
    maximum is reported instead, as p100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def on_cpu(k: int, cpus: list) -> None:
    """Pin this process (and the probes it starts) to the k-th allowed CPU.

    On a shared host each core can be slowed by its own neighbours, in
    phases of seconds; taking turns on the cores averages over them.
    """
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})


def measure(args, harness, rng, pins: dict, work: Path) -> dict:
    gate = Gate()
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    fingerprint = noise_fingerprint(rng)
    noise_ok = fingerprint == pins["noise_fingerprint"]
    pin = pins["workloads"][args.workload]

    # warm-up with the pinned default seed: untimed, checked against pins
    _, digests, problems = run_once(harness, workload_doc(args.workload, pin["seed"]),
                                    work / "warmup")
    if not noise_ok:
        problems.append(f"noise layout changed: rng.normals fingerprint {fingerprint[:16]} "
                        f"is not the pinned {pins['noise_fingerprint'][:16]}")
    elif digests:
        problems += digest_problems(digests, pin["digests"], f"seed {pin['seed']} pinned")
    gate.record(problems)

    doc = workload_doc(args.workload, args.seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(doc))
    pinned = noise_ok and args.seed == pin["seed"]
    expected = pin["digests"] if pinned else None
    label = f"seed {args.seed} {'pinned' if pinned else 'repeat'}"

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(trace_targets(rng))
    untraced, traced, setup = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and untraced and (traced or tracer is None):
            break
        if tracer is None and len(setup) < SETUP_PROBES \
                and elapsed >= len(setup) * args.seconds / SETUP_PROBES:
            on_cpu(len(setup), cpus)
            setup.append(setup_probe(gate, cfg_path))
            continue
        tracing = tracer is not None and i % 2 == 1
        # a traced run shares its core with the untraced run before it
        on_cpu(i // 2 if tracer is not None else i, cpus)
        if tracing:
            tracer.run_id = len(traced)
            tracer.install()
        try:
            seconds, digests, problems = run_once(harness, doc, work / f"run{i}")
        finally:
            if tracing:
                tracer.uninstall()
        if digests:
            if expected is None:
                expected = digests
            problems += digest_problems(digests, expected, label)
        gate.record(problems)
        (traced if tracing else untraced).append(seconds)
        i += 1
    while tracer is None and len(setup) < SETUP_PROBES:
        on_cpu(len(setup), cpus)
        setup.append(setup_probe(gate, cfg_path))
    if len(cpus) > 1:
        os.sched_setaffinity(0, set(cpus))

    result = {"gate": gate, "fingerprint": fingerprint, "noise_ok": noise_ok,
              "runs": len(untraced), "traced_runs": len(traced)}
    if tracer is None:
        run_tail, pct = tail(untraced)
        result["tail_percentile"] = pct
        result["run_s_p50"] = statistics.median(untraced)
        setup_ok = [s for s in setup if s is not None]
        result["setup_probes"] = len(setup_ok)
        values = {"setup_s": statistics.median(setup_ok or [float("nan")]),
                  "run_s_mean": statistics.fmean(untraced),
                  "run_s_tail": run_tail,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END}
    else:
        summary = tracer.summary()
        result["missing"] = summary["missing"]
        result["metrics"] = layer_metrics(summary, tracer.counters, traced, untraced)
        tracer.save(OUT / f"trace-{args.workload}.npz")
    return result


def report(args, result: dict, info: dict) -> None:
    gate = result["gate"]
    print(f"kinlang bench  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(info, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    if args.trace:
        print(f"  per traced run, {result['traced_runs']} traced and "
              f"{result['runs']} untraced runs alternated")
        if result["missing"]:
            print("  wrap targets not found (zero calls): " + ", ".join(result["missing"]))
    else:
        print(f"  {'run_s_p50':32s} {result['run_s_p50']:14.6g} s")
        print(f"  run_s_* over {result['runs']} runs; tail is "
              f"p{result['tail_percentile']:.1f}; setup_s is the median of "
              f"{result['setup_probes']} fresh processes")
    ratio = gate.failed / gate.attempted
    print(f"  {'fail_ratio':32s} {ratio:14.6g} ratio ({gate.failed} of {gate.attempted})")
    print(f"correctness: noise fingerprint {'ok' if result['noise_ok'] else 'CHANGED'}; "
          + ("; ".join(gate.problems) if gate.problems else "all checks passed"))


def print_pins(harness, rng) -> None:
    pins = {"noise_fingerprint": noise_fingerprint(rng), "workloads": {}}
    for workload, name in WORKLOADS.items():
        seed = json.loads((CONFIGS / name).read_text()).get("integrator", {}).get("seed", 0)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            _, digests, problems = run_once(harness, workload_doc(workload, seed),
                                            Path(tmp) / "run")
        if problems:
            raise SetupError(f"{workload}: {problems}")
        pins["workloads"][workload] = {"config": name, "seed": seed, "digests": digests}
    print(json.dumps(pins, indent=1, sort_keys=True))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--print-pins", action="store_true",
                   help="print the pinned fingerprint and digests of this code")
    args = p.parse_args(argv)
    if not args.print_pins and None in (args.workload, args.seed, args.seconds):
        p.error("--workload, --seed and --seconds are required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness, rng = load_kinlang()
        OUT.mkdir(exist_ok=True)
        if args.print_pins:
            print_pins(harness, rng)
            return 0
        workload_doc(args.workload, args.seed)
        pins = json.loads(PINS.read_text())
    except (SetupError, ImportError, OSError, ValueError) as err:
        print(f"bench: cannot run: {err}", file=sys.stderr)
        return 2
    info = machine()
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = measure(args, harness, rng, pins, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, result, info)
    gate = result["gate"]
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
