"""Golden digests: every shipped config reproduces its pinned bytes.

Run-to-run equality (tested elsewhere) cannot see a change that moves
every run the same way; these SHA-256 digests can.  They pin the
``record.json`` and every curve CSV of each ``configs/*.json`` at its
default seed, plus a fingerprint of the counter-based noise blocks, which
depend on numpy's private Philox state layout.  A digest may only move
with an announced, versioned change to the numbers.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from kinlang import rng
from kinlang.harness import load_config_file, run_experiment, write_record
from kinlang.harness.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "chaos.json": {
        "chaos.csv": "9c968da382d14db5e6dfd25a8c1773311ca02e7dc5735023cbcc8cf47072c71e",
        "record.json": "182c471549f45c5e94e811c5c652438679c6dfeacfda63ed550f0d7463e618e9",
    },
    "double_well.json": {
        "distance.csv": "640afbd97a0bbf6ac7bbebf7185eaf02c9e9be57336c81fed482f2d413a0876e",
        "record.json": "9fae02bb3d0fd350e1c294aacd6c39b385cc8aae5ba13898d7a3e09f60606e86",
    },
    "moments.json": {
        "moments.csv": "301a0a2aed248237ecf0265dfed53aedeb4c6e102cf0db065a5d1ae3ff164495",
        "record.json": "6e12dcff926fbc18c61bd0c02f0a6c7f8103becde277a9858db5efb84381b61a",
    },
    "quadratic_contract.json": {
        "distance.csv": "c6f792888abb1a90f218ed4ebc6540d61c39ee291674e1466bb9c801293bd7f5",
        "record.json": "556a461868bdf7153133d46a566d01e0b9dd5482ce6aa3590d7635504237ee8b",
    },
    "unconfined.json": {
        "distance.csv": "4211c13a2e2c2213a58fa2256f4a4cbb4e7eef6ca4a3137270caad94f5468476",
        "record.json": "0802505fa4559366584ee29edb317a882cecdfee9ec0daa4648d8d34d473ca66",
    },
}

# trajectory.csv of ``kinlang simulate -c configs/moments.json``: the plain
# particle run, which no record digest covers
SIMULATE_TRAJECTORY = "31d200b40af1c1c819572e41084b6948c4fc0b929ce415880bd228127687184f"

# the outputs of ``kinlang couple -c configs/double_well.json`` and the
# ``--out`` file of ``kinlang constants -c configs/double_well.json``
COUPLE_OUTPUTS = {
    "coupled.csv": "44ebb6e49adb94d5d8be50dcb2f0e71181653d196778cc8ddfba20c2e07454da",
    "coupled.json": "7cf9332ff02940aa3dac6c19b95cc6b00148be6e139d12b9595adfd8fbee8447",
}
CONSTANTS_OUT = "bfb689b0887504f2fa05ebcc9f98db081f238e5ecb084730b1b469b3488ab1ea"

# (seed, substream, step, shape): plain, reflection, chaos-slot and
# bootstrap substreams, small and huge step counters
NOISE_KEYS = ((0, 0, 0, (8,)), (31, 1, 2999, (4, 2)), (179, 6, 199, (3, 1)),
              (123456789, 11, 10_000_019, (5,)))
NOISE_FINGERPRINT = "780ff079add5ca97600489ca802334b1f5bb6c2f9ea37b11136ba73d57db906f"


def test_noise_fingerprint():
    h = hashlib.sha256()
    for seed, substream, step, shape in NOISE_KEYS:
        block = rng.normals(seed, substream, step, shape)
        h.update(np.ascontiguousarray(block, dtype="<f8").tobytes())
    assert h.hexdigest() == NOISE_FINGERPRINT


def test_substream_ids_are_distinct():
    ids = {name: value for name, value in vars(rng).items() if name.startswith("SUB_")}
    assert {"SUB_PROXY", "SUB_SLOTS", "SUB_SECOND_INIT"} <= set(ids)
    assert len(set(ids.values())) == len(ids)


def test_every_config_is_pinned():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_config_digests(name, tmp_path):
    record = run_experiment(load_config_file(CONFIGS / name))
    run_dir = write_record(record, tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(run_dir.iterdir())}
    assert digests == GOLDEN[name]


def test_simulate_trajectory_digest(tmp_path):
    assert cli_main(["simulate", "-c", str(CONFIGS / "moments.json"),
                     "--out", str(tmp_path)]) == 0
    (csv,) = tmp_path.glob("*/trajectory.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == SIMULATE_TRAJECTORY


def test_couple_digests(tmp_path):
    assert cli_main(["couple", "-c", str(CONFIGS / "double_well.json"),
                     "--out", str(tmp_path)]) == 0
    (run_dir,) = tmp_path.iterdir()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(run_dir.iterdir())}
    assert digests == COUPLE_OUTPUTS


def test_constants_out_digest(tmp_path):
    out = tmp_path / "constants.json"
    assert cli_main(["constants", "-c", str(CONFIGS / "double_well.json"),
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONSTANTS_OUT
