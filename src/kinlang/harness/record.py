"""Run persistence.

Each run writes into ``<out>/<config-hash>/``: a ``record.json`` with the
constants snapshot, statistics, seeds and diagnostics, plus one CSV per
curve.  The directory name is the canonical-JSON hash of the config, so
re-running the same config overwrites its own directory and two different
configs never collide.  All numbers are written at full double precision;
rerunning with the same (config, seed) reproduces every byte.
"""

from __future__ import annotations

import json
import shutil
import uuid
from pathlib import Path

import numpy as np

from .experiments import ExperimentRecord


def record_json(record: ExperimentRecord) -> str:
    return json.dumps(record.to_dict(), sort_keys=True, indent=1)


def write_record(record: ExperimentRecord, out_root: Path) -> Path:
    """Write the run directory whole or not at all: it is filled as a hidden
    sibling, with the earlier run's files that the record does not write
    (those of ``simulate`` and ``couple``) hard-linked in, and renamed into
    place; the earlier directory is moved aside and removed only after."""
    run_dir = Path(out_root) / record.config_hash
    tmp = run_dir.with_name(f".{run_dir.name}.{uuid.uuid4().hex}")
    old = tmp.with_name(tmp.name + ".old")
    tmp.mkdir(parents=True)
    try:
        (tmp / "record.json").write_text(record_json(record))
        for name, (columns, rows) in record.curves.items():
            write_csv(tmp / f"{name}.csv", columns, rows)
        if run_dir.exists():
            for path in run_dir.iterdir():
                if not (tmp / path.name).exists():
                    (tmp / path.name).hardlink_to(path)
            run_dir.rename(old)
        tmp.rename(run_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        if old.exists() and not run_dir.exists():
            old.rename(run_dir)
        raise
    shutil.rmtree(old, ignore_errors=True)
    return run_dir


def write_csv(path: Path, columns, rows) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        np.savetxt(fh, rows, delimiter=",", fmt="%.17g")
