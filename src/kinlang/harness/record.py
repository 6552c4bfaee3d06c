"""Run persistence.

Each run writes into ``<out>/<config-hash>/``: a ``record.json`` with the
constants snapshot, statistics, seeds and diagnostics, plus one CSV per
curve; ``simulate`` and ``couple`` write ``trajectory.csv``/``.json`` and
``coupled.csv``/``.json`` into the same directory.  The directory name is
the canonical-JSON hash of the config, so re-running the same config
overwrites its own directory and two different configs never collide.
All numbers are written at full double precision; rerunning with the
same (config, seed) reproduces every byte.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .experiments import ExperimentRecord


def record_json(record: ExperimentRecord) -> str:
    return json.dumps(record.to_dict(), sort_keys=True, indent=1)


@contextmanager
def filled_run_dir(run_dir: Path):
    """Write a run directory whole or not at all: the caller fills the
    yielded hidden sibling, the earlier run's files it does not write
    (those of other commands) are hard-linked in, and the sibling is
    renamed into place; the earlier directory is moved aside and removed
    only after."""
    tmp = run_dir.with_name(f".{run_dir.name}.{uuid.uuid4().hex}")
    old = tmp.with_name(tmp.name + ".old")
    tmp.mkdir(parents=True)
    try:
        yield tmp
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


def write_file(path: Path, text: str) -> None:
    """Write one file whole or not at all: a hidden sibling in the target
    directory (created first if missing) is renamed into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_record(record: ExperimentRecord, out_root: Path) -> Path:
    """Write ``record.json`` and one CSV per curve through
    :func:`filled_run_dir`."""
    run_dir = Path(out_root) / record.config_hash
    with filled_run_dir(run_dir) as tmp:
        (tmp / "record.json").write_text(record_json(record))
        for name, (columns, rows) in record.curves.items():
            write_csv(tmp / f"{name}.csv", columns, rows)
    return run_dir


def write_csv(path: Path, columns, rows) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        np.savetxt(fh, rows, delimiter=",", fmt="%.17g")
