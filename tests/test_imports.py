"""Import contract: scipy loads only when a run calls a scipy routine.

``erf`` (``scipy.special``) is needed by non-identity profiles and the
assignment solver (``scipy.optimize``) by exact Wasserstein distances; both
are imported inside the functions that call them, so importing the package
and running a quadratic or unconfined config loads no scipy at all.  Each
case runs in a fresh interpreter, because pytest's own process has long
since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import kinlang, kinlang.harness
from kinlang.harness import load_config_file, run_experiment
cfg = load_config_file(sys.argv[1])
if sys.argv[2] == "run":
    run_experiment(cfg)
print(json.dumps(sorted(m for m in ("scipy", "scipy.special", "scipy.optimize")
                        if m in sys.modules)))
"""


def loaded_scipy(config: str, run: bool) -> list[str]:
    """The scipy modules in ``sys.modules`` of a fresh interpreter after
    loading (and, if ``run``, running) ``configs/<config>``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "configs" / config),
                          "run" if run else "load"],
                         cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_and_load_config_load_no_scipy():
    assert loaded_scipy("quadratic_contract.json", run=False) == []


@pytest.mark.parametrize("config", ["quadratic_contract.json", "unconfined.json"])
def test_identity_profile_runs_load_no_scipy(config):
    assert loaded_scipy(config, run=True) == []


def test_double_well_loads_special_only():
    assert loaded_scipy("double_well.json", run=True) == ["scipy", "scipy.special"]


def test_chaos_loads_the_assignment_solver():
    assert "scipy.optimize" in loaded_scipy("chaos.json", run=True)
