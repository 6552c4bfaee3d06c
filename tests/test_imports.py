"""Import contract: a run loads scipy's compiled kernels, never its packages.

``erf`` is needed by non-identity profiles and ``linear_sum_assignment`` by
exact Wasserstein distances.  ``kinlang._scipy.kernel`` loads each from its
extension module (``scipy.special._special_ufuncs``,
``scipy.optimize._lsap``) when a function first calls it, so importing the
package and running a quadratic or unconfined config loads no scipy at all,
and no run imports ``scipy.special`` or ``scipy.optimize`` themselves.  The
kernels are the very objects those packages export, whichever is imported
first.  Each case runs in a fresh interpreter, because pytest's own process
has long since imported everything.
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
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

# the kernel first, then its package; or the package first, then the kernel
IDENTITY = """
import importlib, sys
from kinlang._scipy import kernel
cases = [("optimize", "_lsap", "linear_sum_assignment"),
         ("special", "_special_ufuncs", "erf")]
for public, private, name in cases:
    if sys.argv[1] == "package-first":
        package = importlib.import_module("scipy." + public)
        found = kernel(public, private, name)
    else:
        found = kernel(public, private, name)
        package = importlib.import_module("scipy." + public)
    assert found is getattr(package, name), (public, name)
    assert sys.modules["scipy." + public + "." + private].__file__
print("ok")
"""


def fresh(*args: str) -> str:
    """The last stdout line of a fresh interpreter running ``args``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


def loaded_scipy(config: str, run: bool) -> list[str]:
    """The scipy modules in ``sys.modules`` of a fresh interpreter after
    loading (and, if ``run``, running) ``configs/<config>``."""
    return json.loads(fresh("-c", SCRIPT, str(ROOT / "configs" / config),
                            "run" if run else "load"))


def test_import_and_load_config_load_no_scipy():
    assert loaded_scipy("quadratic_contract.json", run=False) == []


@pytest.mark.parametrize("config", ["quadratic_contract.json", "unconfined.json"])
def test_identity_profile_runs_load_no_scipy(config):
    assert loaded_scipy(config, run=True) == []


def test_double_well_loads_the_erf_kernel_only():
    assert loaded_scipy("double_well.json", run=True) == ["scipy.special._special_ufuncs"]


def test_chaos_loads_the_assignment_kernel_only():
    assert loaded_scipy("chaos.json", run=True) == ["scipy.optimize._lsap"]


@pytest.mark.parametrize("order", ["kernel-first", "package-first"])
def test_kernels_are_the_public_objects(order):
    assert fresh("-c", IDENTITY, order) == "ok"


# no such file; a compiled file that does not define erf
@pytest.mark.parametrize("private", ["_no_such_module", "_ufuncs_cxx"])
def test_kernel_falls_back_to_the_package(private):
    import scipy.special

    from kinlang._scipy import kernel
    assert kernel("special", private, "erf") is scipy.special.erf
