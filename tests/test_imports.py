"""Import contract: loading a config loads only what validates it, and a run
loads scipy's compiled kernels, never its packages.

``kinlang`` and ``kinlang.harness`` resolve their public names on first use,
and the config validator is kinlang's own, so ``import kinlang,
kinlang.harness`` and ``load_config_file`` load no jsonschema and none of
the modules that derive constants, couple, run or record.

``erf`` is needed by non-identity profiles and ``linear_sum_assignment`` by
exact Wasserstein distances.  ``kinlang._scipy.kernel`` loads each from its
extension module (``scipy.special._special_ufuncs``,
``scipy.optimize._lsap``) when a function first calls it, so importing the
package and running a quadratic or unconfined config loads no scipy at all,
and no run imports ``scipy.special`` or ``scipy.optimize`` themselves.  The
kernels are the very objects those packages export, whichever is imported
first.  No run, record writing included, loads numpy.polynomial (the
profile's Gauss-Legendre nodes are literals) or uuid (temporary paths take
``os.urandom`` names).  Each case runs in a fresh interpreter, because
pytest's own process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# load a config; given an output directory, run it and write its record;
# then list the modules of the given packages
SCRIPT = """
import json, sys
import kinlang, kinlang.harness
from kinlang.harness import load_config_file, run_experiment, write_record
cfg = load_config_file(sys.argv[1])
if sys.argv[2]:
    write_record(run_experiment(cfg), sys.argv[2])
print(json.dumps(sorted(m for m in sys.modules
                        if any(m == p or m.startswith(p + ".") for p in sys.argv[3:]))))
"""

# the modules loaded by import and config loading; then every public name,
# and one that does not exist
LAZY = """
import json, sys
import kinlang, kinlang.harness
from kinlang.harness import load_config_file
load_config_file(sys.argv[1])
loaded = sorted(sys.modules)
unresolved = [f"{pkg.__name__}.{name}" for pkg in (kinlang, kinlang.harness)
              for name in pkg.__all__ if getattr(pkg, name, None) is None]
try:
    kinlang.harness.no_such_name
    missing = "resolved"
except AttributeError as err:
    missing = str(err)
print(json.dumps({"loaded": loaded, "unresolved": unresolved, "missing": missing}))
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


def loaded_modules(config: str, out=None, packages=("scipy",)) -> list[str]:
    """The modules of ``packages`` in ``sys.modules`` of a fresh interpreter
    after loading ``configs/<config>`` and, given an output directory
    ``out``, running it and writing its record there."""
    return json.loads(fresh("-c", SCRIPT, str(ROOT / "configs" / config),
                            "" if out is None else str(out), *packages))


# no run, record writing included, loads numpy.polynomial or uuid: each
# run below checks both beside its own packages
NEVER_RUN = ("numpy.polynomial", "uuid")


def test_import_and_load_config_load_only_what_validates():
    out = json.loads(fresh("-c", LAZY, str(ROOT / "configs" / "chaos.json")))
    loaded = set(out["loaded"])
    assert not {m for m in loaded if m.split(".")[0] == "jsonschema"}
    assert not loaded & {"kinlang.constants", "kinlang.coupling",
                         "kinlang.harness.experiments", "kinlang.harness.record"}
    assert "kinlang.harness.config" in loaded
    assert out["unresolved"] == []
    assert out["missing"] == "module 'kinlang.harness' has no attribute 'no_such_name'"


def test_public_names_match_their_homes():
    import kinlang
    import kinlang.harness

    for pkg in (kinlang, kinlang.harness):
        assert pkg.__all__ == sorted(set(pkg.__all__))
        assert set(pkg.__all__) <= set(dir(pkg))
        for name in pkg.__all__:
            obj = getattr(pkg, name)
            assert getattr(sys.modules[obj.__module__], name) is obj
    with pytest.raises(AttributeError, match="no_such_name"):
        kinlang.no_such_name


# a public name is looked up anew on each use, so it follows a patch of its
# submodule (the benchmark's tracer wraps functions where they are defined)
def test_public_names_follow_their_submodule(monkeypatch):
    import kinlang
    import kinlang.dynamics

    assert kinlang.simulate is kinlang.dynamics.simulate
    monkeypatch.setattr(kinlang.dynamics, "simulate", marker := object())
    assert kinlang.simulate is marker


def test_import_and_load_config_load_no_scipy():
    assert loaded_modules("quadratic_contract.json") == []


@pytest.mark.parametrize("config", ["quadratic_contract.json", "unconfined.json"])
def test_identity_profile_runs_load_no_scipy(config, tmp_path):
    assert loaded_modules(config, tmp_path, ("scipy",) + NEVER_RUN) == []


def test_double_well_loads_the_erf_kernel_only(tmp_path):
    assert loaded_modules("double_well.json", tmp_path, ("scipy",) + NEVER_RUN) \
        == ["scipy.special._special_ufuncs"]


def test_chaos_loads_the_assignment_kernel_only(tmp_path):
    assert loaded_modules("chaos.json", tmp_path, ("scipy",) + NEVER_RUN) \
        == ["scipy.optimize._lsap"]


# moments runs take a median, contraction runs snap dump times: neither
# goes through numpy.ma (np.median and np.unique would import it)
@pytest.mark.parametrize("config", ["moments.json", "double_well.json"])
def test_runs_load_no_numpy_ma(config, tmp_path):
    assert loaded_modules(config, tmp_path, ("numpy.ma",) + NEVER_RUN) == []


@pytest.mark.parametrize("order", ["kernel-first", "package-first"])
def test_kernels_are_the_public_objects(order):
    assert fresh("-c", IDENTITY, order) == "ok"


# no such file; a compiled file that does not define erf
@pytest.mark.parametrize("private", ["_no_such_module", "_ufuncs_cxx"])
def test_kernel_falls_back_to_the_package(private):
    import scipy.special

    from kinlang._scipy import kernel
    assert kernel("special", private, "erf") is scipy.special.erf
