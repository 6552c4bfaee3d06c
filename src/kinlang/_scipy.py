"""The two compiled scipy kernels the lab calls, loaded without their packages.

``linear_sum_assignment`` lives in the extension ``scipy.optimize._lsap`` and
``erf`` in ``scipy.special._special_ufuncs``.  Importing ``scipy.optimize``
or ``scipy.special`` for them runs each package's ``__init__``, which pulls
in sparse, linalg and the rest (about 40 MB and 16 MB of a fresh process).
``kernel`` loads the extension file alone, under its canonical name, and
registers it in ``sys.modules``: a later ``import scipy.optimize`` or
``import scipy.special`` then reuses that module, so both routes return the
very same C object.  Where scipy keeps the kernel in another file (older
layouts), the public package is imported instead.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import os
import sys


@functools.cache
def kernel(public: str, private: str, name: str):
    """``scipy.<public>.<name>``, taken from the extension
    ``scipy.<public>.<private>`` when that file exists and defines it."""
    full = f"scipy.{public}.{private}"
    module = sys.modules.get(full) or _load_extension(full, public, private)
    if module is not None and hasattr(module, name):
        return getattr(module, name)
    return getattr(importlib.import_module(f"scipy.{public}"), name)


def _load_extension(full: str, public: str, private: str):
    """Load and register the compiled module ``full`` from scipy's
    directory, without importing scipy; None if no such file exists."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        return None
    for directory in spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, public, private + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(full, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(full, path, loader=loader))
                loader.exec_module(module)
                sys.modules[full] = module
                return module
    return None
