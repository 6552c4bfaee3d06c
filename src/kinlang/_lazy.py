"""Lazy package namespaces (PEP 562).

A package lists its public names per submodule; each name is imported from
its submodule on first use, so importing the package loads no submodule.
Names are not cached in the package namespace: ``kinlang.simulate`` always
resolves to what ``kinlang.dynamics`` holds now, patched or not.
"""

from __future__ import annotations

import importlib
import sys


def namespace(package: str, exports: dict):
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose public names
    are listed as ``{submodule: (name, ...)}`` in ``exports``."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{package}.{home[name]}"), name)

    def __dir__():
        return sorted(vars(sys.modules[package]).keys() | home.keys())

    return sorted(home), __getattr__, __dir__
