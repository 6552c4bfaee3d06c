"""In-memory span tracer for the kinlang benchmark.

The tracer wraps public functions and methods of the library from the
outside.  A function is replaced in every loaded ``kinlang`` module that
holds it, so ``from .metrics import twisted_norm`` in another module is
traced as well as calls through ``metrics.twisted_norm``; a method is
replaced on its class.  A target that no longer exists (a refactor renamed
or removed it) is listed in ``missing`` and reports zero calls; it never
raises.

Each call records one span: layer id, start, end, parent span and run id,
in flat arrays.  Nothing is written while runs are timed; ``summary``
aggregates the spans and ``save`` writes them once at the end.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """``attr`` is ``"name"`` for a module function or ``"Class.method"``."""

    layer: str
    module: str
    attr: str
    on_call: Optional[Callable] = None  # on_call(tracer, args, kwargs)


PACKAGE = "kinlang"


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.layers: list[str] = []
        for t in self.targets:
            if t.layer not in self.layers:
                self.layers.append(t.layer)
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self.missing: list[str] = []
        self.counters: dict[str, float] = {}
        self.run_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.layer = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.start = array("d")
        self.end = array("d")

    # -- counters ------------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def parent_layer(self) -> Optional[str]:
        """Layer of the span enclosing the current call, if any."""
        if len(self._stack) < 2:
            return None
        return self.layers[self.layer[self._stack[-2]]]

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, target: Target):
        layer_id = self._layer_id[target.layer]
        on_call = target.on_call
        clock = time.perf_counter
        stack = self._stack
        push, pop = stack.append, stack.pop
        layer, parent, run = self.layer.append, self.parent.append, self.run.append
        start, end = self.start.append, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            layer(layer_id)
            parent(stack[-1] if stack else -1)
            run(self.run_id)
            end.append(0.0)
            push(idx)
            if on_call is not None:
                on_call(self, args, kwargs)
            start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                pop()

        return traced

    def install(self) -> None:
        """Wrap every target; remember how to undo it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self.missing = []
        for target in self.targets:
            try:
                home = importlib.import_module(target.module)
            except ImportError:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            if isinstance(owner, type):
                fn = owner.__dict__.get(attr)  # defined on the class itself
            else:
                fn = getattr(owner, attr, None)
            if not callable(fn):
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapped = self._wrap(fn, target)
            if isinstance(owner, type):
                sites = [owner]
            else:
                sites = [m for m in modules if vars(m).get(attr) is fn]
            for site in sites:
                setattr(site, attr, wrapped)
                self._undo.append((site, attr, fn))

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._undo):
            setattr(site, attr, fn)
        self._undo = []

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        import numpy as np

        return {"layer": np.asarray(self.layer, dtype=np.int64),
                "parent": np.asarray(self.parent, dtype=np.int64),
                "run": np.asarray(self.run, dtype=np.int64),
                "start": np.asarray(self.start, dtype=float),
                "end": np.asarray(self.end, dtype=float)}

    def summary(self) -> dict:
        """Per layer: calls and self seconds, summed over all spans."""
        import numpy as np

        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        k = len(self.layers)
        calls = np.bincount(a["layer"], minlength=k)
        self_s = np.bincount(a["layer"], weights=dur - child, minlength=k)
        return {"layers": {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                           for i, name in enumerate(self.layers)},
                "root_s": float(dur[~nested].sum()), "spans": len(dur),
                "missing": list(self.missing)}

    def save(self, path) -> None:
        import numpy as np

        np.savez(path, layers=np.array(self.layers), **self.arrays())
