"""Counter-based random number streams.

All simulation noise is drawn from Philox streams keyed by
``(seed, substream)`` with the step index in the counter.  The draw for a
given (seed, substream, step, slot) is therefore independent of how many
other draws happened before it, which gives three properties the
experiment drivers rely on:

* bitwise reproducibility of a run from its seed,
* coupled and independent runs can consume *exactly* the same increments
  by sharing (seed, substream),
* a block of ``n`` rows starts with the block of any ``m < n`` rows at
  the same key, so without interaction the first ``m`` particles of an
  ``n``-particle run follow the ``m``-particle run bitwise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

# Fixed substream ids used across the package.
SUB_MAIN = 0        # plain simulations / first Brownian family
SUB_REFLECT = 1     # B^rc family of a coupled run
SUB_PROXY = 5       # law-proxy ensemble of a chaos run
SUB_SLOTS = 6       # initial slots of a chaos run
SUB_INIT = 7        # initial-condition sampling
SUB_SECOND_INIT = 9  # second initial law of a coupled run
SUB_BOOTSTRAP = 11  # resampling inside estimators


# constructing a Philox pulls OS entropy even when the key is explicit, and
# a Generator costs a few microseconds, so one (key, Philox, Generator) is
# cached per (seed, substream) and re-pointed per step by assigning a fresh
# state: the step in the counter, the buffer emptied.  That dict is numpy's
# private Philox state layout; tests/test_rng.py pins the draws against
# the public ``Generator(Philox(key=..., counter=...))``.  Draws happen
# entirely inside the module functions below; handing the underlying
# generator out would break on interleaved use, and the cache makes this
# module single-threaded (parallelism belongs at replica level, one
# process per worker).
_CACHE: dict[tuple[int, int], tuple[np.ndarray, Philox, Generator]] = {}
_EMPTY = np.zeros(4, dtype=np.uint64)


def _generator(seed: int, substream: int, step: int) -> Generator:
    ident = (seed & 0xFFFFFFFFFFFFFFFF, substream & 0xFFFFFFFFFFFFFFFF)
    cached = _CACHE.get(ident)
    if cached is None:
        key = np.array(ident, dtype=np.uint64)
        bg = Philox(key=key, counter=_EMPTY)
        if len(_CACHE) > 4096:
            _CACHE.clear()
        cached = _CACHE[ident] = (key, bg, Generator(bg))
    key, bg, gen = cached
    # the step index lives in a HIGH counter word: generation increments the
    # low words, so each step owns a disjoint 2^128-value block
    bg.state = {"bit_generator": "Philox",
                "state": {"counter": (0, 0, step, 0), "key": key},
                "buffer": _EMPTY, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def normals(seed: int, substream: int, step: int, shape: tuple[int, ...],
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Standard normal block for one time step.

    Row ``i`` of the block is the increment of particle ``i``.  ``out``, a
    float64 array of ``shape``, receives the block (the values a fresh
    block would hold) and is returned, so a run can reuse one buffer.
    """
    return _generator(seed, substream, step).standard_normal(shape, out=out)


def integers(seed: int, substream: int, step: int, low: int, high: int,
             shape: tuple[int, ...]) -> np.ndarray:
    return _generator(seed, substream, step).integers(low, high, size=shape)
