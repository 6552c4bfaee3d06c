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

# step key of the W-curve's replica subsample on SUB_BOOTSTRAP, far above
# the keys 2 (first + b) + {0, 1} of the bootstrap resamples
STEP_SUBSAMPLE = 10_000_019


# constructing a Philox pulls OS entropy even when the key is explicit, so
# bit generators are cached per (seed, substream) and re-pointed per step.
# Draws happen entirely inside the module functions below; handing the
# underlying generator out would break on interleaved use, and the cache
# makes this module single-threaded (parallelism belongs at replica level,
# one process per worker).
_CACHE: dict[tuple[int, int], Philox] = {}


def _generator(seed: int, substream: int, step: int) -> Generator:
    ident = (seed & 0xFFFFFFFFFFFFFFFF, substream & 0xFFFFFFFFFFFFFFFF)
    bg = _CACHE.get(ident)
    if bg is None:
        key = np.array(ident, dtype=np.uint64)
        bg = Philox(key=key, counter=np.zeros(4, dtype=np.uint64))
        if len(_CACHE) > 4096:
            _CACHE.clear()
        _CACHE[ident] = bg
    # the step index lives in a HIGH counter word: generation increments the
    # low words, so each step owns a disjoint 2^128-value block
    state = bg.state
    state["state"]["counter"] = np.array([0, 0, np.uint64(step), 0], dtype=np.uint64)
    state["buffer_pos"] = 4          # discard any buffered draws
    state["has_uint32"] = 0
    state["uinteger"] = 0
    bg.state = state
    return Generator(bg)


def normals(seed: int, substream: int, step: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal block for one time step.

    Row ``i`` of the block is the increment of particle ``i``.
    """
    return _generator(seed, substream, step).standard_normal(shape)


def integers(seed: int, substream: int, step: int, low: int, high: int,
             shape: tuple[int, ...]) -> np.ndarray:
    return _generator(seed, substream, step).integers(low, high, size=shape)
