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

import operator
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
# a Generator costs a few microseconds, so each (seed, substream) stream is
# built once: its key masked to 64 bits, a Philox and its Generator, and one
# state dict in numpy's private Philox layout, with the key and the empty
# buffer as Python ints.  A draw swaps the step into that dict's counter and
# assigns the same dict to ``bg.state``, which re-points the generator: the
# step in the counter, the buffer emptied.  A new stream checks that layout
# once (``_stream``), and tests/test_rng.py pins the draws against the
# public ``Generator(Philox(key=..., counter=...))``.  Draws happen
# entirely inside the module functions below; handing the underlying
# generator out would break on interleaved use, and the cache makes this
# module single-threaded (parallelism belongs at replica level, one
# process per worker).  The cache is keyed by the raw (seed, substream),
# so two raw values that mask to one key are two entries of one stream.
_CACHE: dict[tuple[int, int], tuple[dict, dict, Philox, Generator]] = {}
_MASK = 0xFFFFFFFFFFFFFFFF
# the counter of the layout check: nonzero in the step's word only
_PROBE = (0, 0, 1, 0)


def _stream(seed: int, substream: int) -> tuple[dict, dict, Philox, Generator]:
    """Build, check and cache the stream of ``(seed, substream)``.

    The check draws from the Philox the public constructor pointed at the
    counter ``_PROBE``, then re-points it there through the state dict and
    draws again: numpy changing its private Philox state raises here,
    naming numpy's version, instead of shifting every draw."""
    # as Python ints: a numpy integer would overflow against the mask
    key = (operator.index(seed) & _MASK, operator.index(substream) & _MASK)
    bg = Philox(key=np.array(key, dtype=np.uint64), counter=_PROBE)
    gen = Generator(bg)
    public = gen.standard_normal(8).tolist()
    counter = {"counter": _PROBE, "key": key}
    state = {"bit_generator": "Philox", "state": counter, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    try:
        bg.state = state
        same = gen.standard_normal(8).tolist() == public
    except (KeyError, TypeError, ValueError):
        same = False
    if not same:
        raise RuntimeError(f"numpy {np.__version__} changed the private Philox state "
                           "that kinlang.rng re-points: its draws no longer match "
                           "the public Philox(key=..., counter=...)")
    if len(_CACHE) >= 4096:
        _CACHE.clear()
    stream = _CACHE[seed, substream] = (state, counter, bg, gen)
    return stream


def _generator(seed: int, substream: int, step: int) -> Generator:
    stream = _CACHE.get((seed, substream))
    if stream is None:
        stream = _stream(seed, substream)
    state, counter, bg, gen = stream
    # the step index lives in a HIGH counter word: generation increments the
    # low words, so each step owns a disjoint 2^128-value block
    counter["counter"] = (0, 0, step, 0)
    bg.state = state
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
