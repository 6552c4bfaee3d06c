"""The noise streams against numpy's public Philox API.

``rng._generator`` re-points a cached generator by writing numpy's private
Philox state; these tests pin every draw to what the public constructor
gives for the same key and counter, whatever was drawn before.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.random import Generator, Philox

from kinlang import rng

# (seed, substream, step, shape) keys of the benchmark's noise fingerprint:
# plain, reflection, chaos-slot and bootstrap substreams, small and huge steps
NOISE_KEYS = ((0, 0, 0, (8,)), (31, 1, 2999, (4, 2)), (179, 6, 199, (3, 1)),
              (123456789, 11, 10_000_019, (5,)))


def public(seed, substream, step):
    return Generator(Philox(key=[seed, substream], counter=[0, 0, step, 0]))


@pytest.mark.parametrize("seed, substream, step, shape", NOISE_KEYS)
def test_normals_match_public_philox(seed, substream, step, shape):
    got = rng.normals(seed, substream, step, shape)
    assert np.array_equal(got, public(seed, substream, step).standard_normal(shape))


@pytest.mark.parametrize("seed, substream, step, shape", NOISE_KEYS)
def test_integers_match_public_philox(seed, substream, step, shape):
    got = rng.integers(seed, substream, step, 0, 1000, shape)
    assert np.array_equal(got, public(seed, substream, step).integers(0, 1000, size=shape))


def test_interleaved_draws_match_isolated_draws():
    # the same key drawn twice, other keys in between, and odd-length
    # integer draws (which leave half of a 64-bit word buffered)
    calls = [("normals", 3, 0, 5, (2, 3)),
             ("integers", 3, 0, 5, (7,)),
             ("normals", 3, 1, 5, (4,)),
             ("normals", 3, 0, 5, (2, 3)),
             ("integers", 8, 11, 2, (3,)),
             ("normals", 3, 0, 6, (1, 1)),
             ("integers", 3, 0, 5, (7,)),
             ("normals", 8, 11, 2, (5,)),
             ("normals", 3, 0, 5, (6,))]

    def draw(kind, seed, substream, step, shape):
        if kind == "normals":
            return rng.normals(seed, substream, step, shape)
        return rng.integers(seed, substream, step, 0, 50, shape)

    interleaved = [draw(*call) for call in calls]
    for call, got in zip(calls, interleaved):
        kind, seed, substream, step, shape = call
        gen = public(seed, substream, step)
        expected = (gen.standard_normal(shape) if kind == "normals"
                    else gen.integers(0, 50, size=shape))
        assert np.array_equal(got, expected), call
        assert np.array_equal(got, draw(*call)), call
