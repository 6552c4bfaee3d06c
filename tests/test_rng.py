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
    # an explicit dtype: a list mixing keys below 2^63 and above promotes to float
    key = np.array([seed, substream], dtype=np.uint64)
    return Generator(Philox(key=key, counter=[0, 0, step, 0]))


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


@pytest.mark.parametrize("seed, substream, masked", [
    (-1, 0, (2**64 - 1, 0)),
    (-7, -2, (2**64 - 7, 2**64 - 2)),
    (2**64 + 5, 1, (5, 1)),
    (3 * 2**64 + 9, 2**65 + 11, (9, 11)),
])
def test_raw_keys_draw_the_masked_public_key(seed, substream, masked):
    # the cache holds raw (seed, substream) and masks only when it builds a stream
    shape = (3, 2)
    got = rng.normals(seed, substream, 41, shape)
    assert np.array_equal(got, public(*masked, 41).standard_normal(shape))
    assert np.array_equal(rng.normals(*masked, 41, shape), got)
    assert np.array_equal(rng.integers(seed, substream, 41, 0, 99, (5,)),
                          public(*masked, 41).integers(0, 99, size=(5,)))


@pytest.mark.parametrize("seed, substream", [(5, 0), (-3, 0), (7, -2), (2**63 - 1, 1)])
def test_numpy_integer_keys_draw_what_python_ints_draw(monkeypatch, seed, substream):
    # an empty cache: a Python-int key equal to the numpy one would hide a
    # numpy key that fails to build its stream
    monkeypatch.setattr(rng, "_CACHE", {})
    expected = public(seed & (2**64 - 1), substream & (2**64 - 1), 3).standard_normal((2,))
    for kind in (np.int64, np.uint64):
        if kind is np.uint64 and (seed < 0 or substream < 0):
            continue
        rng._CACHE.clear()
        assert np.array_equal(rng.normals(kind(seed), kind(substream), 3, (2,)), expected)
    assert np.array_equal(rng.normals(seed, substream, 3, (2,)), expected)


def test_draws_match_after_the_cache_is_evicted(monkeypatch):
    monkeypatch.setattr(rng, "_CACHE", {})
    seeds = range(4200)
    first = [rng.normals(seed, 3, seed % 7, (2,)) for seed in seeds]
    assert len(rng._CACHE) < 4200
    again = [rng.normals(seed, 3, seed % 7, (2,)) for seed in seeds]
    for seed, a, b in zip(seeds, first, again):
        expected = public(seed, 3, seed % 7).standard_normal((2,))
        assert np.array_equal(a, expected) and np.array_equal(b, expected), seed


class MovedStep(Philox):
    """A Philox whose private state reads the step from another counter word,
    as a numpy release that changed that layout would."""

    @property
    def state(self):
        return Philox.state.__get__(self)

    @state.setter
    def state(self, value):
        c = value["state"]["counter"]
        Philox.state.__set__(self, {**value, "state": {**value["state"],
                                                       "counter": (c[0], c[2], c[1], c[3])}})


class RenamedCounter(MovedStep):
    """A Philox whose private state no longer has a ``counter`` entry."""

    @MovedStep.state.setter
    def state(self, value):
        value["state"]["ctr"]


@pytest.mark.parametrize("bit_generator", [MovedStep, RenamedCounter])
def test_a_changed_private_layout_is_refused(monkeypatch, bit_generator):
    monkeypatch.setattr(rng, "_CACHE", {})
    monkeypatch.setattr(rng, "Philox", bit_generator)
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__} changed"):
        rng.normals(5, 0, 3, (2,))
    assert rng._CACHE == {}
