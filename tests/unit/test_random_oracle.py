"""Bit-exactness oracles: the stdlib-only numerics against numpy itself.

``RandomSource`` claims to be ``numpy.random.default_rng(seed)`` draw for
draw, and ``pairwise_sum`` to be numpy's float64 ``sum`` to the last bit;
every golden of the suite rests on both.  numpy is a test-only dependency:
without it these tests skip.
"""
from __future__ import annotations

import math
import random

import pytest

from repro.models import pairwise_sum
from repro.sim import RandomSource, derive_seed
from repro.sim import randomness
from repro.testing import linspace

np = pytest.importorskip("numpy")

SEEDS = [0, 1, 2**32, 2**63 - 1, 2**64 + 1, 2**128 + 7] + [
    derive_seed(0, "oracle", i) for i in range(200)
]
#: Number of values of a uniform_int range: no draw, Lemire on 32-bit draws
#: (small, 2**31 - 1, 2**32 - 1), one raw 32-bit draw (2**32), Lemire on
#: 64-bit draws (above 2**32).
WIDTHS = [1, 5, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**40 + 17]


def _script(ours: RandomSource, theirs):
    """The same calls on both sides, interleaving 32- and 64-bit draws."""
    for width in WIDTHS:
        yield ours.uniform_int(-3, width - 4), int(theirs.integers(-3, width - 3))
        yield ours.uniform(-2.0, 5.0), float(theirs.uniform(-2.0, 5.0))
    yield ours.gaussian_array(1.0, 2.0, 3), theirs.normal(1.0, 2.0, 3).tolist()
    yield ours.exponential(4.0), float(theirs.exponential(4.0))
    yield ours.lognormal(0.5, 0.25), float(theirs.lognormal(0.5, 0.25))
    yield ours.choice("abcde"), "abcde"[int(theirs.integers(0, 5))]
    child = np.random.default_rng(int(theirs.integers(0, 2**31 - 1)))
    yield ours.spawn().uniform(), float(child.uniform())


def test_every_method_draws_numpys_stream():
    for seed in SEEDS:
        ours, theirs = RandomSource(seed), np.random.default_rng(seed)
        for _ in range(2):
            for mine, numpys in _script(ours, theirs):
                assert mine == numpys, seed


class _Reads(tuple):
    """A ziggurat table that notes which entries were read."""

    def __new__(cls, values, seen):
        table = super().__new__(cls, values)
        table.seen = seen
        return table

    def __getitem__(self, index):
        self.seen.add(index)
        return tuple.__getitem__(self, index)


def test_ziggurats_match_numpy_over_every_layer_wedge_and_tail(monkeypatch):
    seen = {name: set() for name in ("KI", "WI", "FI", "KE", "WE", "FE")}
    for name, indices in seen.items():
        monkeypatch.setattr(randomness, name, _Reads(getattr(randomness, name), indices))
    calls = {"exp": 0, "log1p": 0}

    def counted(name):
        def call(x):
            calls[name] += 1
            return getattr(math, name)(x)
        return call

    monkeypatch.setattr(
        randomness, "math", type("Math", (), {n: staticmethod(counted(n)) for n in calls})
    )
    for seed in (3, 2**32, derive_seed(0, "ziggurat")):
        ours, theirs = RandomSource(seed), np.random.default_rng(seed)
        assert ours.gaussian_array(0.0, 1.0, 70_000) == theirs.normal(0.0, 1.0, 70_000).tolist()
        assert [ours.exponential(1.0) for _ in range(70_000)] == theirs.exponential(
            1.0, 70_000
        ).tolist()
    assert all(indices == set(range(256)) for indices in seen.values())
    # Wedges call exp (a few % of draws), tails log1p (~0.03 %).
    assert calls["exp"] > 1000 and calls["log1p"] > 50


def test_pairwise_sum_is_numpys_sum_for_every_length_to_1500():
    rng = random.Random(5)
    pool = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(1500)]
    for n in range(1501):
        assert pairwise_sum(pool[:n]).hex() == float(np.sum(np.array(pool[:n]))).hex(), n
    assert pairwise_sum([-0.0]).hex() == float(np.sum(np.array([-0.0]))).hex()


def test_linspace_is_numpys():
    for start, stop, num in [(5_000.0, 100_000.0, 15), (5_000.0, 60_000.0, 12), (0.1, 0.7, 7)]:
        assert linspace(start, stop, num) == np.linspace(start, stop, num).tolist()
