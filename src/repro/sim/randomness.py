"""Seeded random-number utilities for reproducible simulations.

All stochastic components of the library (the AMR working-set model, workload
generators, experiment replications) draw their randomness through
:class:`RandomSource` so that every experiment is exactly reproducible from a
single integer seed.

For parallel experiment campaigns the seed of every run is *derived*, not
drawn: :func:`derive_seed` hashes the root seed together with a stable task
identity (scenario name, replicate index, ...) so that the seed of a run does
not depend on how the runs are ordered or distributed over worker processes.

:class:`RandomSource` is ``numpy.random.default_rng(seed)`` in pure Python:
the same ``SeedSequence`` hashing of the seed, the same PCG64 stream and the
same samplers, so every draw is bit for bit the one numpy makes
(``tests/unit/test_random_oracle.py`` checks it against numpy when numpy is
installed).  The simulator itself never imports numpy.
"""
from __future__ import annotations

import hashlib
import math
import os
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .ziggurat import FE, FI, KE, KI, WE, WI

__all__ = ["RandomSource", "derive_seed", "spawn_streams", "stable_fingerprint"]

#: derive_seed() returns non-negative seeds strictly below this bound, which
#: keeps them inside the range numpy accepts as a single-integer seed.
MAX_DERIVED_SEED = 2**63


def derive_seed(root: Optional[int], *components) -> int:
    """Derive a child seed from *root* and a stable task identity.

    The derivation hashes (SHA-256) the textual representation of the root
    seed and every component, so it is

    * **deterministic** across processes and Python versions (unlike the
      built-in ``hash``, which is salted per process);
    * **order-independent across tasks**: the seed of task *i* never depends
      on how many other tasks ran before it, which makes parallel campaigns
      reproducible regardless of worker scheduling order;
    * **well-mixed**: nearby roots / replicate indices yield unrelated seeds.

    Components may be ints, strings, floats or tuples thereof; they are
    separated by an escape byte so ``("ab", "c")`` and ``("a", "bc")`` derive
    different seeds.
    """
    texts = [repr(None if root is None else int(root)), *map(repr, components)]
    digest = hashlib.sha256("\x1f".join(texts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % MAX_DERIVED_SEED


def stable_fingerprint(data: Union[bytes, str]) -> str:
    """Short, stable SHA-256 content fingerprint (for provenance records).

    Trace and workload provenance records carry this fingerprint of the raw
    input bytes so that two campaign runs can be compared not just by the
    *name* of the trace file they replayed but by its *content* -- renamed or
    silently-edited inputs become visible in the result store.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: numpy's ziggurat constants (distributions.c).
_NOR_R = 3.6541528853610087963519472518
_NOR_INV_R = 0.27366123732975827203338247596
_EXP_R = 7.6971174701310497140446280481


def _hashmix(value: int, const: int, mult: int) -> Tuple[int, int]:
    """One hashing step of ``SeedSequence``: the hashed value, the next constant."""
    value ^= const
    const = const * mult & _M32
    value = value * const & _M32
    return value ^ (value >> 16), const


def _seed_sequence(entropy: int) -> List[int]:
    """``SeedSequence(entropy).generate_state(4, uint64)``, numpy's hashing."""
    words = [entropy >> shift & _M32 for shift in range(0, max(entropy.bit_length(), 1), 32)]
    const, pool = 0x43B0D7E5, []
    for word in (words + [0] * 4)[:4]:
        value, const = _hashmix(word, const, 0x931E8875)
        pool.append(value)
    # Every pool word into every other one, then the words beyond the fourth.
    feeds = [(pool, src, dst) for src in range(4) for dst in range(4) if src != dst]
    feeds += [(words, src, dst) for src in range(4, len(words)) for dst in range(4)]
    for source, src, dst in feeds:
        value, const = _hashmix(source[src], const, 0x931E8875)
        mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * value) & _M32
        pool[dst] = mixed ^ (mixed >> 16)
    const, state = 0x8B51F9DD, []
    for i in range(8):
        value, const = _hashmix(pool[i % 4], const, 0x58F38DED)
        state.append(value)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class RandomSource:
    """A seeded stream: ``numpy.random.default_rng(seed)``, draw for draw.

    PCG64 (XSL-RR output of a 128-bit LCG) seeded through ``SeedSequence``;
    32-bit draws use each 64-bit output twice, low half first, as numpy does.
    """

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        if seed is not None and int(seed) < 0:
            raise ValueError("seed must be non-negative")
        entropy = int.from_bytes(os.urandom(16), "little") if seed is None else int(seed)
        w = _seed_sequence(entropy)
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
        # pcg64_srandom_r: step from 0, add the seed, step again.
        self._state = ((self._inc + (w[0] << 64 | w[1])) * _PCG_MULT + self._inc) & _M128
        self._half: Optional[int] = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _M32

    def _next_double(self) -> float:
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def _integer(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)``: Lemire's method on [low, high)."""
        span = high - 1 - low
        if span < 0:
            raise ValueError("low >= high")
        if span == 0:
            return low
        if span == _M32:
            return low + self._next32()
        bits, draw = (32, self._next32) if span < _M32 else (64, self._next64)
        mask = (1 << bits) - 1
        bound = span + 1
        m = draw() * bound
        if m & mask < bound:
            threshold = (mask - span) % bound
            while m & mask < threshold:
                m = draw() * bound
        return low + (m >> bits)

    def _standard_normal(self) -> float:
        while True:
            r = self._next64()
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * WI[idx]
            if r & 1:
                x = -x
            if rabs < KI[idx]:
                return x
            if idx == 0:
                while True:
                    xx = -_NOR_INV_R * math.log1p(-self._next_double())
                    yy = -math.log1p(-self._next_double())
                    if yy + yy > xx * xx:
                        return -(_NOR_R + xx) if (rabs >> 8) & 1 else _NOR_R + xx
            elif (FI[idx - 1] - FI[idx]) * self._next_double() + FI[idx] < math.exp(-0.5 * x * x):
                return x

    def _standard_exponential(self) -> float:
        while True:
            r = self._next64() >> 3
            idx = r & 0xFF
            r >>= 8
            x = r * WE[idx]
            if r < KE[idx]:
                return x
            if idx == 0:
                return _EXP_R - math.log1p(-self._next_double())
            if (FE[idx - 1] - FE[idx]) * self._next_double() + FE[idx] < math.exp(-x):
                return x

    def uniform_int(self, low: int, high: int) -> int:
        """Uniform integer in the closed interval ``[low, high]``."""
        return self._integer(int(low), int(high) + 1)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * self._next_double()

    def gaussian_array(self, mean: float, std: float, size: int) -> List[float]:
        return [mean + std * self._standard_normal() for _ in range(size)]

    def exponential(self, mean: float) -> float:
        return mean * self._standard_exponential()

    def lognormal(self, mean: float, sigma: float) -> float:
        return math.exp(mean + sigma * self._standard_normal())

    def choice(self, options: Sequence):
        return options[self._integer(0, len(options))]

    def spawn(self) -> "RandomSource":
        """Derive an independent child stream (stable under numpy spawning)."""
        return RandomSource(self._integer(0, 2**31 - 1))

    def derive(self, *components) -> "RandomSource":
        """Derive an independent child stream from a stable identity.

        Unlike :meth:`spawn`, this does not advance (or depend on) the state
        of this source: the child is fully determined by this source's seed
        and *components* (see :func:`derive_seed`), so it can be used from
        parallel workers in any order.

        An unseeded source has no reproducible identity to derive from, so
        its children are entropy-seeded (still independent, never the
        deterministic ``derive_seed(None, ...)`` constant).
        """
        if self.seed is None:
            return RandomSource(None)
        return RandomSource(derive_seed(self.seed, *components))


def spawn_streams(seed: Optional[int], count: int) -> Iterator[RandomSource]:
    """Yield *count* independent :class:`RandomSource` streams from one seed."""
    root = RandomSource(seed)
    for _ in range(count):
        yield root.spawn()
