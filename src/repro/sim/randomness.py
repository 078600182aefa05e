"""Seeded random-number utilities for reproducible simulations.

All stochastic components of the library (the AMR working-set model, workload
generators, experiment replications) draw their randomness through
:class:`RandomSource` so that every experiment is exactly reproducible from a
single integer seed.

For parallel experiment campaigns the seed of every run is *derived*, not
drawn: :func:`derive_seed` hashes the root seed together with a stable task
identity (scenario name, replicate index, ...) so that the seed of a run does
not depend on how the runs are ordered or distributed over worker processes.

Importing this module does not import numpy: :func:`derive_seed` and
:func:`stable_fingerprint` are pure ``hashlib``, and a campaign coordinator, a
``dist`` worker on units that do not simulate and the listing commands use
nothing else.  numpy is imported by the first :class:`RandomSource` built.
"""
from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

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


class RandomSource:
    """Thin, documented wrapper around :class:`numpy.random.Generator`."""

    def __init__(self, seed: Optional[int] = None):
        import numpy as np

        self.seed = seed
        self._rng = np.random.default_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        """The underlying numpy generator (for vectorised draws)."""
        return self._rng

    def uniform_int(self, low: int, high: int) -> int:
        """Uniform integer in the closed interval ``[low, high]``."""
        return int(self._rng.integers(low, high + 1))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._rng.uniform(low, high))

    def gaussian_array(self, mean: float, std: float, size: int) -> np.ndarray:
        return self._rng.normal(mean, std, size)

    def exponential(self, mean: float) -> float:
        return float(self._rng.exponential(mean))

    def lognormal(self, mean: float, sigma: float) -> float:
        return float(self._rng.lognormal(mean, sigma))

    def choice(self, options: Sequence):
        return options[int(self._rng.integers(0, len(options)))]

    def spawn(self) -> "RandomSource":
        """Derive an independent child stream (stable under numpy spawning)."""
        child_seed = int(self._rng.integers(0, 2**31 - 1))
        return RandomSource(child_seed)

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
