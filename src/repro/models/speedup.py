"""Speed-up model of an AMR application (paper Section 2.2).

The duration of one AMR step as a function of the allocated node count *n*
and the data size *S* (MiB) is modelled as

.. math::

    t(n, S) = A \\cdot S / n + B \\cdot n + C \\cdot S + D

where *A* captures the perfectly parallelisable work, *B* the parallelisation
overhead, *C* the per-node cost per unit of data (weak-scalability limit) and
*D* a constant term.  The constants below are the paper's fit against the
Uintah AMR measurements of Luitjens & Berzins (IPDPS 2010); the fit is within
15 % of every measured point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SpeedupModel", "PAPER_SPEEDUP_MODEL", "GIB_IN_MIB", "TIB_IN_MIB"]

#: MiB per GiB / TiB, used when reproducing Figure 2's data sizes.
GIB_IN_MIB = 1024.0
TIB_IN_MIB = 1024.0 * 1024.0


@dataclass(frozen=True)
class SpeedupModel:
    """The four-parameter step-duration model.

    Units: *A* is s·node/MiB, *B* is s/node, *C* is s/MiB, *D* is s.
    """

    a: float = 7.26e-3
    b: float = 1.23e-4
    c: float = 1.13e-6
    d: float = 1.38
    #: Peak data size of the fitted dataset (3.16 TiB), in MiB.
    s_max_mib: float = 3.16 * TIB_IN_MIB

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c) <= 0 or self.d < 0:
            raise ValueError("model coefficients must be positive (D non-negative)")
        if self.s_max_mib <= 0:
            raise ValueError("s_max_mib must be positive")

    # ------------------------------------------------------------------ #
    # Core quantities
    # ------------------------------------------------------------------ #
    def step_duration(self, nodes: float, size_mib: float) -> float:
        """Duration (seconds) of one step on *nodes* nodes with *size_mib* data.

        Memoized: the simulation evaluates the model for the same
        ``(nodes, size)`` pairs over and over (the working set only changes
        once per AMR step while the RMS re-schedules every second), so the
        instances share a bounded LRU cache keyed by the model and the
        arguments.
        """
        if nodes <= 0:
            raise ValueError("nodes must be positive")
        if size_mib < 0:
            raise ValueError("size_mib must be non-negative")
        return self._step_duration_cached(float(nodes), float(size_mib))

    @lru_cache(maxsize=1 << 17)
    def _step_duration_cached(self, nodes: float, size_mib: float) -> float:
        return self.a * size_mib / nodes + self.b * nodes + self.c * size_mib + self.d

    def step_duration_array(self, nodes: np.ndarray, size_mib: float) -> np.ndarray:
        """Vectorised :meth:`step_duration` over an array of node counts."""
        import numpy as np

        nodes = np.asarray(nodes, dtype=float)
        if (nodes <= 0).any():
            raise ValueError("nodes must be positive")
        return self.a * size_mib / nodes + self.b * nodes + self.c * size_mib + self.d

    def speedup(self, nodes: float, size_mib: float) -> float:
        """Speed-up relative to a single node."""
        return self.step_duration(1, size_mib) / self.step_duration(nodes, size_mib)

    def efficiency(self, nodes: float, size_mib: float) -> float:
        """Parallel efficiency: speed-up divided by the node count."""
        if nodes <= 0:
            raise ValueError("nodes must be positive")
        return self.speedup(nodes, size_mib) / nodes

    # ------------------------------------------------------------------ #
    # Targeting a given efficiency (what the AMR application does)
    # ------------------------------------------------------------------ #
    def nodes_for_efficiency(
        self, size_mib: float, target_efficiency: float, max_nodes: int = 1_000_000
    ) -> int:
        """Largest node count whose efficiency is still >= *target_efficiency*.

        Efficiency decreases monotonically with the node count, so this is the
        node count an application targeting that efficiency should allocate
        for the current data size.  Never smaller than 1.
        """
        if not 0 < target_efficiency <= 1:
            raise ValueError("target_efficiency must be in (0, 1]")
        if size_mib < 0:
            raise ValueError("size_mib must be non-negative")
        return self._nodes_for_efficiency_cached(
            float(size_mib), float(target_efficiency), int(max_nodes)
        )

    @lru_cache(maxsize=1 << 16)
    def _nodes_for_efficiency_cached(
        self, size_mib: float, target_efficiency: float, max_nodes: int
    ) -> int:
        if self.efficiency(1, size_mib) < target_efficiency:
            return 1
        lo, hi = 1, 2
        while hi < max_nodes and self.efficiency(hi, size_mib) >= target_efficiency:
            lo, hi = hi, hi * 2
        hi = min(hi, max_nodes)
        # Binary search for the last node count meeting the target.
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.efficiency(mid, size_mib) >= target_efficiency:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def consumed_area(self, nodes: float, size_mib: float) -> float:
        """Node-seconds consumed by one step (node count x step duration)."""
        return nodes * self.step_duration(nodes, size_mib)

    # ------------------------------------------------------------------ #
    # Figure 2 helpers
    # ------------------------------------------------------------------ #
    def duration_series(
        self, node_counts: Iterable[int], size_mib: float
    ) -> List[Tuple[int, float]]:
        """``(nodes, duration)`` pairs for one data size (one Figure 2 curve)."""
        return [(int(n), self.step_duration(n, size_mib)) for n in node_counts]

    def optimal_nodes(self, size_mib: float) -> float:
        """Node count that minimises the step duration (d t/d n = 0).

        Beyond this point adding nodes *increases* the step duration because
        the parallelisation overhead ``B * n`` dominates.
        """
        if size_mib <= 0:
            return 1.0
        return math.sqrt(self.a * size_mib / self.b)


    # ------------------------------------------------------------------ #
    # Cache management (shared, bounded LRU caches across all instances)
    # ------------------------------------------------------------------ #
    @classmethod
    def cache_stats(cls) -> Dict[str, Tuple[int, int, int, int]]:
        """``functools.lru_cache`` info of every memoized model method."""
        return {
            "step_duration": tuple(cls._step_duration_cached.cache_info()),
            "nodes_for_efficiency": tuple(cls._nodes_for_efficiency_cached.cache_info()),
        }

    @classmethod
    def clear_caches(cls) -> None:
        """Drop all memoized evaluations (mainly for benchmarks and tests)."""
        cls._step_duration_cached.cache_clear()
        cls._nodes_for_efficiency_cached.cache_clear()


#: The exact constants published in the paper (Section 2.2).
PAPER_SPEEDUP_MODEL = SpeedupModel()
