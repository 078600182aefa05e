"""Dynamic vs equivalent-static allocation analysis (paper Section 2.3).

Given a working-set evolution and a target efficiency, this module computes

* the **dynamic allocation**: the per-step node count that keeps the
  application at the target efficiency, and the resulting consumed resource
  area :math:`A(e_t)` and end-time;
* the **equivalent static allocation** :math:`n_{eq}`: the constant node
  count that consumes the same resource area over the whole execution
  (requires a-posteriori knowledge of the evolution);
* the **end-time increase** caused by using the static allocation instead of
  the dynamic one (Figure 3, at most ~2.5 % for targets below 0.8);
* the **range of static choices** a user could defend without knowing the
  evolution: enough nodes to never run out of memory, but no more than 10 %
  extra resources compared to :math:`A(0.75)` (Figure 4).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from .amr_evolution import WorkingSetEvolution
from .speedup import SpeedupModel, PAPER_SPEEDUP_MODEL

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DynamicAllocationResult",
    "StaticEquivalentResult",
    "dynamic_allocation",
    "equivalent_static_allocation",
    "end_time_increase",
    "static_allocation_range",
    "DEFAULT_NODE_MEMORY_MIB",
]

#: Memory per node assumed for the "no out-of-memory" constraint of Figure 4.
#: The paper does not publish the node memory of its reference platform; this
#: default (4 GiB/node) gives peak-size node counts in the same range as the
#: paper's Figure 4 x-axis (a few hundred to a few thousand hosts).
DEFAULT_NODE_MEMORY_MIB = 4096.0


@dataclass(frozen=True)
class DynamicAllocationResult:
    """Per-step allocation that tracks the target efficiency."""

    target_efficiency: float
    node_counts: np.ndarray
    step_durations: np.ndarray

    @property
    def consumed_area(self) -> float:
        """Total node-seconds (the paper's :math:`A(e_t)`)."""
        return float((self.node_counts * self.step_durations).sum())

    @property
    def end_time(self) -> float:
        """Total execution time of the dynamic allocation."""
        return float(self.step_durations.sum())

    @property
    def peak_nodes(self) -> int:
        """Largest per-step allocation (the NEA's worst-case requirement)."""
        return int(self.node_counts.max())


@dataclass(frozen=True)
class StaticEquivalentResult:
    """The equivalent static allocation and its consequences."""

    target_efficiency: float
    n_eq: float
    static_end_time: float
    dynamic_end_time: float
    consumed_area: float

    @property
    def end_time_increase(self) -> float:
        """Relative end-time increase of static over dynamic (e.g. 0.025 = 2.5 %)."""
        if self.dynamic_end_time <= 0:
            return 0.0
        return self.static_end_time / self.dynamic_end_time - 1.0


def dynamic_allocation(
    evolution: WorkingSetEvolution,
    target_efficiency: float,
    model: SpeedupModel = PAPER_SPEEDUP_MODEL,
) -> DynamicAllocationResult:
    """Compute the per-step allocation that keeps the target efficiency.

    Only the current step's data size is needed for each decision, which is
    why a non-predictably evolving application can follow this policy online.
    """
    import numpy as np

    nodes = np.empty(evolution.num_steps, dtype=float)
    durations = np.empty(evolution.num_steps, dtype=float)
    for i, size in enumerate(evolution.sizes_mib):
        n = model.nodes_for_efficiency(size, target_efficiency)
        nodes[i] = n
        durations[i] = model.step_duration(n, size)
    return DynamicAllocationResult(
        target_efficiency=target_efficiency,
        node_counts=nodes,
        step_durations=durations,
    )


def _static_area(n: float, sizes: np.ndarray, model: SpeedupModel) -> float:
    """Consumed area if *n* nodes are allocated during every step."""
    durations = model.a * sizes / n + model.b * n + model.c * sizes + model.d
    return float(n * durations.sum())


def equivalent_static_allocation(
    evolution: WorkingSetEvolution,
    target_efficiency: float,
    model: SpeedupModel = PAPER_SPEEDUP_MODEL,
    max_nodes: int = 1_000_000,
) -> Optional[StaticEquivalentResult]:
    """Find the static node count consuming the same area as the dynamic run.

    Requires a-posteriori knowledge of the whole evolution.  Returns ``None``
    when no equivalent static allocation exists (the paper observes this for
    target efficiencies of roughly 0.8 and above: even a single node consumes
    more area than the very efficient dynamic allocation).
    """
    dyn = dynamic_allocation(evolution, target_efficiency, model)
    target_area = dyn.consumed_area
    sizes = evolution.sizes_mib

    lo, hi = 1.0, 2.0
    if _static_area(lo, sizes, model) > target_area:
        return None
    while _static_area(hi, sizes, model) < target_area and hi < max_nodes:
        lo, hi = hi, hi * 2
    if _static_area(hi, sizes, model) < target_area:
        return None

    # The consumed area is strictly increasing in n, so bisection converges.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _static_area(mid, sizes, model) < target_area:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-6:
            break
    n_eq = 0.5 * (lo + hi)

    static_durations = model.a * sizes / n_eq + model.b * n_eq + model.c * sizes + model.d
    return StaticEquivalentResult(
        target_efficiency=target_efficiency,
        n_eq=n_eq,
        static_end_time=float(static_durations.sum()),
        dynamic_end_time=dyn.end_time,
        consumed_area=target_area,
    )


def end_time_increase(
    evolution: WorkingSetEvolution,
    target_efficiency: float,
    model: SpeedupModel = PAPER_SPEEDUP_MODEL,
) -> Optional[float]:
    """End-time increase (fraction) of the equivalent static allocation.

    This is one point of Figure 3.  ``None`` when :math:`n_{eq}` does not
    exist for this target efficiency.
    """
    result = equivalent_static_allocation(evolution, target_efficiency, model)
    return None if result is None else result.end_time_increase


def static_allocation_range(
    evolution: WorkingSetEvolution,
    target_efficiency: float = 0.75,
    overuse_tolerance: float = 0.10,
    node_memory_mib: float = DEFAULT_NODE_MEMORY_MIB,
    model: SpeedupModel = PAPER_SPEEDUP_MODEL,
) -> Optional[Tuple[int, int]]:
    """Range of defensible static node counts (Figure 4).

    The lower bound is the smallest node count whose aggregate memory holds
    the peak working set (no out-of-memory).  The upper bound is the largest
    node count whose consumed area stays within ``1 + overuse_tolerance``
    times the dynamic area :math:`A(e_t)`.  Returns ``None`` when the range is
    empty -- i.e. the user cannot pick any safe-and-efficient static
    allocation, which is exactly the paper's argument for RMS support.
    """
    if node_memory_mib <= 0:
        raise ValueError("node_memory_mib must be positive")
    dyn = dynamic_allocation(evolution, target_efficiency, model)
    max_area = (1.0 + overuse_tolerance) * dyn.consumed_area
    sizes = evolution.sizes_mib

    n_min = max(1, int(math.ceil(evolution.peak_size_mib / node_memory_mib)))

    # The consumed area is increasing in n, so search upward from n_min.
    if _static_area(n_min, sizes, model) > max_area:
        return None
    lo, hi = n_min, max(n_min * 2, n_min + 1)
    while _static_area(hi, sizes, model) <= max_area:
        lo, hi = hi, hi * 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _static_area(mid, sizes, model) <= max_area:
            lo = mid
        else:
            hi = mid - 1
    return n_min, lo
