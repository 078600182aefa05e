"""Application models: AMR working-set evolution, speed-up, static analysis."""
from .amr_evolution import (
    AmrEvolutionParameters,
    WorkingSetEvolution,
    normalized_profile,
    working_set_profile,
)
from .speedup import GIB_IN_MIB, PAPER_SPEEDUP_MODEL, SpeedupModel, TIB_IN_MIB, pairwise_sum
from .static_equivalent import (
    DEFAULT_NODE_MEMORY_MIB,
    DynamicAllocationResult,
    StaticEquivalentResult,
    dynamic_allocation,
    end_time_increase,
    equivalent_static_allocation,
    static_allocation_range,
)

__all__ = [
    "AmrEvolutionParameters",
    "WorkingSetEvolution",
    "normalized_profile",
    "working_set_profile",
    "SpeedupModel",
    "PAPER_SPEEDUP_MODEL",
    "GIB_IN_MIB",
    "TIB_IN_MIB",
    "pairwise_sum",
    "DynamicAllocationResult",
    "StaticEquivalentResult",
    "dynamic_allocation",
    "equivalent_static_allocation",
    "end_time_increase",
    "static_allocation_range",
    "DEFAULT_NODE_MEMORY_MIB",
]
