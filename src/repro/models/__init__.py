"""Application models: AMR working-set evolution, speed-up, static analysis."""
from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".amr_evolution": (
            "AmrEvolutionParameters", "WorkingSetEvolution", "normalized_profile",
            "working_set_profile",
        ),
        ".speedup": ("SpeedupModel", "PAPER_SPEEDUP_MODEL", "GIB_IN_MIB", "TIB_IN_MIB", "pairwise_sum"),
        ".static_equivalent": (
            "DynamicAllocationResult", "StaticEquivalentResult", "dynamic_allocation",
            "equivalent_static_allocation", "end_time_increase", "static_allocation_range",
            "DEFAULT_NODE_MEMORY_MIB",
        ),
    },
)
