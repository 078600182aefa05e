"""Synthetic workload generation."""
from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".generator": ("RigidJobSpec", "WorkloadParameters", "generate_rigid_workload"),
    },
)
