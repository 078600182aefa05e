"""Cluster substrate: clusters of node IDs and the multi-cluster platform."""
from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".cluster": ("Cluster",),
        ".platform": ("Platform",),
    },
)
