"""Metrics collection and plain-text reporting for simulation results."""
from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".collector": ("SimulationMetrics", "median_summary"),
        ".report": ("format_table",),
    },
)
