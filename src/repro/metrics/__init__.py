"""Metrics collection and plain-text reporting for simulation results."""
from .collector import SimulationMetrics, median_summary
from .report import format_series, format_table

__all__ = [
    "SimulationMetrics",
    "median_summary",
    "format_series",
    "format_table",
]
