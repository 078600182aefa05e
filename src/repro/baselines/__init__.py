"""Baselines the paper compares against: the closed-form static run and a
rigid-only FCFS+CBF batch scheduler.  The static AMR itself is
``AmrApplication(static_allocation=True)``; strict equi-partitioning is the
``"coorm-strict"`` policy."""
from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".batch_fcfs": ("BatchSchedulerBaseline", "peak_static_job"),
        ".static_rms": ("StaticRunPrediction", "predict_static_run"),
    },
)
