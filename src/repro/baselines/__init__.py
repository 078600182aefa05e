"""Baselines the paper compares against: the closed-form static run and a
rigid-only FCFS+CBF batch scheduler.  The static AMR itself is
``AmrApplication(static_allocation=True)``; strict equi-partitioning is the
``"coorm-strict"`` policy."""
from .batch_fcfs import BatchJobOutcome, BatchSchedulerBaseline, peak_static_job
from .static_rms import StaticRunPrediction, predict_static_run

__all__ = [
    "BatchJobOutcome",
    "BatchSchedulerBaseline",
    "peak_static_job",
    "StaticRunPrediction",
    "predict_static_run",
]
