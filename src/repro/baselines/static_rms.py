"""The static-allocation baseline of Figure 9.

The paper compares two ways of running the evolving AMR application under
CooRMv2: *dynamic* (the application adapts its non-preemptible request inside
its pre-allocation) and *static* (the application "is forced to use all the
resources it has pre-allocated", i.e. what a classical RMS would impose).
The static variant is ``AmrApplication(static_allocation=True)``.  This module
holds the analytical shortcut: the resource consumption of a static run can be
computed without simulation because the node count never changes.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..models.amr_evolution import WorkingSetEvolution
from ..models.speedup import PAPER_SPEEDUP_MODEL, SpeedupModel

__all__ = ["StaticRunPrediction", "predict_static_run"]


@dataclass(frozen=True)
class StaticRunPrediction:
    """Closed-form outcome of a static AMR run."""

    node_count: int
    end_time: float
    used_node_seconds: float


def predict_static_run(
    evolution: WorkingSetEvolution,
    node_count: int,
    speedup_model: SpeedupModel = PAPER_SPEEDUP_MODEL,
) -> StaticRunPrediction:
    """Compute the end time and consumed area of a static run analytically.

    Because the node count is constant, each step's duration follows directly
    from the speed-up model; no discrete-event simulation is needed.  It is
    the closed-form oracle ``test_workloads_baselines.py`` checks simulated
    static runs against; nothing in the simulator calls it.
    """
    if node_count <= 0:
        raise ValueError("node_count must be positive")
    sizes = evolution.sizes_mib
    durations = (
        speedup_model.a * sizes / node_count
        + speedup_model.b * node_count
        + speedup_model.c * sizes
        + speedup_model.d
    )
    end_time = float(durations.sum())
    return StaticRunPrediction(
        node_count=node_count,
        end_time=end_time,
        used_node_seconds=node_count * end_time,
    )
