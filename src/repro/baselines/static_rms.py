"""The static-allocation baseline of Figure 9.

The paper compares two ways of running the evolving AMR application under
CooRMv2: *dynamic* (the application adapts its non-preemptible request inside
its pre-allocation) and *static* (the application "is forced to use all the
resources it has pre-allocated", i.e. what a classical RMS would impose).
This module provides a factory that builds the static variant of the AMR
application, plus an analytical shortcut used by fast tests: the resource
consumption of a static run can be computed without simulation because the
node count never changes.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..apps.nea import AmrApplication
from ..models.amr_evolution import WorkingSetEvolution
from ..models.speedup import PAPER_SPEEDUP_MODEL, SpeedupModel

__all__ = ["StaticRunPrediction", "make_static_amr", "predict_static_run"]


@dataclass(frozen=True)
class StaticRunPrediction:
    """Closed-form outcome of a static AMR run."""

    node_count: int
    end_time: float
    used_node_seconds: float


def make_static_amr(
    name: str,
    evolution: WorkingSetEvolution,
    preallocation_nodes: int,
    cluster_id: str = "cluster0",
    speedup_model: SpeedupModel = PAPER_SPEEDUP_MODEL,
) -> AmrApplication:
    """Build the AMR application variant that never adapts its allocation."""
    return AmrApplication(
        name=name,
        evolution=evolution,
        preallocation_nodes=preallocation_nodes,
        cluster_id=cluster_id,
        static_allocation=True,
        speedup_model=speedup_model,
    )


def predict_static_run(
    evolution: WorkingSetEvolution,
    node_count: int,
    speedup_model: SpeedupModel = PAPER_SPEEDUP_MODEL,
) -> StaticRunPrediction:
    """Compute the end time and consumed area of a static run analytically.

    Because the node count is constant, each step's duration follows directly
    from the speed-up model; no discrete-event simulation is needed.  Used to
    cross-check the simulated static runs in the test suite.
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
