"""Queue-ordering stages: FCFS, SJF, largest-area-first and fair-share.

Every strategy returns a *stable* permutation of the applications, so two
scheduling passes over the same state produce the same order -- a
precondition for the campaign determinism guarantees.  Ties always break by
connection order, which is also what makes FCFS the identity.
"""
from __future__ import annotations

import math
from typing import List, Mapping, Sequence

from ..core.request_set import ApplicationRequests
from .base import OrderingStrategy, SchedulingContext

__all__ = [
    "FcfsOrdering",
    "ShortestJobFirstOrdering",
    "LargestAreaFirstOrdering",
    "FairShareOrdering",
    "pending_area",
    "shortest_pending_duration",
]

#: Horizon used to bound the area of open-ended requests (pre-allocations
#: and infinite-duration requests) when computing job areas: one week.
AREA_HORIZON_SECONDS = 7 * 86_400.0


def _pending_non_preemptive(app: ApplicationRequests) -> List:
    """Pending requests the non-preemptive pass will try to place."""
    out = list(app.preallocations.pending())
    out.extend(app.non_preemptible.pending())
    return out


def shortest_pending_duration(app: ApplicationRequests) -> float:
    """Duration of the shortest pending non-preemptive request (inf if none)."""
    durations = [r.duration for r in _pending_non_preemptive(app)]
    finite = [d for d in durations if not math.isinf(d)]
    if finite:
        return min(finite)
    return math.inf


def pending_area(app: ApplicationRequests) -> float:
    """Total area (node x seconds) of the pending non-preemptive requests.

    Open-ended durations are capped at :data:`AREA_HORIZON_SECONDS` so a
    single infinite pre-allocation cannot dwarf every finite job.
    """
    return sum(
        r.node_count * min(r.duration, AREA_HORIZON_SECONDS)
        for r in _pending_non_preemptive(app)
    )


class FcfsOrdering(OrderingStrategy):
    """Connection order -- the paper's discipline (and the identity)."""

    name = "fcfs"

    def order(
        self, applications: Mapping[str, ApplicationRequests], ctx: SchedulingContext
    ) -> List[str]:
        return list(applications)


class ShortestJobFirstOrdering(OrderingStrategy):
    """Applications with the shortest pending request first."""

    name = "sjf"

    def order(
        self, applications: Mapping[str, ApplicationRequests], ctx: SchedulingContext
    ) -> List[str]:
        return sorted(
            applications, key=lambda app_id: shortest_pending_duration(applications[app_id])
        )

    def order_jobs(self, jobs: Sequence) -> List:
        return sorted(jobs, key=lambda job: (job.duration, job.submit_time))


class LargestAreaFirstOrdering(OrderingStrategy):
    """Applications with the largest pending area (node x seconds) first.

    Serving big jobs first gives them the earliest reservations; small jobs
    then backfill around them, which favours throughput-heavy workloads.
    """

    name = "largest-area"

    def order(
        self, applications: Mapping[str, ApplicationRequests], ctx: SchedulingContext
    ) -> List[str]:
        return sorted(
            applications, key=lambda app_id: -pending_area(applications[app_id])
        )

    def order_jobs(self, jobs: Sequence) -> List:
        return sorted(jobs, key=lambda job: (-job.node_count * job.duration, job.submit_time))


class FairShareOrdering(OrderingStrategy):
    """Applications that consumed the fewest node-seconds so far go first.

    The accumulated usage is ``ctx.usage``: node-seconds used so far, from
    the RMS's event log (:attr:`repro.core.CooRMv2.used_node_seconds`);
    applications without any recorded usage count as zero, so newcomers are
    served ahead of long-running resource hogs.
    """

    name = "fair-share"

    def order(
        self, applications: Mapping[str, ApplicationRequests], ctx: SchedulingContext
    ) -> List[str]:
        return sorted(
            applications, key=lambda app_id: float(ctx.usage.get(app_id, 0.0))
        )
