"""Rigid applications (paper Section 4).

A rigid application "sends a single non-preemptible request of the
user-submitted node-count and duration.  Since the application does not
adapt, it ignores its views."  This is the classical batch job and serves as
a compatibility check: CooRMv2 must still schedule plain rigid workloads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Optional

from ..core.request import Request
from ..core.types import ClusterId, NodeId, RequestType, Time
from .base import BaseApplication

__all__ = ["RigidApplication", "RigidJobSpec"]


@dataclass(frozen=True)
class RigidJobSpec:
    """One rigid job as data: what traces, generators and baselines exchange."""

    job_id: str
    submit_time: float
    node_count: int
    duration: float

    @property
    def area(self) -> float:
        """Node-seconds the job will consume."""
        return self.node_count * self.duration


class RigidApplication(BaseApplication):
    """A classical rigid batch job."""

    def __init__(
        self,
        name: str,
        node_count: int,
        duration: Time,
        cluster_id: ClusterId = "cluster0",
    ):
        super().__init__(name, cluster_id)
        if node_count <= 0:
            raise ValueError("node_count must be positive")
        if duration <= 0 or math.isinf(duration):
            raise ValueError("duration must be positive and finite")
        self.node_count = int(node_count)
        self.duration = float(duration)
        self.request: Optional[Request] = None
        self.start_time: Time = math.nan
        self._submitted = False

    # ------------------------------------------------------------------ #
    def on_views(self, non_preemptive, preemptive) -> None:
        # Rigid applications ignore their views, but we must submit the
        # single request once the session is open; the first view push is the
        # natural hook for that.
        super().on_views(non_preemptive, preemptive)
        if not self._submitted:
            self._submitted = True
            self.request = self.submit(
                node_count=self.node_count,
                duration=self.duration,
                rtype=RequestType.NON_PREEMPTIBLE,
            )

    def on_start(self, request: Request, node_ids: FrozenSet[NodeId]) -> None:
        if request is self.request:
            self.start_time = self.now
            # The job runs to completion; completion is the request expiring.
            self.rms.simulator.schedule(self.duration, self._complete)

    def _complete(self) -> None:
        if self.finished() or self.killed:
            return
        if self.request is not None and not self.request.finished():
            self.done(self.request)
        self.finish()

    # ------------------------------------------------------------------ #
    def wait_time(self) -> float:
        """Time spent waiting in the queue before the allocation started."""
        if math.isnan(self.start_time):
            return math.nan
        return self.start_time - self.connected_at
