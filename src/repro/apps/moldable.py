"""Moldable applications (paper Section 4).

A moldable application waits for its non-preemptive view, runs a resource
selection algorithm over the candidate node counts, and submits the
non-preemptible request that minimises its end time (waiting time plus
estimated execution time).  If the RMS pushes a new view before the request
starts, the selection is re-run and the request replaced -- exactly the
behaviour the paper inherits from CooRM.
"""
from __future__ import annotations

import math
from typing import Callable, FrozenSet, Iterable, List, Optional, Tuple

from ..core.errors import RequestError
from ..core.request import Request
from ..core.types import ClusterId, NodeId, RequestType, Time
from .base import BaseApplication

__all__ = ["MoldableApplication"]


class MoldableApplication(BaseApplication):
    """A moldable job choosing its node count from its non-preemptive view.

    Parameters
    ----------
    candidate_node_counts:
        Node counts the application can run on (e.g. powers of two).
    walltime_model:
        Function mapping a node count to the expected execution time.
    """

    def __init__(
        self,
        name: str,
        candidate_node_counts: Iterable[int],
        walltime_model: Callable[[int], Time],
        cluster_id: ClusterId = "cluster0",
    ):
        super().__init__(name, cluster_id)
        self.candidates = sorted({int(n) for n in candidate_node_counts if n > 0})
        if not self.candidates:
            raise ValueError("at least one positive candidate node count is required")
        self.walltime_model = walltime_model
        self.request: Optional[Request] = None
        self.chosen_nodes: Optional[int] = None
        self.start_time: Time = math.nan
        self.selection_history: List[Tuple[Time, int, Time]] = []

    # ------------------------------------------------------------------ #
    # Resource selection
    # ------------------------------------------------------------------ #
    def select(self) -> Tuple[int, Time, Time]:
        """Pick ``(node_count, estimated_start, estimated_end)`` from the view.

        For each candidate node count, the estimated start time is the first
        hole of the non-preemptive view and the estimated end adds the
        walltime; the candidate with the earliest end time wins (ties go to
        fewer nodes, i.e. better efficiency).
        """
        profile = self.non_preemptive_view[self.cluster_id]
        best: Optional[Tuple[Time, int, Time]] = None
        for n in self.candidates:
            walltime = float(self.walltime_model(n))
            start = profile.find_hole(n, walltime, self.now)
            if math.isinf(start):
                continue
            end = start + walltime
            key = (end, n)
            if best is None or key < (best[0] + best[2], best[1]):
                best = (start, n, walltime)
        if best is None:
            # Nothing fits: fall back to the smallest candidate, scheduled
            # whenever the RMS manages to.
            n = self.candidates[0]
            return n, math.inf, float(self.walltime_model(n))
        start, n, walltime = best
        return n, start, walltime

    # ------------------------------------------------------------------ #
    # Protocol callbacks
    # ------------------------------------------------------------------ #
    def on_views(self, non_preemptive, preemptive) -> None:
        super().on_views(non_preemptive, preemptive)
        if self.request is not None and self.request.started():
            return  # moldable: no reshaping after the allocation starts
        nodes, start, walltime = self.select()
        self.selection_history.append((self.now, nodes, start))
        if self.request is not None and not self.request.finished():
            if self.request.node_count == nodes:
                return
            self.done(self.request)
        self.chosen_nodes = nodes
        try:
            self.request = self.submit(
                node_count=nodes,
                duration=walltime,
                rtype=RequestType.NON_PREEMPTIBLE,
            )
        except RequestError:
            if self.cluster_id not in self.rms.platform.clusters:
                raise
            # Nothing fits and the cluster has, for now, fewer nodes than the
            # smallest candidate (a fault plan shrank it): hold no request
            # and select again when the RMS pushes the next view.
            self.request = None

    def on_start(self, request: Request, node_ids: FrozenSet[NodeId]) -> None:
        if request is not self.request:
            return
        self.start_time = self.now
        self.rms.simulator.schedule(request.duration, self._complete)

    def _complete(self) -> None:
        if self.finished() or self.killed:
            return
        if self.request is not None and not self.request.finished():
            self.done(self.request)
        self.finish()

    # ------------------------------------------------------------------ #
    def end_time(self) -> float:
        return self.finished_at

    def wait_time(self) -> float:
        if math.isnan(self.start_time):
            return math.nan
        return self.start_time - self.connected_at
