"""The malleable Parameter-Sweep Application (paper Sections 4 and 5.1.2).

The PSA has an infinite supply of independent single-node tasks of fixed
duration ``d_task``.  It monitors its preemptive view:

* when more resources are available than it currently holds, it grows its
  preemptible request and spawns tasks on the new nodes;
* when the RMS asks it to release resources *immediately* (the view at the
  current time drops below what it holds), it kills tasks -- the work done so
  far on them is lost and counted as **waste**;
* when the view announces that resources will disappear in the *future*
  (announced updates), it stops recycling nodes whose next task could not
  finish in time and releases them when their current task completes -- no
  waste occurs.

The PSA never finishes by itself; experiments call :meth:`shutdown` when the
evolving application completes.

Tasks are simulated per *start batch*: the tasks one reconciliation starts
share a start time and a finish time, so they share one completion event,
which finishes the batch's surviving nodes in start order (exactly what one
event per task, fired in scheduling order, would do).  Aborting a task drops
its node from its batch; the event is cancelled with the batch's last node.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Dict, FrozenSet, List, Optional, Set

from ..core.request import Request
from ..core.types import ClusterId, NodeId, RelatedHow, RequestType, Time
from .base import BaseApplication

__all__ = ["ParameterSweepApplication", "PsaStatistics"]


@dataclass
class PsaStatistics:
    """Aggregate outcome of a PSA run."""

    completed_tasks: int = 0
    killed_tasks: int = 0
    completed_node_seconds: float = 0.0
    waste_node_seconds: float = 0.0

    @property
    def total_busy_node_seconds(self) -> float:
        return self.completed_node_seconds + self.waste_node_seconds


class _Batch:
    """The tasks one reconciliation started: one start time, one completion event."""

    __slots__ = ("start", "nodes", "handle")

    def __init__(self, start: Time, nodes: List[NodeId]):
        self.start = start
        #: The batch's running nodes, in start order.
        self.nodes: Dict[NodeId, None] = dict.fromkeys(nodes)
        self.handle = None


class ParameterSweepApplication(BaseApplication):
    """A malleable application made of infinite single-node tasks."""

    def __init__(
        self,
        name: str,
        task_duration: Time,
        cluster_id: ClusterId = "cluster0",
    ):
        super().__init__(name, cluster_id)
        if not 0 < task_duration < math.inf:
            raise ValueError("task_duration must be positive and finite")
        self.task_duration = float(task_duration)
        self.stats = PsaStatistics()

        #: Node id -> the batch of the task currently running on it, in start order.
        self._running_tasks: Dict[NodeId, _Batch] = {}
        #: The batches with a running task, in start order (start times never decrease).
        self._batches: Dict[_Batch, None] = {}
        #: Nodes held but currently idle (no task running).
        self._idle_nodes: Set[NodeId] = set()
        self.current_request: Optional[Request] = None
        self._flush_pending = False
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def busy_count(self) -> int:
        return len(self._running_tasks)

    @property
    def waste_node_seconds(self) -> float:
        return self.stats.waste_node_seconds

    # ------------------------------------------------------------------ #
    # Protocol callbacks
    # ------------------------------------------------------------------ #
    def on_views(self, non_preemptive, preemptive) -> None:
        super().on_views(non_preemptive, preemptive)
        self._schedule_flush()

    def on_start(self, request: Request, node_ids: FrozenSet[NodeId]) -> None:
        if request.rtype is not RequestType.PREEMPTIBLE:
            return
        self.current_request = request
        self._idle_nodes |= node_ids.difference(self._running_tasks)
        self._schedule_flush()

    def on_killed(self, reason: str) -> None:
        super().on_killed(reason)
        for nid in list(self._running_tasks):
            self._abort_task(nid, count_waste=True)

    # ------------------------------------------------------------------ #
    # Reconciliation: one pass that applies all pending decisions
    # ------------------------------------------------------------------ #
    def _schedule_flush(self) -> None:
        """Coalesce reactions within one simulated instant."""
        if self._flush_pending or self.rms is None or self.killed or self.finished():
            return
        self._flush_pending = True
        self.rms.simulator.schedule(0.0, self._reconcile)

    def _reconcile(self) -> None:
        self._flush_pending = False
        if self.killed or self.finished() or self.rms is None:
            return

        allowed_now = self.preemptive_available_now()
        allowed_window = self.preemptive_available_min(self.task_duration)
        # Running and idle nodes are disjoint and together what we hold; below,
        # nodes only leave (a task start moves a node from idle to running).
        held = len(self._running_tasks) + len(self._idle_nodes)

        # 1. Mandatory release: the view at the current time is below what we
        #    hold, so nodes must be given back immediately (killing tasks).
        if held > allowed_now:
            victims = self._pick_release_victims(held - allowed_now)
            for nid in victims:
                if nid in self._running_tasks:
                    self._abort_task(nid, count_waste=True)
                self._idle_nodes.discard(nid)
            held -= len(victims)
            self._resize_request(held, released=victims)

        if self._stopped:
            # Shutting down: release idle nodes, let running tasks finish.
            idle = sorted(self._idle_nodes)
            if idle:
                self._idle_nodes.clear()
                held -= len(idle)
                self._resize_request(held, released=idle)
            if not self._running_tasks:
                self._terminate()
            return

        # 2. Start tasks on idle nodes, but only on as many nodes as the view
        #    sustains for a whole task duration; release the rest gracefully.
        if self._idle_nodes:
            can_start = max(0, min(len(self._idle_nodes), allowed_window - self.busy_count()))
            idle_sorted = sorted(self._idle_nodes)
            if can_start:
                self._start_tasks(idle_sorted[:can_start])
            to_release = idle_sorted[can_start:]
            if to_release:
                self._idle_nodes.difference_update(to_release)
                held -= len(to_release)
                self._resize_request(held, released=to_release)

        # 3. Growth: ask for more nodes when the view offers more than we
        #    hold *and* they would be usable for at least one task.
        desired = min(allowed_now, max(allowed_window, held))
        if desired > held:
            self._resize_request(desired)

    # ------------------------------------------------------------------ #
    # Task lifecycle
    # ------------------------------------------------------------------ #
    def _start_tasks(self, node_ids: List[NodeId]) -> None:
        """Start one task on each of *node_ids* (idle nodes), as one batch."""
        batch = _Batch(self.now, node_ids)
        self._idle_nodes.difference_update(batch.nodes)
        self._running_tasks.update(dict.fromkeys(batch.nodes, batch))
        self._batches[batch] = None
        batch.handle = self.rms.simulator.schedule(self.task_duration, self._tasks_finished, batch)

    def _tasks_finished(self, batch: _Batch) -> None:
        if self.killed or self.finished():
            return
        del self._batches[batch]
        running, duration = self._running_tasks, self.task_duration
        seconds = self.stats.completed_node_seconds
        for nid in batch.nodes:
            del running[nid]
            seconds += duration  # task by task: the float sum one event per task made
        self.stats.completed_node_seconds = seconds
        self.stats.completed_tasks += len(batch.nodes)
        self._idle_nodes.update(batch.nodes)
        self._schedule_flush()

    def _abort_task(self, node_id: NodeId, count_waste: bool) -> None:
        batch = self._running_tasks.pop(node_id, None)
        if batch is None:
            return
        del batch.nodes[node_id]
        if not batch.nodes:
            del self._batches[batch]
            batch.handle.cancel()
        if count_waste:
            self.stats.killed_tasks += 1
            self.stats.waste_node_seconds += max(0.0, self.now - batch.start)

    def _pick_release_victims(self, count: int) -> List[NodeId]:
        """Choose which nodes to give back: idle ones first, then the tasks
        with the least elapsed work (minimising the waste).

        The tasks are exactly ``heapq.nsmallest(k, running.items(), key=now -
        start)`` (a tie in start order), found walking back from the latest
        start batch to the run of equal elapsed times that fills *count*.
        """
        victims: List[NodeId] = sorted(self._idle_nodes)[:count]
        now = self.now
        run: List[Dict[NodeId, None]] = []  # batches of one elapsed time, latest first
        run_elapsed, run_size = None, 0
        for batch in reversed(self._batches):
            elapsed = now - batch.start
            if elapsed != run_elapsed:
                if len(victims) + run_size >= count:
                    break
                for nodes in reversed(run):
                    victims.extend(nodes)
                run, run_elapsed, run_size = [], elapsed, 0
            run.append(batch.nodes)
            run_size += len(batch.nodes)
        for nodes in reversed(run):  # a tie goes to the earliest started
            victims.extend(islice(nodes, count - len(victims)))
        return victims

    # ------------------------------------------------------------------ #
    # Request management
    # ------------------------------------------------------------------ #
    def _resize_request(self, node_count: int, released: Optional[List[NodeId]] = None) -> None:
        """Grow or shrink the preemptible request to *node_count* nodes."""
        node_count = max(0, int(node_count))
        if self.current_request is None or self.current_request.finished():
            if node_count > 0:
                self.current_request = self.submit(
                    node_count=node_count,
                    duration=math.inf,
                    rtype=RequestType.PREEMPTIBLE,
                )
            return
        if not self.current_request.started():
            # The previous resize has not been served yet; replace it while
            # keeping the NEXT chain intact so nodes retained by finished
            # predecessors are carried over (or explicitly released).
            if self.current_request.node_count == node_count and not released:
                return
            old = self.current_request
            self.current_request = self.submit(
                node_count=node_count,
                duration=math.inf,
                rtype=RequestType.PREEMPTIBLE,
                related_how=RelatedHow.NEXT,
                related_to=old,
            )
            self.done(old, released)
            return
        if node_count == len(self.current_request.node_ids) and not released:
            return
        self.current_request = self.spontaneous_update(
            self.current_request, node_count, released_node_ids=released
        )

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Stop taking new work; finish running tasks, then disconnect."""
        if self._stopped or self.finished() or self.killed:
            return
        self._stopped = True
        self._schedule_flush()

    def shutdown_now(self) -> None:
        """Stop immediately: abort running tasks (not counted as waste)."""
        self._stopped = True
        for nid in list(self._running_tasks):
            self._abort_task(nid, count_waste=False)
        self._terminate()

    def _terminate(self) -> None:
        if self.finished():
            return
        if self.current_request is not None and not self.current_request.finished():
            self.done(self.current_request)
        self.current_request = None
        self.finish()
