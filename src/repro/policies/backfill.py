"""Backfilling stages: conservative (the paper's) and EASY (aggressive).

Conservative Back-Filling gives every pending request a reservation and
updates the availability immediately, so later requests can only use holes
earlier requests left free (Mu'alem & Feitelson, 2001).  That is exactly
what the CooRMv2 scheduler does emergently when every application's ``fit``
consumes the availability view, so :class:`ConservativeBackfill` is a plain
pass-through to :func:`repro.core.fit.fit`.

EASY backfilling only reserves resources for the *head* of the queue; any
other request either starts immediately (backfills into a hole) or waits
without a reservation.  :class:`EasyBackfill` adapts that discipline to the
view framework at application granularity, and :class:`EasyBackfillQueue`
implements the classical event-driven variant for rigid-job baselines,
mirroring :class:`repro.core.cbf.ConservativeBackfillQueue`.
"""
from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..core.cbf import CbfJob, ConservativeBackfillQueue, RigidQueueMetrics
from ..core.errors import CapacityError
from ..core.fit import fit
from ..core.profile import StepFunction
from ..core.request_set import RequestSet
from ..core.types import Time
from ..core.view import View, ViewBuilder
from .base import BackfillStrategy

__all__ = ["ConservativeBackfill", "EasyBackfill", "EasyBackfillQueue"]

_EPS = 1e-9


class ConservativeBackfill(BackfillStrategy):
    """Every pending request receives (and keeps) a reservation."""

    name = "conservative"

    def fit_pending(
        self, requests: RequestSet, space: View, now: Time, head_app: bool
    ) -> View:
        return fit(requests, space, now)

    def make_queue(self, node_count: int) -> ConservativeBackfillQueue:
        return ConservativeBackfillQueue(node_count)


class EasyBackfill(BackfillStrategy):
    """Only the queue head keeps a future reservation.

    The first application (in queue order) with pending work is the head and
    is treated conservatively.  For every other application, requests that
    cannot start *now* lose their tentative reservation again: their
    occupation is handed back to the availability view and they are retried
    at the next pass.  Compared to conservative backfilling this lets small
    requests start earlier at the price of possibly starving large ones --
    the classical EASY trade-off, at application granularity.
    """

    name = "easy"

    def fit_pending(
        self, requests: RequestSet, space: View, now: Time, head_app: bool
    ) -> View:
        occupied = fit(requests, space, now)
        if head_app:
            return occupied
        dropped = ViewBuilder()
        for r in requests.scan():
            if r.finished() or r.fixed or r.started():
                continue
            if math.isinf(r.scheduled_at) or r.scheduled_at <= now + _EPS:
                continue
            if r.n_alloc > 0 and r.duration > 0:
                dropped.add_rectangle(r.cluster_id, r.scheduled_at, r.duration, r.n_alloc)
            r.scheduled_at = math.inf
            r.n_alloc = 0
        removed = dropped.build()
        if removed.is_zero():
            return occupied
        return (occupied - removed).clip_low(0.0)

    def make_queue(self, node_count: int) -> "EasyBackfillQueue":
        return EasyBackfillQueue(node_count)


class EasyBackfillQueue(RigidQueueMetrics):
    """EASY (aggressive) backfilling for rigid jobs on one homogeneous cluster.

    Unlike the conservative queue, start times depend on *future* submissions
    (a job holding the queue head back may be overtaken by later backfillers),
    so the whole workload is scheduled at once with :meth:`submit_many`; the
    classical event loop -- start the head whenever it fits, give only the
    head a shadow reservation, backfill everything that does not delay it --
    runs offline over submit and completion events.
    """

    def __init__(self, node_count: int):
        if node_count <= 0:
            raise CapacityError("a cluster needs at least one node")
        self.node_count = int(node_count)
        self._availability = StepFunction.constant(self.node_count)
        self._jobs: List[CbfJob] = []

    @property
    def availability(self) -> StepFunction:
        """Availability profile generated by the started jobs (a copy)."""
        return self._availability.copy()

    @property
    def jobs(self) -> Tuple[CbfJob, ...]:
        return tuple(self._jobs)

    # ------------------------------------------------------------------ #
    def _starts_at(self, profile: StepFunction, job: CbfJob, t: Time) -> bool:
        return profile.find_hole(job.node_count, job.duration, t) <= t + _EPS

    def _start(self, job: CbfJob, t: Time) -> None:
        job.start_time = t
        if job.node_count > 0 and job.duration > 0:
            self._availability.subtract_rectangle_in_place(
                t, job.duration, job.node_count
            )
        self._jobs.append(job)

    def submit_many(self, jobs: List[CbfJob]) -> List[Time]:
        """Schedule *jobs* (queue order = list order) and return start times."""
        for job in jobs:
            if job.node_count > self.node_count:
                raise CapacityError(
                    f"job {job.job_id!r} requests {job.node_count} nodes but the "
                    f"cluster only has {self.node_count}"
                )
        pending = sorted(jobs, key=lambda j: j.submit_time)
        arrival = {id(job): i for i, job in enumerate(jobs)}
        queue: List[CbfJob] = []
        t = pending[0].submit_time if pending else 0.0

        while pending or queue:
            while pending and pending[0].submit_time <= t + _EPS:
                job = pending.pop(0)
                queue.append(job)
                queue.sort(key=lambda j: arrival[id(j)])

            # Start the head(s) of the queue while they fit right now.
            while queue and self._starts_at(self._availability, queue[0], t):
                self._start(queue.pop(0), t)

            if queue:
                # Shadow reservation for the head, then aggressive backfill:
                # anything that starts now without delaying the head may go.
                head = queue[0]
                shadow = self._availability.find_hole(
                    head.node_count, head.duration, t
                )
                reserved = self._availability.copy()
                reserved.subtract_rectangle_in_place(
                    shadow, head.duration, head.node_count
                )
                for job in list(queue[1:]):
                    if self._starts_at(reserved, job, t):
                        reserved.subtract_rectangle_in_place(
                            t, job.duration, job.node_count
                        )
                        queue.remove(job)
                        self._start(job, t)

            # Advance to the next event: a submission or a completion.
            next_submit = pending[0].submit_time if pending else math.inf
            next_end = min(
                (
                    j.end_time
                    for j in self._jobs
                    if j.end_time is not None and j.end_time > t + _EPS
                ),
                default=math.inf,
            )
            if queue:
                t_next = min(next_submit, next_end)
            else:
                t_next = next_submit
            if math.isinf(t_next):
                if queue:  # pragma: no cover - defensive: cannot happen, the
                    # head always fits once nothing is running.
                    raise CapacityError(
                        f"job {queue[0].job_id!r} cannot be scheduled"
                    )
                break
            t = t_next

        return [j.start_time for j in jobs]

    def submit(self, job: CbfJob) -> Optional[Time]:
        """Single-job convenience wrapper (a one-element :meth:`submit_many`)."""
        return self.submit_many([job])[0]
