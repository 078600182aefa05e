"""Resource requests (paper Sections 3.1.1 and A.1).

A request describes resources an application wants allocated: a cluster, a
node count and a duration, plus a type (pre-allocation, non-preemptible,
preemptible) and an optional constraint relative to another request.

Two groups of attributes exist, mirroring Appendix A.1:

* attributes **sent by the application** -- ``cluster_id``, ``node_count``,
  ``duration``, ``rtype``, ``related_how``, ``related_to``;
* attributes **set by the RMS** while scheduling -- ``n_alloc``,
  ``scheduled_at``, ``fixed``, ``earliest_schedule_at`` -- and once the
  request starts -- ``started_at``, ``node_ids``.
"""
from __future__ import annotations

import itertools
import math
from math import isnan
from typing import FrozenSet, Optional, Set

from .errors import ConstraintError, RequestError
from .types import CANCELLED, FINISHED, NON_PREEMPTIBLE, PREALLOCATION, PREEMPTIBLE
from .types import ClusterId, NodeId, RelatedHow, RequestState, RequestType, Time

__all__ = ["Request"]

_request_counter = itertools.count(1)


class Request:
    """A single resource request tracked by the RMS.

    Parameters
    ----------
    cluster_id:
        The cluster on which the allocation should take place.
    node_count:
        Number of nodes requested (``n`` in the paper).  Must be >= 0; a
        zero-node request is legal and used by malleable applications to
        release their whole preemptible part.
    duration:
        Requested allocation length in seconds; ``math.inf`` is allowed for
        open-ended preemptible requests and pre-allocations.
    rtype:
        One of :class:`~repro.core.types.RequestType`.
    related_how:
        Constraint kind relative to *related_to* (default ``FREE``).
    related_to:
        The request this one is constrained against; required for ``COALLOC``
        and ``NEXT``.
    app_id:
        Identifier of the owning application (set by the RMS session layer).
    """

    __slots__ = (
        "request_id",
        "app_id",
        "cluster_id",
        "node_count",
        "duration",
        "rtype",
        "related_how",
        "related_to",
        # RMS-set scheduling attributes
        "n_alloc",
        "scheduled_at",
        "fixed",
        "earliest_schedule_at",
        # RMS-set lifecycle attributes
        "started_at",
        "node_ids",
        "state",
        "submitted_at",
        "finished_at",
    )

    def __init__(
        self,
        cluster_id: ClusterId,
        node_count: int,
        duration: Time,
        rtype: RequestType,
        related_how: RelatedHow = RelatedHow.FREE,
        related_to: Optional["Request"] = None,
        app_id: Optional[str] = None,
    ):
        if node_count < 0:
            raise RequestError("node_count must be non-negative")
        if duration < 0:
            raise RequestError("duration must be non-negative")
        if not isinstance(rtype, RequestType):
            raise RequestError(f"rtype must be a RequestType, got {rtype!r}")
        if not isinstance(related_how, RelatedHow):
            raise RequestError(f"related_how must be a RelatedHow, got {related_how!r}")
        if related_how is not RelatedHow.FREE and related_to is None:
            raise ConstraintError(f"{related_how.value} constraint requires related_to")
        if related_to is self:
            raise ConstraintError("a request cannot be related to itself")

        self.request_id: int = next(_request_counter)
        self.app_id = app_id
        self.cluster_id = cluster_id
        self.node_count = int(node_count)
        self.duration = float(duration)
        self.rtype = rtype
        self.related_how = related_how
        self.related_to = related_to

        # Attributes set while computing a schedule (Appendix A.1).
        self.n_alloc: int = 0
        self.scheduled_at: Time = math.inf
        self.fixed: bool = False
        self.earliest_schedule_at: Time = 0.0

        # Attributes set once the request has started.
        self.started_at: Time = math.nan
        self.node_ids: FrozenSet[NodeId] = frozenset()

        self.state: RequestState = RequestState.PENDING
        self.submitted_at: Time = math.nan
        self.finished_at: Time = math.nan

    # ------------------------------------------------------------------ #
    # Lifecycle predicates
    # ------------------------------------------------------------------ #
    def started(self) -> bool:
        """True once the RMS has started this request (paper's ``started(r)``)."""
        return not isnan(self.started_at)

    def finished(self) -> bool:
        """True once the request ended (``done()`` or duration elapsed)."""
        state = self.state
        return state is FINISHED or state is CANCELLED

    def active(self) -> bool:
        """True while the request holds (or reserves) resources."""
        return self.started() and not self.finished()

    def pending(self) -> bool:
        """True while the request is waiting for its start time."""
        return isnan(self.started_at) and not self.finished()

    # ------------------------------------------------------------------ #
    # Derived times
    # ------------------------------------------------------------------ #
    def end_time(self) -> Time:
        """Scheduled (or actual) end time of the allocation."""
        if self.finished() and not math.isnan(self.finished_at):
            return self.finished_at
        base = self.started_at if self.started() else self.scheduled_at
        return base + self.duration

    def remaining_duration(self, now: Time) -> Time:
        """Time left until the allocation expires, never negative."""
        return max(0.0, self.end_time() - now)

    def is_preemptible(self) -> bool:
        return self.rtype is PREEMPTIBLE

    def is_preallocation(self) -> bool:
        return self.rtype is PREALLOCATION

    def is_non_preemptible(self) -> bool:
        return self.rtype is NON_PREEMPTIBLE

    # ------------------------------------------------------------------ #
    # Mutation helpers used by the RMS
    # ------------------------------------------------------------------ #
    def mark_started(self, now: Time, node_ids: Optional[Set[NodeId]] = None) -> None:
        """Record that the RMS started this request at time *now*."""
        self.started_at = now
        self.state = RequestState.STARTED
        if node_ids is not None:
            self.node_ids = frozenset(node_ids)

    def mark_finished(self, now: Time) -> None:
        """Record that this request ended at time *now* and shrink its duration.

        The paper's ``done()`` sets the duration to ``now - startedAt`` so the
        request's rectangle no longer blocks later resources.
        """
        if self.started():
            self.duration = max(0.0, now - self.started_at)
        else:
            self.duration = 0.0
        self.finished_at = now
        self.state = RequestState.FINISHED

    def mark_cancelled(self, now: Time) -> None:
        """Withdraw a request before it started."""
        self.finished_at = now
        self.state = RequestState.CANCELLED

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def clone_spec(self) -> "Request":
        """Copy the application-provided attributes into a fresh request.

        Scheduling and lifecycle attributes are reset; used by application
        helpers that re-submit an equivalent request (e.g. updates).
        """
        return Request(
            cluster_id=self.cluster_id,
            node_count=self.node_count,
            duration=self.duration,
            rtype=self.rtype,
            related_how=self.related_how,
            related_to=self.related_to,
            app_id=self.app_id,
        )

    def __repr__(self) -> str:
        rel = ""
        if self.related_how is not RelatedHow.FREE and self.related_to is not None:
            rel = f" {self.related_how.value}->#{self.related_to.request_id}"
        sched = "inf" if math.isinf(self.scheduled_at) else f"{self.scheduled_at:g}"
        return (
            f"Request(#{self.request_id} app={self.app_id} {self.rtype.short} "
            f"{self.node_count}x{self.duration:g}s on {self.cluster_id}{rel} "
            f"sched={sched} state={self.state.value})"
        )
