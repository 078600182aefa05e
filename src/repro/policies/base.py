"""Stage protocols of the pluggable scheduling-policy subsystem.

A :class:`~repro.policies.policy.SchedulingPolicy` is the composition of
three independent stages, each with its own protocol:

* an :class:`OrderingStrategy` decides in which order the applications'
  pending pre-allocations and non-preemptible requests are considered
  (the queue discipline);
* a :class:`BackfillStrategy` decides how pending requests are fitted into
  the availability views (conservative reservations for everyone, or EASY's
  single head reservation with aggressive backfilling);
* a :class:`SharingStrategy` decides how the resources left over after the
  non-preemptive pass are shared among the preemptible requests.

The paper's Algorithm 4 is exactly the composition FCFS ordering +
conservative backfilling + equi-partitioning with filling; every other
registered policy swaps one or more stages.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

from ..core.request_set import ApplicationRequests, RequestSet
from ..core.types import ClusterId, Time
from ..core.view import View

__all__ = [
    "SchedulingContext",
    "OrderingStrategy",
    "BackfillStrategy",
    "SharingStrategy",
]


@dataclass(frozen=True)
class SchedulingContext:
    """Everything a policy stage may consult during one scheduling pass."""

    #: Time of the pass.
    now: Time
    #: Cluster id -> total node count of the platform.
    capacity: Mapping[ClusterId, int] = field(default_factory=dict)
    #: Application id -> node-seconds consumed so far (from the accountant).
    #: Only populated when the active ordering declares ``needs_usage``.
    usage: Mapping[str, float] = field(default_factory=dict)


class OrderingStrategy:
    """Queue discipline: the order in which applications are served.

    Ordering affects only the non-preemptive pass (pre-allocations and
    non-preemptible requests); preemptible sharing looks at all applications
    at once and is governed by the :class:`SharingStrategy`.
    """

    #: Registry name of the strategy.
    name: str = "?"
    #: True when :meth:`order` wants accumulated per-application usage in
    #: the context (the RMS then queries its accountant before each pass).
    needs_usage: bool = False

    def order(
        self,
        applications: Mapping[str, ApplicationRequests],
        ctx: SchedulingContext,
    ) -> List[str]:
        """Return every key of *applications* exactly once, in serving order."""
        raise NotImplementedError

    def order_jobs(self, jobs: Sequence) -> List:
        """Order rigid batch jobs (objects with ``submit_time`` / ``duration``
        / ``node_count``) for the classical batch baseline.  The default is
        arrival order; subclasses refine it with their queue discipline."""
        return sorted(jobs, key=lambda job: job.submit_time)


class BackfillStrategy:
    """How pending requests are fitted into an availability view."""

    name: str = "?"

    def fit_pending(
        self,
        requests: RequestSet,
        space: View,
        now: Time,
        head_app: bool,
    ) -> View:
        """Fit the pending requests of one application into *space*.

        Mutates the requests' scheduling attributes (like
        :func:`repro.core.fit.fit`) and returns the occupation view the
        placed requests generate.  *head_app* is True for the first
        application in queue order that still has pending work -- EASY-style
        strategies reserve resources only for it.

        The scheduler calls this only for a request set that holds at least
        one pending request (so only for applications with pending work):
        with nothing pending there is nothing to place and the answer is the
        empty view.  Do not rely on being called once per application.
        """
        raise NotImplementedError

    def make_queue(self, node_count: int):
        """A standalone rigid-job queue implementing this backfill discipline
        (used by :mod:`repro.baselines.batch_fcfs`)."""
        raise NotImplementedError


class SharingStrategy:
    """How leftover resources are shared among preemptible requests."""

    name: str = "?"

    def share(
        self,
        preemptible_sets: Mapping[str, RequestSet],
        available: View,
        now: Time,
    ) -> Dict[str, View]:
        """Compute the per-application preemptive views and (re-)schedule the
        preemptible requests against them (Algorithm 3's contract).

        The returned views may share profile objects between applications
        (and with *available*); callers must never mutate them.
        """
        raise NotImplementedError
