"""The main CooRMv2 scheduling algorithm (paper Algorithm 4).

Given the three request sets of every connected application (in connection
order) and the platform capacity, a scheduling pass

1. subtracts the resources held by started pre-allocations from the
   non-preemptible availability and the resources held by started
   non-preemptible requests from the preemptible availability;
2. for every application in connection order, computes its **non-preemptive
   view** (its own pre-allocated space plus the globally free space), fits
   its pending pre-allocations, then fits its pending non-preemptible
   requests inside its pre-allocated space;
3. equi-partitions the remaining resources among the preemptible requests of
   all applications (:func:`~repro.core.eqschedule.eq_schedule`), producing
   the per-application **preemptive views**;
4. reports which requests must start now.

Processing the applications in connection order and consuming the
availability view after each one yields Conservative Back-Filling of the
pre-allocations, as the paper prescribes.

One deliberate extension over the pseudo-code: pending non-preemptible
requests that do not fit inside the application's pre-allocations are fitted
into the globally free non-preemptible space instead, and that overflow is
charged against it.  This is the paper's "implicitly wrapped in
pre-allocations of the same size" rule (Section 3.2) and is what lets rigid
and moldable applications -- which never send pre-allocations -- be scheduled
at all.

The three behavioural choices above -- serve applications in connection
order, give every pending request a reservation, equi-partition the
remainder -- are policy *stages* supplied by :mod:`repro.policies`.  The
default policy (``coorm``) composes exactly those stages and reproduces
Algorithm 4; alternative registered policies swap the queue ordering, the
backfilling discipline or the sharing rule independently.

What a pass costs: what changed since the previous one, plus one view push
per application whose views did.  Steps 1 and 2 above are a fold over the
applications whose result the scheduler keeps between passes -- per
application id the ``(pa_occ, np_occ, overflow_started)`` triple last
subtracted, plus the two running availabilities.
:func:`~repro.core.toview.started_occupation` hands out the *same* occupation
object while the fields ``toView`` reads are unchanged, so a pass re-folds
only the applications whose occupation object is another one, adds back those
that left the mapping, and starts over on :meth:`Scheduler.set_capacity`.
Heights are integer node counts, so these sums are exact and the
availabilities are, breakpoint for breakpoint, those of a from-scratch fold.
A *settled* application (nothing pending, nothing preemptible) costs one
occupation key: empty request sets are not pruned, keyed, filtered or
scanned, the requests to start are read off the pending lists step 2 built,
and fits and merges run only where a request is pending.  Sharing fits only
where ``toView`` left a pending request unplaced, refits nobody shown the
availability itself, and gives applications shown the same numbers the
*same* ``View``, so the RMS decides "did it change" once per set of view
objects.  When all preemptible sets are empty, equi-partitioning makes no
partition call: every segment of the availability is shown floored to whole
nodes (strict: divided by the number of applications), in one ``View`` for
everybody, which holds the availability's own profile where the numbers
reproduce it.  All of it rests on immutability -- operators return an operand
for ``v + ∅``, ``∅ + v``, ``v - ∅`` and a no-op ``clip_low``, views share
objects between applications *and passes* -- so never mutate a view or a
profile.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..obs import hooks as _obs
from ..policies.base import SchedulingContext
from ..policies.registry import resolve_policy
from .request import Request
from .request_set import ApplicationRequests
from .toview import started_occupation
from .types import ClusterId, Time
from .view import View

__all__ = ["ScheduleResult", "Scheduler"]

_OBS_EPS = 1e-9

#: The occupation of a request set with nothing started / nothing placed.
_NOTHING = View.empty()


def _classify_placements(pending: List[Request], now: Time) -> Dict[str, int]:
    """Outcome counts of one application's pending requests after a fit.

    ``start``: placed at (or before) *now* -- the request starts this pass;
    ``reserved``: placed at a finite future time (a backfill reservation);
    ``deferred``: left unplaced (``scheduled_at`` is infinite), e.g. EASY
    dropping the reservation of a non-head application.
    """
    started = reserved = deferred = 0
    for request in pending:
        if math.isinf(request.scheduled_at):
            deferred += 1
        elif request.scheduled_at <= now + _OBS_EPS:
            started += 1
        else:
            reserved += 1
    return {"start": started, "reserved": reserved, "deferred": deferred}


def _view_total_at(view: View, now: Time) -> float:
    """Total nodes a view offers at *now*, summed over its clusters."""
    return float(sum(view.value_at(cid, now) for cid in view.clusters()))


@dataclass
class ScheduleResult:
    """Outcome of one scheduling pass."""

    #: Application id -> non-preemptive view (pre-allocations + free space).
    non_preemptive_views: Dict[str, View] = field(default_factory=dict)
    #: Application id -> preemptive view (equi-partitioned remainder).
    preemptive_views: Dict[str, View] = field(default_factory=dict)
    #: Requests whose computed start time is not later than "now" and that
    #: have not been started yet; the RMS layer starts them and binds node IDs.
    to_start: List[Request] = field(default_factory=list)
    #: Time at which the pass ran.
    now: Time = 0.0


class Scheduler:
    """Scheduling engine implementing Algorithm 4, incremental across passes.

    Between passes the engine keeps the availabilities left by the started
    requests of the applications it last saw and, per application id, the
    occupation views it subtracted to get there (see "What a pass costs" in
    the module docstring).  That state is a cache of what the request sets
    say, never a second source of truth: :meth:`schedule` reconciles it with
    the mapping it is given -- any mapping, in any order, including one that
    shares no application with the previous pass -- before using it, and
    :meth:`set_capacity` drops it.  It holds one triple of views per
    application of the last pass and nothing of applications that left.

    Parameters
    ----------
    capacity:
        Mapping of cluster id to total node count of that cluster.
    policy:
        The :class:`~repro.policies.SchedulingPolicy` driving the pass --
        a policy object, a registered name, or a stage mapping (see
        :func:`repro.policies.resolve_policy`).  Defaults to ``"coorm"``,
        the composition that reproduces Algorithm 4 exactly.
    """

    def __init__(self, capacity: Mapping[ClusterId, int], policy=None):
        if not capacity:
            raise ValueError("the platform needs at least one cluster")
        for cid, n in capacity.items():
            if n <= 0:
                raise ValueError(f"cluster {cid!r} must have a positive node count")
        self.capacity: Dict[ClusterId, int] = dict(capacity)
        self.policy = resolve_policy(policy)
        self._start_over()

    # ------------------------------------------------------------------ #
    def set_capacity(self, capacity: Mapping[ClusterId, int]) -> None:
        """Replace the platform capacity (fault injection / elastic members).

        Unlike construction, zero is legal here: a whole-cluster outage
        leaves the scheduler with nothing to offer until capacity returns.
        """
        updated = {cid: int(n) for cid, n in capacity.items()}
        if not updated:
            raise ValueError("the platform needs at least one cluster")
        for cid, n in updated.items():
            if n < 0:
                raise ValueError(f"cluster {cid!r} cannot have negative capacity")
        self.capacity = updated
        self._start_over()

    def full_view(self) -> View:
        """A view offering every node of every cluster forever."""
        return self._full_view

    def _start_over(self) -> None:
        """Rebuild the full-platform view and forget every folded application."""
        self._full_view = View.constant(self.capacity)
        #: Application id -> the ``(pa_occ, np_occ, overflow_started)`` triple
        #: currently subtracted from the two running availabilities.
        self._folded: Dict[str, Tuple[View, View, View]] = {}
        self._available_non_preemptible = self._available_preemptible = self._full_view

    def _unfold(self, app_id: str) -> None:
        """Hand the resources folded in for *app_id* back to the availabilities."""
        pa_occ, np_occ, overflow_started = self._folded.pop(app_id)
        self._available_non_preemptible = (
            self._available_non_preemptible + pa_occ + overflow_started
        )
        self._available_preemptible = self._available_preemptible + np_occ

    def _fold_started(self, applications: Mapping[str, ApplicationRequests]) -> None:
        """Algorithm 4, lines 1-5, as a delta against the previous pass.

        Afterwards the two running availabilities are the full platform minus
        what the started requests of exactly *applications* hold.  Only an
        application whose occupation *object* changed (see
        :func:`~repro.core.toview.started_occupation`) is re-folded.
        """
        folded = self._folded
        for app_id in [a for a in folded if a not in applications]:
            self._unfold(app_id)
        for app_id, requests in applications.items():
            pa_occ = started_occupation(requests.preallocations)
            np_occ = started_occupation(requests.non_preemptible)
            previous = folded.get(app_id)
            if previous is not None:
                if previous[0] is pa_occ and previous[1] is np_occ:
                    continue
                self._unfold(app_id)
            # Started non-preemptible requests living outside any
            # pre-allocation (implicit wrapping) also consume
            # non-preemptible space.
            overflow_started = (np_occ - pa_occ).clip_low(0.0)
            if overflow_started.is_zero():
                overflow_started = _NOTHING
            self._available_non_preemptible = (
                self._available_non_preemptible - pa_occ - overflow_started
            )
            self._available_preemptible = self._available_preemptible - np_occ
            folded[app_id] = (pa_occ, np_occ, overflow_started)

    def schedule(
        self,
        applications: Mapping[str, ApplicationRequests],
        now: Time,
        usage: Optional[Mapping[str, float]] = None,
    ) -> ScheduleResult:
        """Run one scheduling pass over *applications*.

        *applications* maps application id to its request sets in connection
        order; the policy's ordering stage decides the actual serving order
        (FCFS -- the default -- keeps the connection order, which yields the
        paper's conservative back-filling).  *usage* optionally carries the
        per-application consumed node-seconds for usage-aware orderings.
        """
        result = ScheduleResult(now=now)
        ctx = SchedulingContext(now=now, capacity=self.capacity, usage=usage or {})
        order = self.policy.ordering.order(applications, ctx)
        # A permutation has as many entries as there are applications and,
        # as a set, is the applications (so no entry can be there twice).
        if len(order) != len(applications) or set(order) != applications.keys():
            raise ValueError(
                f"ordering stage {self.policy.ordering.name!r} did not return "
                "a permutation of the applications"
            )

        # Observability is gated once per pass; every argument recorded below
        # is a pure function of the simulation state (apps, counts, times --
        # never raw request ids, which come from a process-global counter).
        tracer = _obs.TRACER[0]
        metrics = _obs.METRICS[0]
        observing = tracer is not None or metrics is not None
        if observing:
            pending_total = sum(
                len(requests.preallocations.pending())
                + len(requests.non_preemptible.pending())
                for requests in applications.values()
            )
            if metrics is not None:
                metrics.inc("scheduler.passes")
                metrics.observe("scheduler.queue_depth", len(applications))
                metrics.observe("scheduler.pending_requests", pending_total)
            if tracer is not None:
                tracer.counter(
                    now,
                    "scheduler",
                    "queue_depth",
                    {"apps": len(applications), "pending": pending_total},
                )
                tracer.emit(
                    now,
                    "scheduler",
                    "order",
                    {
                        "ordering": self.policy.ordering.name,
                        "policy": self.policy.name,
                        "order": list(order),
                        "reordered": list(order) != list(applications),
                    },
                )

        # Lines 1-5: the whole platform minus the resources held by started
        # requests.  The scratch views below are rebound, never mutated, so
        # the running availabilities survive the pass untouched.
        self._fold_started(applications)
        folded = self._folded
        available_non_preemptible = self._available_non_preemptible
        available_preemptible = self._available_preemptible

        # Lines 6-11: per-application pass, in policy queue order (FCFS =
        # connection order, the paper's conservative back-filling).
        backfill = self.policy.backfill
        head_seen = False
        clipped_from = clipped = None  # last clip_low operand and its result
        pending_of: Dict[str, List[Request]] = {}  # PA then ¬P, of those with any
        for app_id in order:
            requests = applications[app_id]
            pa_occ, np_occ, _ = folded[app_id]
            pending_pa = requests.preallocations.pending() if requests.preallocations else ()
            pending_np = requests.non_preemptible.pending() if requests.non_preemptible else ()

            # The first application in queue order with pending work is the
            # queue head; EASY-style backfilling reserves only for it.
            has_pending = bool(pending_pa or pending_np)
            is_head = has_pending and not head_seen
            head_seen = head_seen or has_pending

            # Line 7: the application's non-preemptive view.  Without started
            # pre-allocations the sum *is* the availability object, so every
            # such application shares one clipped view until it changes.
            space = pa_occ + available_non_preemptible
            if space is not clipped_from:
                clipped_from, clipped = space, space.clip_low(0.0)
            result.non_preemptive_views[app_id] = view_np = clipped
            if not has_pending:
                # Every unfinished request of the two sets is started, hence
                # fixed since lines 3-5: both fits would touch no request and
                # return the empty view, leaving the scratch views as they are.
                continue
            pending_of[app_id] = [*pending_pa, *pending_np]

            # Line 8: fit pending pre-allocations into that view (a set with
            # nothing pending is not fitted, for the same reason).
            occ_pending_pa = _NOTHING
            if pending_pa:
                occ_pending_pa = backfill.fit_pending(
                    requests.preallocations, view_np, now, head_app=is_head
                )

            # Line 9: fit pending non-preemptible requests inside the
            # application's pre-allocated space (started + newly placed).
            # Applications that never sent a pre-allocation (rigid, moldable,
            # malleable minima) get the "implicit wrapping" treatment instead:
            # their non-preemptible requests are fitted into the globally free
            # non-preemptible space.
            pa_space = pa_occ + occ_pending_pa
            inside_pa = (pa_space - np_occ).clip_low(0.0)
            has_preallocations = bool(requests.preallocations.active_or_pending())
            if has_preallocations:
                fit_space = inside_pa
            else:
                free_space = (available_non_preemptible - occ_pending_pa).clip_low(0.0)
                fit_space = inside_pa + free_space
            occ_pending_np = _NOTHING
            if pending_np:
                occ_pending_np = backfill.fit_pending(
                    requests.non_preemptible, fit_space, now, head_app=is_head
                )

            # Overflow of newly placed non-preemptible requests beyond the
            # pre-allocated space consumes non-preemptible availability too.
            overflow_pending = (occ_pending_np - inside_pa).clip_low(0.0)

            # Lines 10-11: consume the scratch views.
            available_non_preemptible = (
                available_non_preemptible - occ_pending_pa - overflow_pending
            )
            available_preemptible = available_preemptible - occ_pending_np

            if observing:
                pending_before = pending_of[app_id]
                outcome = _classify_placements(pending_before, now)
                if metrics is not None:
                    metrics.inc("scheduler.fit_attempts", len(pending_before))
                    metrics.inc("scheduler.reservations", outcome["reserved"])
                    if not is_head:
                        # A non-head request starting now jumped the queue
                        # head: the classical definition of a backfill hit.
                        metrics.inc("scheduler.backfill_hits", outcome["start"])
                if tracer is not None:
                    tracer.emit(
                        now,
                        "scheduler",
                        "fit",
                        {
                            "app": app_id,
                            "head": is_head,
                            "backfill": backfill.name,
                            "free_now": _view_total_at(view_np, now),
                            **outcome,
                        },
                    )

        # Line 12: share the preemptible space (equi-partitioning by default).
        # Sharing always sees the applications in connection order -- queue
        # ordering governs the non-preemptive pass only.  The same walk lines
        # up what may start (no stage starts, ends, adds or removes a request):
        # in mapping order, the pending lists built above, then the P set.
        preemptible_sets = {}
        may_start: List[Request] = []
        for app_id, requests in applications.items():
            preemptible_sets[app_id] = preemptible = requests.preemptible
            may_start += pending_of.get(app_id, ())
            if preemptible:
                may_start += preemptible.scan()
        result.preemptive_views = self.policy.sharing.share(
            preemptible_sets,
            available_preemptible.clip_low(0.0),
            now,
        )

        # Lines 13-14: collect requests that must start now.
        start_by = now + 1e-9
        result.to_start = [r for r in may_start if r.scheduled_at <= start_by and r.pending()]

        if observing:
            if metrics is not None:
                metrics.inc("scheduler.to_start", len(result.to_start))
            if tracer is not None:
                tracer.emit(
                    now,
                    "scheduler",
                    "share",
                    {
                        "sharing": self.policy.sharing.name,
                        "alloc": {
                            app_id: round(_view_total_at(view, now), 6)
                            for app_id, view in sorted(result.preemptive_views.items())
                        },
                    },
                )
                tracer.emit(
                    now,
                    "scheduler",
                    "to_start",
                    {
                        "count": len(result.to_start),
                        "apps": sorted({r.app_id for r in result.to_start}),
                    },
                )

        return result

    # ------------------------------------------------------------------ #
    def total_nodes(self) -> int:
        """Total node count over all clusters."""
        return sum(self.capacity.values())

    def __repr__(self) -> str:
        stages = self.policy.stage_names()
        return (
            f"Scheduler({self.capacity}, {self.policy.name}: "
            f"{stages['ordering']}/{stages['backfill']}/{stages['sharing']})"
        )
