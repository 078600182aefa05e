"""The CooRMv2 Resource Management System.

This is the server side of the protocol described in Sections 3.2 and 3.3 of
the paper.  It owns the platform, keeps one :class:`~repro.core.session.Session`
per connected application (in connection order), coalesces incoming
``request()`` / ``done()`` messages through the administrator-chosen
*re-scheduling interval*, runs the scheduling algorithm
(:class:`~repro.core.scheduler.Scheduler`), starts requests by binding node
IDs, pushes fresh views to the applications, and -- if so configured -- kills
applications that violate the protocol by not releasing preemptible resources
when asked to.

The RMS is driven by a :class:`~repro.sim.Simulator`; in the paper's words,
remote calls are replaced by direct function calls and ``sleep()`` by
simulator events.
"""
from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..cluster.platform import Platform
from ..obs import hooks as _obs
from .errors import RequestError, SessionError
from .events import (
    CapacityChanged,
    Connected,
    Disconnected,
    EventLog,
    ProtocolEvent,
    ProtocolFormatter,
    RequestDone,
    RequestExpired,
    RequestFinished,
    RequestStarted,
    RequestSubmitted,
    SessionKilled,
    ViewsPushed,
)
from .request import Request
from .scheduler import Scheduler
from .session import ApplicationProtocol, Session
from .types import NEXT, NodeId, Time
from .view import View

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from ..sim.engine import EventHandle, Simulator

__all__ = ["CooRMv2"]


class CooRMv2:
    """The CooRMv2 RMS server.

    Parameters
    ----------
    platform:
        The clusters managed by this RMS.
    simulator:
        Discrete-event engine that drives time.
    rescheduling_interval:
        Minimum delay between two scheduling passes; messages arriving in
        between are coalesced (Section 3.2).  The evaluation uses 1 second.
    kill_protocol_violators:
        Kill applications that keep preemptible resources beyond what their
        preemptive view allows for longer than *violation_grace* seconds.
    violation_grace:
        Grace period before a protocol violation leads to a kill.
    policy:
        Scheduling policy driving the passes: a registered policy name, a
        stage mapping, or a :class:`~repro.policies.SchedulingPolicy`
        object.  Defaults to the paper's Algorithm 4 composition
        (``"coorm"``); ``"coorm-strict"`` is the strict equi-partitioning
        baseline of Figure 11.
    """

    def __init__(
        self,
        platform: Platform,
        simulator: Simulator,
        rescheduling_interval: float = 1.0,
        kill_protocol_violators: bool = False,
        violation_grace: float = 30.0,
        policy=None,
    ):
        if rescheduling_interval < 0:
            raise ValueError("rescheduling_interval must be non-negative")
        self.platform = platform
        self.simulator = simulator
        self.rescheduling_interval = float(rescheduling_interval)
        self.kill_protocol_violators = kill_protocol_violators
        self.violation_grace = float(violation_grace)
        self.scheduler = Scheduler(platform.capacity(), policy=policy)
        self.event_log = EventLog(platform.capacity())
        #: App id -> node-seconds its finished requests used (pre-allocations
        #: reserve, they do not use): the running sum of the event log's
        #: ``RequestFinished.node_seconds``, handed to every pass.
        self.used_node_seconds: Dict[str, float] = {}
        self._format = ProtocolFormatter(platform)

        #: Every session that ever connected, by app id (the latest one when
        #: an id re-connected): the lookup table.  Passes walk ``_live``.
        self.sessions: Dict[str, Session] = {}
        #: The alive sessions in connection order; ``disconnect`` and ``kill``
        #: drop theirs, so a pass never pays for applications that are gone.
        self._live: Dict[str, Session] = {}
        #: App id -> session in which a request finished since the last pass.
        self._finished_in: Dict[str, Session] = {}
        self._app_counter = 0
        self._schedule_handle: Optional[EventHandle] = None
        self._last_schedule_time: Time = -math.inf
        self._expiry_handles: Dict[int, EventHandle] = {}
        tracer = _obs.TRACER[0]  # rms/platform: a setting, not a message
        if tracer is not None:
            tracer.emit(
                self.now,
                "rms",
                "platform",
                {
                    "clusters": {
                        cid: int(n) for cid, n in sorted(platform.capacity().items())
                    },
                    "policy": self.scheduler.policy.name,
                    "interval": self.rescheduling_interval,
                },
            )

    def _record(self, event: ProtocolEvent) -> None:
        """Log *event*: the one path every protocol message takes.

        Under observation its :class:`ProtocolFormatter` turns it into the
        trace events and counters; unobserved it costs one check.
        """
        self.event_log.record(event)
        sink = _obs.SINK[0]
        if sink is not None:
            self._format(event, *sink)

    # ------------------------------------------------------------------ #
    # Time
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> Time:
        """Current simulated time."""
        return self.simulator._now

    @property
    def policy(self):
        """The scheduling policy driving this RMS's passes."""
        return self.scheduler.policy

    # ------------------------------------------------------------------ #
    # Session management
    # ------------------------------------------------------------------ #
    def connect(self, application: ApplicationProtocol, app_id: Optional[str] = None) -> Session:
        """Open a session for *application* and schedule a view push."""
        if app_id is None:
            self._app_counter += 1
            app_id = f"app{self._app_counter}"
        if app_id in self.sessions and self.sessions[app_id].alive:
            raise SessionError(f"application {app_id!r} is already connected")
        session = Session(app_id, application, self.now, self.platform)
        self.sessions[app_id] = self._live[app_id] = session
        self._record(Connected(self.now, app_id))
        self._trigger_schedule()
        return session

    def disconnect(self, app_id: str) -> None:
        """Close a session; every request is terminated and nodes released."""
        session = self._session(app_id)
        for request in session.requests.all_requests():
            if not request.finished():
                self._finish_request(session, request, released_node_ids=None, expired=False)
        session.alive = False
        del self._live[app_id]
        self._record(Disconnected(self.now, app_id))
        self._trigger_schedule()

    def kill(self, app_id: str, reason: str) -> None:
        """Terminate a session after a protocol violation (Section 3.1.4)."""
        session = self._session(app_id)
        for request in session.requests.all_requests():
            if not request.finished():
                request.mark_finished(self.now)
                self._cancel_expiry(request)
            # Every node is released below: unbind them all, or a NEXT child
            # submitted under a re-connected id would inherit stale IDs.
            for bound in self._next_chain_ancestors(request, include_self=True):
                bound.node_ids = frozenset()
        self.platform.release_all_of(app_id)
        session.kill(reason)
        del self._live[app_id]
        self._record(SessionKilled(self.now, app_id, reason=reason))
        session.application.on_killed(reason)
        self._trigger_schedule()

    def _session(self, app_id: str) -> Session:
        session = self.sessions.get(app_id)
        if session is None:
            raise SessionError(f"unknown application {app_id!r}")
        if not session.alive:
            raise SessionError(f"application {app_id!r} is no longer connected")
        return session

    def connected_sessions(self) -> List[Session]:
        """Alive sessions in connection order."""
        return list(self._live.values())

    # ------------------------------------------------------------------ #
    # Protocol operations: request() and done()
    # ------------------------------------------------------------------ #
    def submit(self, app_id: str, request: Request) -> Request:
        """The application's ``request()`` operation."""
        session = self._session(app_id)
        if request.cluster_id not in self.platform.clusters:
            raise RequestError(f"unknown cluster {request.cluster_id!r}")
        if request.node_count > self.platform.cluster(request.cluster_id).node_count:
            raise RequestError(
                f"request asks for {request.node_count} nodes but cluster "
                f"{request.cluster_id!r} only has "
                f"{self.platform.cluster(request.cluster_id).node_count}"
            )
        request.submitted_at = self.now
        session.requests.add(request)
        self._record(RequestSubmitted(self.now, app_id, request.request_id, request.rtype.value,
                                      request.node_count, request.duration))
        self._trigger_schedule()
        return request

    def done(
        self,
        app_id: str,
        request: Request,
        released_node_ids: Optional[Iterable[NodeId]] = None,
    ) -> None:
        """The application's ``done()`` operation.

        Terminates *request* immediately.  For ``NEXT``-constrained successors
        the application may specify which node IDs it releases; the remaining
        ones are carried over to the successor when it starts.
        """
        session = self._session(app_id)
        if request.finished() and request.app_id == app_id:
            # Already over: a no-op whether or not a pass has pruned the
            # request from the session's sets since.
            return
        if session.requests.find(request.request_id) is None:
            raise RequestError(
                f"request #{request.request_id} does not belong to {app_id!r}"
            )
        released = tuple(sorted(released_node_ids)) if released_node_ids else ()
        self._record(RequestDone(self.now, app_id, request_id=request.request_id,
                                 released_node_ids=released))
        self._finish_request(session, request, released_node_ids, expired=False)
        self._trigger_schedule()

    # ------------------------------------------------------------------ #
    # Request lifecycle internals
    # ------------------------------------------------------------------ #
    def _finish_request(
        self,
        session: Session,
        request: Request,
        released_node_ids: Optional[Iterable[NodeId]],
        expired: bool,
    ) -> None:
        was_started = request.started()
        nodes_used = request.node_count if request.is_preallocation() else len(request.node_ids)
        request.mark_finished(self.now)
        self._finished_in[session.app_id] = session
        self._cancel_expiry(request)
        successor = self._pending_next_child(session, request)

        if was_started and not request.is_preallocation():
            held = request.node_ids
            if released_node_ids is not None:
                to_release = held.intersection(released_node_ids)
            else:
                # Keep everything for the successor unless told otherwise.
                to_release = held if successor is None else frozenset()
            if to_release:
                self.platform.release(request.cluster_id, to_release, session.app_id)
                request.node_ids = held - to_release
        elif not was_started and released_node_ids is not None:
            # The application releases nodes carried by the (finished)
            # predecessors of a not-yet-started successor in an update chain.
            to_release = set(released_node_ids)
            for ancestor in self._next_chain_ancestors(request):
                retained = ancestor.node_ids & to_release
                if retained:
                    self.platform.release(request.cluster_id, retained, session.app_id)
                    ancestor.node_ids = ancestor.node_ids - retained
                    to_release -= retained
                if not to_release:
                    break

        # If nothing will ever take over the nodes still retained by this
        # request's finished NEXT ancestors, give them back now.
        if successor is None:
            for ancestor in self._next_chain_ancestors(request, include_self=True):
                if ancestor.node_ids and self._pending_next_child(session, ancestor) is None:
                    self.platform.release(request.cluster_id, ancestor.node_ids, session.app_id)
                    ancestor.node_ids = frozenset()

        finished = RequestFinished(
            self.now, session.app_id, request.request_id, request.rtype.value,
            nodes_used if was_started else 0, was_started, expired, request.started_at,
            request.cluster_id,
        )
        if was_started and not request.is_preallocation():
            used = self.used_node_seconds
            used[session.app_id] = used.get(session.app_id, 0.0) + finished.node_seconds
        if expired:
            self._record(RequestExpired(self.now, session.app_id, request_id=request.request_id))
        self._record(finished)

    def _pending_next_child(self, session: Session, request: Request) -> Optional[Request]:
        """A not-yet-started NEXT successor of *request*, if any."""
        for r in session.requests.scan():
            if r.related_how is NEXT and r.related_to is request and r.pending():
                return r
        return None

    @staticmethod
    def _next_chain_ancestors(request: Request, include_self: bool = False):
        """Finished ``NEXT`` ancestors of *request* that still retain node IDs.

        Update operations chain requests with ``NEXT``; nodes stay bound to a
        finished predecessor until its successor starts.  Several helpers need
        to walk that chain (to carry nodes over, to release them early, or to
        clean up orphans), so the traversal lives here.

        The walk ends at the first ancestor that is unfinished or that
        :meth:`_start_request` bound node IDs to.  It relies on one
        invariant: *a start empties everything above it* -- that start swept
        this same chain and left ``node_ids`` empty on every ancestor it
        yielded.  So the walk is as long as the run of updates issued since
        the last one that was served, not as the application's history.
        Pre-allocations start without binding nodes or sweeping, so the walk
        passes through them.  Only in a forked chain can an ancestor above a
        served request hold nodes again (it was still running when a branch
        below it started, through a link cancelled before its turn, and has
        since finished); it holds them for its *own* pending successor, which
        is one more reason not to climb past the served request.
        """
        if include_self and request.finished() and request.node_ids:
            yield request
        current = request
        while current.related_how is NEXT and current.related_to is not None:
            parent = current.related_to
            if not parent.finished():
                break
            if parent.node_ids:
                yield parent
            if parent.started() and not parent.is_preallocation():
                break
            current = parent

    def _start_request(self, session: Session, request: Request) -> bool:
        """Try to start *request* now; returns False if it must wait for nodes."""
        if request.started() or request.finished():
            return True
        now = self.now
        if request.is_preallocation():
            all_nodes = frozenset()
            request.mark_started(now, all_nodes)
            session.application.on_start(request, all_nodes)
            self._schedule_expiry(session, request)
        else:
            all_nodes = self._bind_nodes(session, request)
            if all_nodes is None:
                return False
            request.mark_started(now, all_nodes)
            self._schedule_expiry(session, request)
            session.application.on_start(request, all_nodes)
        self._record(
            RequestStarted(now, session.app_id, request.request_id, tuple(sorted(all_nodes)),
                           request.rtype.value, request.cluster_id)
        )
        return True

    def _bind_nodes(self, session: Session, request: Request) -> Optional[FrozenSet[NodeId]]:
        """The node IDs *request* starts on, or None while too few are free.

        Nodes retained by finished ``NEXT`` predecessors stay allocated to the
        application; the request carries them over, lowest IDs first when it
        needs fewer, and gives back the rest.  The chain may be more than one
        hop long when updates were issued faster than they could be served.
        No node is bound to two requests, so a successor that takes all of its
        one predecessor's nodes starts on that very frozenset.
        """
        cluster = self.platform.cluster(request.cluster_id)
        needed = request.node_count
        if request.is_preemptible():
            needed = min(request.node_count, max(request.n_alloc, 0))

        chain = list(self._next_chain_ancestors(request))
        carried: FrozenSet[NodeId] = frozenset()
        leftovers: List[FrozenSet[NodeId]] = []  # retained, not taken: nobody will
        for ancestor in chain:
            take = ancestor.node_ids
            room = needed - len(carried)
            if len(take) > room:
                kept = frozenset(sorted(take)[:room])
                leftovers.append(take - kept)
                take = kept
            carried = carried | take if carried else take

        free = cluster.free_count()
        extra_needed = max(0, needed - len(carried))
        if request.is_non_preemptible():
            if free < extra_needed:
                # Not enough nodes free yet: wait for an application to
                # release resources (paper Appendix A.5, situation 2).
                return None
        else:
            extra_needed = min(extra_needed, free)

        new_nodes = cluster.allocate(extra_needed, session.app_id) if extra_needed else frozenset()
        if carried:
            cluster.transfer(carried, session.app_id)
        for leftover in leftovers:
            cluster.release(leftover, session.app_id)
        for ancestor in chain:
            ancestor.node_ids = frozenset()
        return carried | new_nodes if new_nodes else carried

    def _schedule_expiry(self, session: Session, request: Request) -> None:
        if math.isinf(request.duration):
            return
        handle = self.simulator.schedule(
            request.duration, self._expire_request, session.app_id, request
        )
        self._expiry_handles[request.request_id] = handle

    def _cancel_expiry(self, request: Request) -> None:
        handle = self._expiry_handles.pop(request.request_id, None)
        if handle is not None:
            handle.cancel()

    def _expire_request(self, app_id: str, request: Request) -> None:
        session = self.sessions.get(app_id)
        if session is None or not session.alive or request.finished():
            return
        self._finish_request(session, request, released_node_ids=None, expired=True)
        self._trigger_schedule()

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def _trigger_schedule(self) -> None:
        """Run the scheduler soon, coalescing bursts of messages."""
        if self._schedule_handle is not None and self._schedule_handle.pending():
            return
        earliest = self._last_schedule_time + self.rescheduling_interval
        delay = max(0.0, earliest - self.now)
        self._schedule_handle = self.simulator.schedule(delay, self._run_schedule)

    def _run_schedule(self) -> None:
        self._schedule_handle = None
        self._last_schedule_time = self.now

        # Drop the finished requests that no unfinished request names as
        # ``related_to``.  One hop is enough -- ``to_view`` / ``fit`` read a
        # finished request only as the direct parent of a live one, and
        # ``_pending_next_child`` / ``_next_chain_ancestors`` follow
        # ``related_to`` pointers, not set membership -- so an application's
        # thousandth update costs a pass what its first did.  Only the live
        # sessions in which a request finished since the last pass are walked:
        # the RMS is the sole writer of request lifecycle, so it knows them,
        # and elsewhere every finished member is still named by the live
        # request that kept it last time.  A test that calls ``mark_finished``
        # behind the RMS's back must ``prune_finished`` that session itself.
        finished_in, self._finished_in = self._finished_in, {}
        for session in finished_in.values():
            if session.alive:
                session.requests.prune_finished()

        applications = {session.app_id: session.requests for session in self._live.values()}
        if not applications:
            return
        usage = self.used_node_seconds  # fair-share ranks applications by it
        metrics = _obs.METRICS[0]  # pass counters
        profiler = _obs.PROFILER[0]
        if metrics is not None:
            metrics.inc("rms.passes")
        if profiler is None:
            result = self.scheduler.schedule(applications, self.now, usage=usage)
        else:
            started = time.perf_counter()
            try:
                result = self.scheduler.schedule(applications, self.now, usage=usage)
            finally:
                profiler.add("scheduler.pass", time.perf_counter() - started)

        # Start requests whose time has come.  Non-preemptible requests that
        # cannot get node IDs yet (resources not released) stay pending and
        # will be retried at the next pass.
        deferred = False
        for request in result.to_start:
            session = self.sessions.get(request.app_id)
            if session is None or not session.alive:
                continue
            if not self._start_request(session, request):
                deferred = True
        if deferred:
            if metrics is not None:
                metrics.inc("rms.deferred_starts")
            # Make sure a retry happens even if no further message arrives
            # (the releasing application may already have gone quiet).
            self.simulator.schedule(self.rescheduling_interval, self._trigger_schedule)

        # Push views that changed: ``Session.views_changed``, but decided once
        # per distinct (last ¬P, last P, new ¬P, new P) quadruple of view
        # objects in the pass, not once per session -- the scheduler and
        # sharing hand many applications the same view objects.  Views are
        # immutable, so a verdict for four objects holds for the pass; the memo
        # holds them, so no ``id`` is reused while it lives.  A verdict to push
        # carries the two totals ``ViewsPushed`` records (the nodes each view
        # offers now), else None.  Sessions are listed afresh: start callbacks
        # may disconnect some.
        default_cid = self.platform.default_cluster_id()
        empty_view = View.empty()
        now = self.now
        verdicts: Dict[Tuple[int, int, int, int], Tuple[object, ...]] = {}
        for session in self.connected_sessions():
            non_preemptive = result.non_preemptive_views.get(session.app_id, empty_view)
            preemptive = result.preemptive_views.get(session.app_id, empty_view)
            last_np, last_p = session.last_non_preemptive_view, session.last_preemptive_view
            key = (id(last_np), id(last_p), id(non_preemptive), id(preemptive))
            verdict = verdicts.get(key)
            if verdict is None:
                totals = None
                if (last_np is not non_preemptive and last_np != non_preemptive) or (
                    last_p is not preemptive and last_p != preemptive
                ):
                    totals = (non_preemptive[default_cid].value_at(now),
                              preemptive[default_cid].value_at(now))
                verdict = verdicts[key] = (last_np, last_p, non_preemptive, preemptive, totals)
            if verdict[4]:
                session.remember_views(non_preemptive, preemptive)
                self._record(ViewsPushed(now, session.app_id, *verdict[4]))
                session.application.on_views(non_preemptive, preemptive)

        if self.kill_protocol_violators:
            self.simulator.schedule(self.violation_grace, self._check_protocol_violations)

    def _check_protocol_violations(self) -> None:
        """Kill applications that hold more preemptible nodes than allowed."""
        for session in self.connected_sessions():
            view = session.last_preemptive_view
            if view is None:
                continue
            for cid in self.platform.clusters:
                held = session.preemptible_held_count(cid)
                allowed = int(view[cid].value_at(self.now))
                if held > allowed:
                    self.kill(
                        session.app_id,
                        reason=(
                            f"holds {held} preemptible nodes on {cid!r} but the "
                            f"preemptive view only allows {allowed}"
                        ),
                    )
                    break

    # ------------------------------------------------------------------ #
    # Capacity revocation (fault injection / elastic members)
    # ------------------------------------------------------------------ #
    def set_capacity(self, node_count: int, reason: str = "capacity change") -> List[str]:
        """Grow or shrink the default cluster to *node_count* nodes.

        Shrinking picks the highest node IDs as victims; applications
        holding a victim are killed first (the forced kill *is* the
        simulated crash), which releases every node they held.  Growing
        adds fresh nodes that re-use the lowest missing IDs.  Either way
        the scheduler's capacity view is rebuilt and a pass is triggered.
        Returns the app ids killed, in ascending order of the lowest victim
        each held.
        """
        if node_count < 0:
            raise ValueError("node_count cannot be negative")
        cluster = self.platform.cluster(self.platform.default_cluster_id())
        current = cluster.node_count
        killed: List[str] = []
        if node_count == current:
            return killed
        if node_count < current:
            victims = cluster.shrink_victims(current - node_count)
            for app_id in cluster.owners_of(victims):
                session = self.sessions.get(app_id)
                if session is not None and session.alive:
                    self.kill(app_id, reason=reason)
                    killed.append(app_id)
            cluster.remove_nodes(victims)
        else:
            cluster.add_nodes(node_count - current)
        self.scheduler.set_capacity(self.platform.capacity())
        self._record(CapacityChanged(self.now, "", cluster.cluster_id, cluster.node_count,
                                     reason, tuple(killed)))
        self._trigger_schedule()
        return killed

    def release_capacity(self, count: int, reason: str = "elastic shrink") -> int:
        """Gently shed up to *count* currently-free nodes (highest IDs).

        The elastic-shrink counterpart of :meth:`set_capacity`: running
        applications are never killed, so the member only gives back what
        it is not using.  Returns the number of nodes actually removed.
        """
        if count <= 0:
            return 0
        cluster = self.platform.cluster(self.platform.default_cluster_id())
        free = cluster.highest_free(count)
        if not free:
            return 0
        cluster.remove_nodes(free)
        self.scheduler.set_capacity(self.platform.capacity())
        self._record(CapacityChanged(self.now, "", cluster.cluster_id, cluster.node_count, reason))
        self._trigger_schedule()
        return len(free)

    # ------------------------------------------------------------------ #
    # Introspection helpers used by experiments and tests
    # ------------------------------------------------------------------ #
    def force_schedule(self) -> None:
        """Run a scheduling pass immediately (tests and experiments only)."""
        self._run_schedule()

    def total_nodes(self) -> int:
        return self.platform.total_nodes()

    def __repr__(self) -> str:
        return (
            f"CooRMv2({self.platform!r}, {len(self.connected_sessions())} sessions, "
            f"t={self.now:g})"
        )
