"""Protocol message records: the RMS's one stream of what happened.

The CooRMv2 protocol (paper Section 3.3 and Figure 8) consists of a small set
of messages: an application *connects*, submits *request* and *done*
messages, and the RMS answers with *view updates* and *start notifications*,
and may *kill* it.  The RMS records each message once, as one of these
frozen records, in its :class:`EventLog`.  Tests replay the Figure 8
interaction against the log; under observation, :class:`ProtocolFormatter`
turns each record into the tracer's ``rms`` events and the ``rms.*`` metric
increments, so the trace and the counters are read off the log rather than
built beside it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .types import PREALLOCATION, NodeId, Time

__all__ = [
    "ProtocolEvent",
    "Connected",
    "Disconnected",
    "RequestSubmitted",
    "RequestDone",
    "RequestStarted",
    "RequestExpired",
    "RequestFinished",
    "ViewsPushed",
    "SessionKilled",
    "CapacityChanged",
    "EventLog",
    "ProtocolFormatter",
]


@dataclass(frozen=True, slots=True)
class ProtocolEvent:
    """Base class of every protocol trace record."""

    time: Time
    app_id: str

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True, slots=True)
class Connected(ProtocolEvent):
    """An application opened a session with the RMS."""


@dataclass(frozen=True, slots=True)
class Disconnected(ProtocolEvent):
    """An application closed its session normally."""


@dataclass(frozen=True, slots=True)
class RequestSubmitted(ProtocolEvent):
    """The application called ``request()``."""

    request_id: int
    rtype: str
    node_count: int
    duration: Time


@dataclass(frozen=True, slots=True)
class RequestDone(ProtocolEvent):
    """The application called ``done()`` on a request."""

    request_id: int
    released_node_ids: Tuple[NodeId, ...] = ()


@dataclass(frozen=True, slots=True)
class RequestStarted(ProtocolEvent):
    """The RMS started a request (``startNotify``)."""

    request_id: int
    node_ids: Tuple[NodeId, ...] = ()
    rtype: str = ""
    cluster_id: str = ""


@dataclass(frozen=True, slots=True)
class RequestExpired(ProtocolEvent):
    """A started request reached the end of its duration."""

    request_id: int


@dataclass(frozen=True, slots=True)
class RequestFinished(ProtocolEvent):
    """A request ended: on ``done()``, at its expiry or at ``disconnect``.

    A started one used ``nodes`` on ``cluster_id`` from ``started_at`` to
    ``time``: these records are the RMS's account of a run.
    """

    request_id: int
    rtype: str
    nodes: int  # what it used if it started, else 0
    started: bool
    expired: bool
    started_at: Time  # NaN if it never started
    cluster_id: str

    @property
    def node_seconds(self) -> float:
        return self.nodes * max(0.0, self.time - self.started_at)


@dataclass(frozen=True, slots=True)
class ViewsPushed(ProtocolEvent):
    """The RMS pushed fresh views to the application."""

    non_preemptive_total: float = 0.0
    preemptive_total: float = 0.0


@dataclass(frozen=True, slots=True)
class SessionKilled(ProtocolEvent):
    """The RMS terminated the session after a protocol violation."""

    reason: str = ""


@dataclass(frozen=True, slots=True)
class CapacityChanged(ProtocolEvent):
    """The RMS resized a cluster; ``app_id`` is empty, ``killed`` lists the
    applications the shrink killed."""

    cluster_id: str
    node_count: int
    reason: str
    killed: Tuple[str, ...] = ()


class EventLog:
    """Append-only trace of protocol events, with simple query helpers."""

    def __init__(self) -> None:
        self._events: list = []

    def record(self, event: ProtocolEvent) -> None:
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def all(self) -> Tuple[ProtocolEvent, ...]:
        return tuple(self._events)

    def of_kind(self, kind: type) -> Tuple[ProtocolEvent, ...]:
        """All events of the given class."""
        return tuple(e for e in self._events if isinstance(e, kind))

    def for_app(self, app_id: str) -> Tuple[ProtocolEvent, ...]:
        """All events concerning one application."""
        return tuple(e for e in self._events if e.app_id == app_id)

    def last(self, kind: Optional[type] = None) -> Optional[ProtocolEvent]:
        """Most recent event, optionally restricted to one kind."""
        for e in reversed(self._events):
            if kind is None or isinstance(e, kind):
                return e
        return None


#: Record kind -> metric it increments.
_COUNTERS = {
    RequestSubmitted: "rms.requests_submitted",
    RequestFinished: "rms.requests_finished",
    ViewsPushed: "rms.views_pushed",
}

#: Record kind -> ``(formatter, record) -> (trace event name, its args, whether
#: an ``allocated`` sample follows)``.  Open-ended requests carry an infinite
#: duration, which strict JSON cannot represent; null marks "unbounded".
_TRACES = {
    Connected: lambda f, e: ("connect", {"app": e.app_id}, False),
    Disconnected: lambda f, e: ("disconnect", {"app": e.app_id}, False),
    SessionKilled: lambda f, e: ("kill", {"app": e.app_id, "reason": e.reason}, True),
    RequestSubmitted: lambda f, e: ("submit", {
        "app": e.app_id, "req": f.ordinal(e), "rtype": e.rtype, "nodes": e.node_count,
        "duration": e.duration if math.isfinite(e.duration) else None}, False),
    RequestFinished: lambda f, e: ("finish", {
        "app": e.app_id, "req": f.ordinal(e), "rtype": e.rtype, "nodes": e.nodes,
        "started": e.started, "expired": e.expired}, True),
    RequestStarted: lambda f, e: ("start", {
        "app": e.app_id, "req": f.ordinal(e), "rtype": e.rtype, "nodes": len(e.node_ids),
        "cluster": e.cluster_id}, e.rtype != PREALLOCATION.value),
    CapacityChanged: lambda f, e: ("capacity", {
        "cluster": e.cluster_id, "nodes": e.node_count, "reason": e.reason,
        "killed": list(e.killed)}, True),
}


class ProtocolFormatter:
    """One RMS's records as the tracer's ``rms`` events and ``rms.*`` counters.

    Called with each record and the ``(tracer, metrics)`` pair of
    :data:`repro.obs.hooks.SINK`.  A request's ``req`` is its per-application
    submission ordinal, assigned at the first of its records formatted for a
    tracer: ``request_id`` comes from a process-global counter and would
    differ between worker processes, so it never reaches a trace.  Records
    that move nodes end with an ``allocated`` counter sample of *platform*.
    """

    def __init__(self, platform) -> None:
        self.platform = platform
        self._ordinals: Dict[int, int] = {}
        self._counts: Dict[str, int] = {}

    def __call__(self, event: ProtocolEvent, tracer, metrics) -> None:
        kind = type(event)
        if metrics is not None and kind in _COUNTERS:
            metrics.inc(_COUNTERS[kind])
        if tracer is None or kind not in _TRACES:
            return
        name, args, moved = _TRACES[kind](self, event)
        tracer.emit(event.time, "rms", name, args)
        if moved:
            clusters = self.platform.clusters
            allocated = {cid: float(clusters[cid].allocated_count()) for cid in sorted(clusters)}
            tracer.counter(event.time, "rms", "allocated", allocated)

    def ordinal(self, event) -> int:
        """The per-application submission ordinal of *event*'s request."""
        ordinal = self._ordinals.get(event.request_id)
        if ordinal is None:
            ordinal = self._ordinals[event.request_id] = self._counts.get(event.app_id, 0) + 1
            self._counts[event.app_id] = ordinal
        return ordinal
