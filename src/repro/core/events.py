"""Protocol message records exchanged between the RMS and applications.

The CooRMv2 protocol (paper Section 3.3 and Figure 8) consists of a small set
of messages: an application *connects*, submits *request* and *done*
messages, and the RMS answers with *view updates* and *start notifications*.
These dataclasses record each message so that simulations produce an
inspectable trace (tests replay the Figure 8 interaction against it) and so
the RMS event log doubles as documentation of what happened.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .types import NodeId, Time

__all__ = [
    "ProtocolEvent",
    "Connected",
    "Disconnected",
    "RequestSubmitted",
    "RequestDone",
    "RequestStarted",
    "RequestExpired",
    "ViewsPushed",
    "SessionKilled",
    "EventLog",
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


@dataclass(frozen=True, slots=True)
class RequestExpired(ProtocolEvent):
    """A started request reached the end of its duration."""

    request_id: int


@dataclass(frozen=True, slots=True)
class ViewsPushed(ProtocolEvent):
    """The RMS pushed fresh views to the application."""

    non_preemptive_total: float = 0.0
    preemptive_total: float = 0.0


@dataclass(frozen=True, slots=True)
class SessionKilled(ProtocolEvent):
    """The RMS terminated the session after a protocol violation."""

    reason: str = ""


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
