"""Base class of simulated applications.

Applications are the client side of the CooRMv2 protocol: they connect to the
RMS, submit ``request()`` / ``done()`` messages and react to the views and
start notifications the RMS pushes.  :class:`BaseApplication` implements the
plumbing every application type shares -- connection management, bookkeeping
of held nodes, the two high-level operations of Section 3.1.3 (*spontaneous
update* and *announced update*) -- so the concrete classes in this package
only encode behaviour.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, FrozenSet, Optional, Callable, Tuple

from ..core.errors import ProtocolError
from ..core.request import Request
from ..core.types import ClusterId, NodeId, RelatedHow, RequestType, Time
from ..core.view import View

if TYPE_CHECKING:
    from ..core.rms import CooRMv2

__all__ = ["BaseApplication"]


class BaseApplication:
    """Common machinery of every simulated application.

    Parameters
    ----------
    name:
        Identifier used as the RMS application id (must be unique per RMS).
    cluster_id:
        Cluster this application requests resources on (the evaluation uses a
        single cluster).
    """

    def __init__(self, name: str, cluster_id: ClusterId = "cluster0"):
        self.name = name
        self.cluster_id = cluster_id
        self.rms: Optional[CooRMv2] = None
        self.connected_at: Time = math.nan
        self.finished_at: Time = math.nan
        self.killed = False
        self.kill_reason: Optional[str] = None
        #: Latest views pushed by the RMS.
        self.non_preemptive_view: Optional[View] = None
        self.preemptive_view: Optional[View] = None
        #: Called (with the application) when the application finishes.
        self.on_finished: Optional[Callable[["BaseApplication"], None]] = None

    # ------------------------------------------------------------------ #
    # Connection and submission helpers
    # ------------------------------------------------------------------ #
    def connect(self, rms: CooRMv2) -> None:
        """Open a session with *rms*; triggers the first view push."""
        self.rms = rms
        rms.connect(self, app_id=self.name)
        self.connected_at = rms.now

    def disconnect(self) -> None:
        """Close the session (all outstanding requests are terminated)."""
        if self.rms is not None and not self.killed:
            self.rms.disconnect(self.name)

    @property
    def now(self) -> Time:
        if self.rms is None:
            raise ProtocolError(f"application {self.name!r} is not connected")
        return self.rms.now

    def submit(
        self,
        node_count: int,
        duration: Time,
        rtype: RequestType,
        related_how: RelatedHow = RelatedHow.FREE,
        related_to: Optional[Request] = None,
    ) -> Request:
        """Build and submit a request on this application's cluster."""
        if self.rms is None:
            raise ProtocolError(f"application {self.name!r} is not connected")
        request = Request(
            cluster_id=self.cluster_id,
            node_count=node_count,
            duration=duration,
            rtype=rtype,
            related_how=related_how,
            related_to=related_to,
            app_id=self.name,
        )
        return self.rms.submit(self.name, request)

    def done(self, request: Request, released_node_ids=None) -> None:
        """Terminate *request* immediately (the protocol's ``done()``)."""
        if self.rms is None:
            raise ProtocolError(f"application {self.name!r} is not connected")
        self.rms.done(self.name, request, released_node_ids)

    # ------------------------------------------------------------------ #
    # High-level operations (Section 3.1.3)
    # ------------------------------------------------------------------ #
    def spontaneous_update(
        self,
        current: Request,
        new_node_count: int,
        duration: Time = math.inf,
        released_node_ids=None,
    ) -> Request:
        """Immediately change the allocation size (Figure 6(b)).

        A new request is submitted ``NEXT`` to the current one (so surviving
        node IDs are carried over) and the current request is terminated.
        When shrinking, *released_node_ids* tells the RMS which nodes are
        given back; when omitted, the highest node IDs are released.
        """
        new_request = self.submit(
            node_count=new_node_count,
            duration=duration,
            rtype=current.rtype,
            related_how=RelatedHow.NEXT,
            related_to=current,
        )
        if released_node_ids is None and new_node_count < len(current.node_ids):
            released_node_ids = sorted(current.node_ids)[new_node_count:]
        self.done(current, released_node_ids)
        return new_request

    def announced_update(
        self,
        current: Request,
        new_node_count: int,
        announce_interval: Time,
        duration: Time = math.inf,
    ) -> Tuple[Request, Request]:
        """Announce a future change of allocation size (Figure 6(c)).

        A bridge request keeps the current node count for *announce_interval*
        seconds, a second request switches to *new_node_count* afterwards, and
        the current request is terminated.  Returns ``(bridge, future)``.
        """
        if announce_interval <= 0:
            new_request = self.spontaneous_update(current, new_node_count, duration)
            return new_request, new_request
        current_count = len(current.node_ids) if current.started() else current.node_count
        bridge = self.submit(
            node_count=current_count,
            duration=announce_interval,
            rtype=current.rtype,
            related_how=RelatedHow.NEXT,
            related_to=current,
        )
        future = self.submit(
            node_count=new_node_count,
            duration=duration,
            rtype=current.rtype,
            related_how=RelatedHow.NEXT,
            related_to=bridge,
        )
        self.done(current)
        return bridge, future

    # ------------------------------------------------------------------ #
    # Protocol callbacks (overridden by concrete applications)
    # ------------------------------------------------------------------ #
    def on_views(self, non_preemptive: View, preemptive: View) -> None:
        """Record the pushed views; subclasses extend this."""
        self.non_preemptive_view = non_preemptive
        self.preemptive_view = preemptive

    def on_start(self, request: Request, node_ids: FrozenSet[NodeId]) -> None:
        """A request started; subclasses react (default: nothing)."""

    def on_killed(self, reason: str) -> None:
        """The RMS killed this application's session."""
        self.killed = True
        self.kill_reason = reason

    # ------------------------------------------------------------------ #
    # Lifecycle helpers
    # ------------------------------------------------------------------ #
    def finish(self) -> None:
        """Record completion, close the session and fire ``on_finished``."""
        if not math.isnan(self.finished_at):
            return
        self.finished_at = self.now
        self.disconnect()
        if self.on_finished is not None:
            self.on_finished(self)

    def finished(self) -> bool:
        return not math.isnan(self.finished_at)

    def makespan(self) -> float:
        """Connection-to-completion time (NaN until the application finishes)."""
        return self.finished_at - self.connected_at

    # ------------------------------------------------------------------ #
    # View helpers used by several application types
    # ------------------------------------------------------------------ #
    def preemptive_available_now(self) -> int:
        """Node count the preemptive view offers right now."""
        if self.preemptive_view is None or self.rms is None:
            return 0
        return int(self.preemptive_view[self.cluster_id].value_at(self.now))

    def preemptive_available_min(self, window: Time) -> int:
        """Minimum preemptive availability over the next *window* seconds."""
        if self.preemptive_view is None or self.rms is None:
            return 0
        profile = self.preemptive_view[self.cluster_id]
        return int(profile.min_over(self.now, self.now + window))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
