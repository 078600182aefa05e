"""Application sessions held by the RMS.

A session ties together an application object (the callback side of the
protocol), the application's three request sets and its connection metadata.
Sessions are ordered by connection time; the scheduler processes them in that
order, which is what gives earlier applications priority (Section 3.2:
"Applications are sorted in a list based on the time the applications
connected to the RMS").

Node ownership is not kept here: each cluster keeps one set of node IDs per
application and :meth:`Session.holds` reads it.  With one map nothing needs
keeping in step, so a hand-over pays for the nodes that change hands.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, FrozenSet, Optional, Protocol, runtime_checkable

from .request import Request
from .request_set import ApplicationRequests
from .types import NodeId, Time
from .view import View

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.platform import Platform

__all__ = ["ApplicationProtocol", "Session"]


@runtime_checkable
class ApplicationProtocol(Protocol):
    """What the RMS expects from an application object.

    Application classes in :mod:`repro.apps` implement this; any object with
    these three methods can participate in a simulation.
    """

    def on_views(self, non_preemptive: View, preemptive: View) -> None:
        """New views were pushed by the RMS."""

    def on_start(self, request: Request, node_ids: FrozenSet[NodeId]) -> None:
        """A request started; *node_ids* is empty for pre-allocations."""

    def on_killed(self, reason: str) -> None:
        """The RMS terminated the session (protocol violation)."""


class Session:
    """State the RMS keeps for one connected application."""

    def __init__(
        self, app_id: str, application: ApplicationProtocol, connected_at: Time, platform: "Platform"
    ):
        self.app_id = app_id
        self.application = application
        self.connected_at = connected_at
        self.platform = platform
        self.requests = ApplicationRequests(app_id)
        self.alive = True
        self.kill_reason: Optional[str] = None
        #: Last views pushed to the application (used to push only on change).
        self.last_non_preemptive_view: Optional[View] = None
        self.last_preemptive_view: Optional[View] = None

    # ------------------------------------------------------------------ #
    def holds(self, cluster_id: str) -> AbstractSet[NodeId]:
        """Node IDs held on *cluster_id*: the cluster's live set (none once closed)."""
        if not self.alive:
            return frozenset()
        return self.platform.cluster(cluster_id).held_by(self.app_id)

    # ------------------------------------------------------------------ #
    def preemptible_held_count(self, cluster_id: str) -> int:
        """Nodes held through *started* preemptible requests on one cluster."""
        total = 0
        for r in self.requests.preemptible:
            if r.started() and not r.finished() and r.cluster_id == cluster_id:
                total += len(r.node_ids)
        return total

    def views_changed(self, non_preemptive: View, preemptive: View) -> bool:
        """True if the views differ from the last pushed ones."""
        return (
            self.last_non_preemptive_view != non_preemptive
            or self.last_preemptive_view != preemptive
        )

    def remember_views(self, non_preemptive: View, preemptive: View) -> None:
        self.last_non_preemptive_view = non_preemptive
        self.last_preemptive_view = preemptive

    def kill(self, reason: str) -> None:
        self.alive = False
        self.kill_reason = reason

    def __repr__(self) -> str:
        state = "alive" if self.alive else f"killed ({self.kill_reason})"
        return f"Session({self.app_id!r}, connected_at={self.connected_at:g}, {state})"
