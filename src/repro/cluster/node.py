"""Compute nodes of the simulated platform.

The paper assumes space-shared, homogeneous clusters: a node is either free,
allocated exclusively to one request, or powered down to save energy
(Section 5.3 mentions that resources released early "can be put in an energy
saving mode").
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..core.errors import AllocationError
from ..core.types import NodeId, Time

__all__ = ["NodeState", "Node"]


class NodeState(enum.Enum):
    """Operational state of a node."""

    FREE = "free"
    ALLOCATED = "allocated"
    POWERED_DOWN = "powered-down"


@dataclass
class Node:
    """One compute node, identified by an integer unique within its cluster."""

    node_id: NodeId
    cluster_id: str
    state: NodeState = NodeState.FREE
    #: Application currently holding the node, if any.  Which of its
    #: requests holds the node is the RMS's business, not the node's.
    owner_app: Optional[str] = None
    #: Accumulated busy node-seconds (for accounting/energy reports).
    busy_seconds: float = 0.0
    #: Time of the last state change (used to integrate busy time).
    last_transition: Time = 0.0

    def allocate(self, app_id: str, now: Time) -> None:
        """Hand the node to an application; it must currently be free."""
        if self.state is NodeState.ALLOCATED:
            raise AllocationError(
                f"node {self.cluster_id}/{self.node_id} is already allocated "
                f"to {self.owner_app!r}"
            )
        self._accumulate(now)
        self.state = NodeState.ALLOCATED
        self.owner_app = app_id
        self.last_transition = now

    def release(self, now: Time) -> None:
        """Return the node to the free pool."""
        if self.state is not NodeState.ALLOCATED:
            raise AllocationError(
                f"node {self.cluster_id}/{self.node_id} is not allocated"
            )
        self._accumulate(now)
        self.state = NodeState.FREE
        self.owner_app = None
        self.last_transition = now

    def power_down(self, now: Time) -> None:
        """Put a free node into the energy-saving state."""
        if self.state is NodeState.ALLOCATED:
            raise AllocationError("cannot power down an allocated node")
        self._accumulate(now)
        self.state = NodeState.POWERED_DOWN
        self.last_transition = now

    def power_up(self, now: Time) -> None:
        """Wake a powered-down node."""
        if self.state is not NodeState.POWERED_DOWN:
            return
        self._accumulate(now)
        self.state = NodeState.FREE
        self.last_transition = now

    def is_free(self) -> bool:
        return self.state is NodeState.FREE

    def _accumulate(self, now: Time) -> None:
        if self.state is NodeState.ALLOCATED and now > self.last_transition:
            self.busy_seconds += now - self.last_transition

    def __repr__(self) -> str:
        owner = f" app={self.owner_app}" if self.owner_app else ""
        return f"Node({self.cluster_id}/{self.node_id} {self.state.value}{owner})"
