"""A homogeneous, space-shared cluster with explicit node-ID bookkeeping.

The scheduler reasons about node *counts*; this module tracks node
*identities*, which the RMS needs when it actually starts a request
(``startNotify`` carries node IDs) and when ``NEXT``-constrained requests
inherit the nodes of their predecessor.
"""
from __future__ import annotations

from typing import AbstractSet, Collection, Dict, FrozenSet, Iterable, List, Set

from ..core.errors import AllocationError
from ..core.types import ClusterId, NodeId

__all__ = ["Cluster"]


class Cluster:
    """A named collection of identical nodes, each nothing but its ID.

    Three ID sets and nothing else: ``node_ids`` (every node of the cluster),
    the pool of free IDs, and the ownership map -- one set of node IDs per
    application, the one record of who holds what (sessions read it through
    :meth:`held_by`).  A node is free or held by exactly one application.  A
    call that fails changes none of the three.  A hand-over pays for the
    nodes that change hands: a ``NEXT`` successor inheriting its
    predecessor's nodes changes no owner, so :meth:`transfer` is one subset
    test.
    """

    def __init__(self, cluster_id: ClusterId, node_count: int):
        if node_count <= 0:
            raise AllocationError("a cluster needs a positive node count")
        self.cluster_id = cluster_id
        self.node_ids: Set[NodeId] = set(range(node_count))
        self._free: Set[NodeId] = set(self.node_ids)
        #: Application id -> IDs of the nodes it holds (no empty sets).
        self._held: Dict[str, Set[NodeId]] = {}

    # ------------------------------------------------------------------ #
    @property
    def node_count(self) -> int:
        """Total number of nodes, free or held."""
        return len(self.node_ids)

    def free_nodes(self) -> List[NodeId]:
        """IDs of nodes currently free (lowest IDs first, deterministic)."""
        return sorted(self._free)

    def free_count(self) -> int:
        return len(self._free)

    def allocated_count(self) -> int:
        return len(self.node_ids) - len(self._free)

    def highest_free(self, count: int) -> List[NodeId]:
        """The *count* highest free node IDs, highest first."""
        return sorted(self._free, reverse=True)[:max(count, 0)]

    def held_by(self, app_id: str) -> AbstractSet[NodeId]:
        """IDs of the nodes *app_id* holds: the live set itself, read-only."""
        return self._held.get(app_id, frozenset())

    def allocated_to(self, app_id: str) -> List[NodeId]:
        """IDs of nodes currently held by *app_id*, lowest first."""
        return sorted(self.held_by(app_id))

    def owners_of(self, node_ids: Iterable[NodeId]) -> List[str]:
        """Applications holding any of *node_ids*, by the lowest ID each holds."""
        wanted = set(node_ids)
        lowest = {
            app_id: min(held & wanted)
            for app_id, held in self._held.items()
            if not held.isdisjoint(wanted)
        }
        return sorted(lowest, key=lowest.__getitem__)

    # ------------------------------------------------------------------ #
    def allocate(self, count: int, app_id: str) -> FrozenSet[NodeId]:
        """Allocate the *count* lowest free node IDs to *app_id* and return them.

        Raises :class:`AllocationError` if fewer than *count* nodes are free.
        """
        if count < 0:
            raise AllocationError("cannot allocate a negative node count")
        if count > len(self._free):
            raise AllocationError(
                f"cluster {self.cluster_id!r}: requested {count} nodes, "
                f"only {self.free_count()} free"
            )
        chosen = frozenset(sorted(self._free)[:count])  # in C: cheaper than a heap walk
        if chosen:
            self._free -= chosen
            self._held.setdefault(app_id, set()).update(chosen)
        return chosen

    def release(self, node_ids: Collection[NodeId], app_id: str) -> None:
        """Give the listed nodes of *app_id* back to the free pool.

        Raises, changing nothing, unless *app_id* holds every one of them.
        """
        self.transfer(node_ids, app_id)
        if node_ids:
            held = self._held[app_id]
            held.difference_update(node_ids)
            if not held:
                del self._held[app_id]
            self._free.update(node_ids)

    def release_all_of(self, app_id: str) -> FrozenSet[NodeId]:
        """Release every node held by *app_id* (used when killing a session)."""
        held = self._held.pop(app_id, frozenset())
        self._free |= held
        return frozenset(held)

    def transfer(self, node_ids: Collection[NodeId], app_id: str) -> None:
        """Check that *app_id* holds every node in *node_ids*.

        Used by ``NEXT`` constraints, where node IDs are carried over from the
        finished request to its successor without ever becoming free.  Both
        requests belong to one application, so no owner changes: on success
        this is one subset test and touches no node.
        """
        held = self.held_by(app_id)
        if held.issuperset(node_ids):
            return
        for nid in node_ids:
            if nid not in self.node_ids:
                raise AllocationError(f"unknown node id {nid} on {self.cluster_id!r}")
            if nid not in held:
                raise AllocationError(f"node {nid} is not held by application {app_id!r}")

    # ------------------------------------------------------------------ #
    # Capacity mutation (fault injection / elastic members)
    # ------------------------------------------------------------------ #
    def shrink_victims(self, count: int) -> List[NodeId]:
        """The node IDs a shrink of *count* nodes would remove.

        Victims are the highest IDs -- a deterministic choice that keeps
        the surviving ID set contiguous-ish and replayable.
        """
        if count <= 0:
            return []
        return sorted(self.node_ids)[-count:]

    def remove_nodes(self, node_ids: Collection[NodeId]) -> None:
        """Remove nodes from the cluster (crash or elastic shrink).

        Every victim must be free, or nothing is removed: callers (the RMS)
        kill the owning applications first, which releases their nodes.
        """
        if self._free.issuperset(node_ids):
            self.node_ids.difference_update(node_ids)
            self._free.difference_update(node_ids)
            return
        for nid in node_ids:
            if nid not in self.node_ids:
                raise AllocationError(f"unknown node id {nid} on {self.cluster_id!r}")
            if nid not in self._free:
                raise AllocationError(
                    f"node {nid} on {self.cluster_id!r} is still allocated "
                    f"to {self.owners_of([nid])[0]!r}; kill the owner before removing it"
                )

    def add_nodes(self, count: int) -> List[NodeId]:
        """Add *count* fresh nodes (node restart or elastic grow).

        IDs re-use the lowest missing non-negative integers, so a restart
        after a crash restores exactly the original ID set -- replay of a
        faulted scenario is byte-identical.
        """
        if count < 0:
            raise AllocationError("cannot add a negative node count")
        added: List[NodeId] = []
        nid = 0
        while len(added) < count:
            if nid not in self.node_ids:
                added.append(nid)
            nid += 1
        self.node_ids.update(added)
        self._free.update(added)
        return added

    def __repr__(self) -> str:
        return (
            f"Cluster({self.cluster_id!r}, {self.node_count} nodes, "
            f"{self.free_count()} free)"
        )
