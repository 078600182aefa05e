"""The platform: the set of clusters managed by one RMS instance.

The paper's evaluation uses a single large homogeneous cluster
(Section 5.1.3), but the RMS interface is multi-cluster (requests carry a
cluster id and views have one profile per cluster), so the substrate supports
any number of clusters.
"""
from __future__ import annotations

from typing import Collection, Dict, Mapping

from ..core.errors import AllocationError
from ..core.types import ClusterId, NodeId
from .cluster import Cluster

__all__ = ["Platform"]


class Platform:
    """A collection of named clusters."""

    def __init__(self, clusters: Mapping[ClusterId, int]):
        if not clusters:
            raise AllocationError("a platform needs at least one cluster")
        self.clusters: Dict[ClusterId, Cluster] = {
            cid: Cluster(cid, n) for cid, n in clusters.items()
        }

    @classmethod
    def single_cluster(cls, node_count: int, cluster_id: ClusterId = "cluster0") -> "Platform":
        """The paper's evaluation platform: one homogeneous cluster."""
        return cls({cluster_id: node_count})

    # ------------------------------------------------------------------ #
    def capacity(self) -> Dict[ClusterId, int]:
        """Cluster id -> total node count (what the scheduler needs)."""
        return {cid: c.node_count for cid, c in self.clusters.items()}

    def total_nodes(self) -> int:
        return sum(c.node_count for c in self.clusters.values())

    def cluster(self, cluster_id: ClusterId) -> Cluster:
        try:
            return self.clusters[cluster_id]
        except KeyError:
            raise AllocationError(f"unknown cluster {cluster_id!r}") from None

    def default_cluster_id(self) -> ClusterId:
        """The id of the first cluster (convenient for single-cluster setups)."""
        return next(iter(self.clusters))

    # ------------------------------------------------------------------ #
    def release(self, cluster_id: ClusterId, node_ids: Collection[NodeId], app_id: str) -> None:
        self.cluster(cluster_id).release(node_ids, app_id)

    def release_all_of(self, app_id: str) -> Dict[ClusterId, frozenset]:
        """Release every node held by an application, on every cluster."""
        return {cid: c.release_all_of(app_id) for cid, c in self.clusters.items()}

    def __repr__(self) -> str:
        inner = ", ".join(f"{cid}={c.node_count}" for cid, c in self.clusters.items())
        return f"Platform({inner})"
