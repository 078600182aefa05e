"""Unit tests of the cluster substrate (clusters of node IDs, platform)."""
from __future__ import annotations

import pytest

from repro.cluster import Cluster, Platform
from repro.core import AllocationError


class TestCluster:
    def test_allocation_prefers_lowest_ids(self):
        cluster = Cluster("c", 8)
        ids = cluster.allocate(3, "app")
        assert ids == frozenset({0, 1, 2})
        assert cluster.free_count() == 5
        assert cluster.allocated_to("app") == [0, 1, 2]

    def test_allocation_takes_the_lowest_free_ids_around_held_ones(self):
        cluster = Cluster("c", 8)
        cluster.allocate(3, "a")
        cluster.release([1], "a")
        assert cluster.allocate(3, "b") == frozenset({1, 3, 4})
        assert cluster.allocated_to("a") == [0, 2]

    def test_insufficient_nodes_raise(self):
        cluster = Cluster("c", 4)
        cluster.allocate(3, "a")
        with pytest.raises(AllocationError):
            cluster.allocate(2, "b")

    def test_release_and_release_all(self):
        cluster = Cluster("c", 4)
        cluster.allocate(2, "a")
        cluster.allocate(2, "b")
        cluster.release([0], "a")
        assert cluster.free_count() == 1
        released = cluster.release_all_of("b")
        assert len(released) == 2
        assert cluster.free_count() == 3

    def test_release_unknown_node_rejected(self):
        with pytest.raises(AllocationError):
            Cluster("c", 2).release([7], "a")

    def test_transfer_checks_ownership_and_changes_nothing(self):
        """A hand-over within one application leaves the cluster as it was; one
        of nodes the application does not hold raises, naming the first
        offending node, and changes nothing either."""
        cluster = Cluster("c", 4)
        ids = cluster.allocate(2, "a")
        cluster.allocate(1, "b")

        def state():
            owners = cluster.allocated_to("a"), cluster.allocated_to("b")
            return set(cluster.node_ids), cluster.free_nodes(), owners

        before = state()
        cluster.transfer(ids, "a")
        assert state() == before
        with pytest.raises(AllocationError, match="not held by application 'someone-else'"):
            cluster.transfer(ids, "someone-else")
        with pytest.raises(AllocationError, match="node 2 is not held by application 'a'"):
            cluster.transfer([0, 2], "a")  # node 2 is b's
        with pytest.raises(AllocationError, match="node 3 is not held"):
            cluster.transfer([3], "a")  # free
        with pytest.raises(AllocationError, match="unknown node id 9 on 'c'"):
            cluster.transfer([0, 9, 3], "a")
        assert state() == before

    def test_owners_of_orders_by_the_lowest_id_each_holds(self):
        cluster = Cluster("c", 6)
        cluster.allocate(4, "x")
        assert cluster.allocate(2, "a") == frozenset({4, 5})
        cluster.release_all_of("x")
        cluster.allocate(2, "b")
        assert cluster.owners_of([5, 1, 4]) == ["b", "a"]
        assert cluster.owners_of([2, 3]) == []
        with pytest.raises(AllocationError, match="node 0 on 'c' is still allocated to 'b'"):
            cluster.remove_nodes([0])

    def test_zero_node_cluster_rejected(self):
        with pytest.raises(AllocationError):
            Cluster("c", 0)


class TestPlatform:
    def test_single_cluster_factory(self):
        platform = Platform.single_cluster(128)
        assert platform.total_nodes() == 128
        assert platform.capacity() == {"cluster0": 128}
        assert platform.default_cluster_id() == "cluster0"

    def test_multi_cluster(self):
        platform = Platform({"a": 4, "b": 8})
        assert platform.total_nodes() == 12
        assert platform.cluster("b").node_count == 8
        with pytest.raises(AllocationError):
            platform.cluster("missing")

    def test_requires_one_cluster(self):
        with pytest.raises(AllocationError):
            Platform({})

    def test_release_all_of_spans_clusters(self):
        platform = Platform({"a": 4, "b": 4})
        platform.cluster("a").allocate(2, "app")
        platform.cluster("b").allocate(3, "app")
        released = platform.release_all_of("app")
        assert len(released["a"]) == 2 and len(released["b"]) == 3
        assert platform.cluster("a").free_count() + platform.cluster("b").free_count() == 8
