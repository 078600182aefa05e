"""Unit tests of the cluster substrate (nodes, clusters, platform, energy)."""
from __future__ import annotations

import pytest

from repro.cluster import (
    Cluster,
    EnergyModel,
    Node,
    NodeState,
    Platform,
    energy_report,
)
from repro.core import AllocationError


class TestNode:
    def test_allocate_and_release(self):
        node = Node(0, "c")
        node.allocate("app", now=10.0)
        assert node.state is NodeState.ALLOCATED
        assert node.owner_app == "app"
        node.release(now=25.0)
        assert node.is_free()
        assert node.busy_seconds == pytest.approx(15.0)

    def test_double_allocation_rejected(self):
        node = Node(0, "c")
        node.allocate("app", now=0.0)
        with pytest.raises(AllocationError):
            node.allocate("other", now=1.0)

    def test_release_free_node_rejected(self):
        with pytest.raises(AllocationError):
            Node(0, "c").release(now=0.0)

    def test_power_cycle(self):
        node = Node(0, "c")
        node.power_down(now=0.0)
        assert node.state is NodeState.POWERED_DOWN
        node.power_up(now=5.0)
        assert node.is_free()

    def test_cannot_power_down_allocated_node(self):
        node = Node(0, "c")
        node.allocate("app", now=0.0)
        with pytest.raises(AllocationError):
            node.power_down(now=1.0)


class TestCluster:
    def test_allocation_prefers_lowest_ids(self):
        cluster = Cluster("c", 8)
        ids = cluster.allocate(3, "app", now=0.0)
        assert ids == frozenset({0, 1, 2})
        assert cluster.free_count() == 5
        assert cluster.allocated_to("app") == [0, 1, 2]

    def test_preferred_nodes_are_used_first(self):
        cluster = Cluster("c", 8)
        ids = cluster.allocate(2, "app", now=0.0, preferred=[5, 6])
        assert ids == frozenset({5, 6})

    def test_insufficient_nodes_raise(self):
        cluster = Cluster("c", 4)
        cluster.allocate(3, "a", now=0.0)
        with pytest.raises(AllocationError):
            cluster.allocate(2, "b", now=0.0)

    def test_release_and_release_all(self):
        cluster = Cluster("c", 4)
        cluster.allocate(2, "a", now=0.0)
        cluster.allocate(2, "b", now=0.0)
        cluster.release([0], now=1.0)
        assert cluster.free_count() == 1
        released = cluster.release_all_of("b", now=2.0)
        assert len(released) == 2
        assert cluster.free_count() == 3

    def test_release_unknown_node_rejected(self):
        with pytest.raises(AllocationError):
            Cluster("c", 2).release([7], now=0.0)

    def test_transfer_checks_ownership_and_changes_nothing(self):
        """A hand-over within one application leaves the cluster as it was; one
        of nodes the application does not hold raises, naming the first
        offending node, and changes nothing either."""
        cluster = Cluster("c", 4)
        ids = cluster.allocate(2, "a", now=0.0)
        cluster.allocate(1, "b", now=0.0)

        def state():
            nodes = {nid: (n.state, n.owner_app) for nid, n in cluster.nodes.items()}
            return nodes, cluster.free_nodes(), cluster.allocated_to("a")

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

    def test_busy_node_seconds(self):
        cluster = Cluster("c", 4)
        cluster.allocate(2, "a", now=0.0)
        assert cluster.busy_node_seconds(now=10.0) == pytest.approx(20.0)

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
        platform.cluster("a").allocate(2, "app", now=0.0)
        platform.cluster("b").allocate(3, "app", now=0.0)
        released = platform.release_all_of("app", now=1.0)
        assert len(released["a"]) == 2 and len(released["b"]) == 3
        assert platform.busy_node_seconds(now=1.0) == pytest.approx(5.0)


class TestEnergy:
    def test_report_balances(self):
        report = energy_report(
            total_nodes=10,
            horizon_seconds=100.0,
            busy_node_seconds=600.0,
            sleepable_node_seconds=200.0,
            model=EnergyModel(busy_watts=200, idle_watts=100, sleep_watts=10),
        )
        assert report.busy_joules == pytest.approx(600 * 200)
        assert report.idle_joules == pytest.approx(200 * 100 + 200 * 10)
        assert report.saved_joules == pytest.approx(200 * 90)
        assert report.total_kwh == pytest.approx(report.total_joules / 3.6e6)

    def test_busy_time_clamped_to_capacity(self):
        report = energy_report(10, 10.0, busy_node_seconds=1e9)
        assert report.idle_joules == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            energy_report(10, -1.0, 0.0)
        with pytest.raises(ValueError):
            EnergyModel(busy_watts=-5)
