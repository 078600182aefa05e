"""Unit tests of the Federation, MetaScheduler and routing policies."""
from __future__ import annotations

import pytest

from repro.apps.rigid import RigidApplication
from repro.federation import (
    ROUTINGS,
    ClusterSpec,
    ClusterState,
    Federation,
    FederationSpec,
    RoutingRequest,
    locality_group,
    make_routing,
)
from repro.sim import Simulator


def states(*capacities, outstanding=None):
    outstanding = outstanding or [0] * len(capacities)
    return [
        ClusterState(
            name=f"c{i}",
            index=i,
            capacity=capacity,
            free_nodes=capacity,
            outstanding_nodes=outstanding[i],
            outstanding_apps=1 if outstanding[i] else 0,
        )
        for i, capacity in enumerate(capacities)
    ]


def req(app_id="app", nodes=1, group=""):
    return RoutingRequest(app_id=app_id, node_count=nodes, group=group)


class TestRoutingPolicies:
    def test_any_picks_first_fitting(self):
        policy = make_routing("any")
        assert policy.route(req(nodes=8), states(4, 16, 32)) == 1
        assert policy.route(req(nodes=1), states(4, 16, 32)) == 0
        # Nothing fits: fall back to the first cluster (fails loudly later).
        assert policy.route(req(nodes=99), states(4, 16, 32)) == 0

    def test_round_robin_cycles_and_skips_misfits(self):
        policy = make_routing("round-robin")
        sequence = [policy.route(req(nodes=8), states(4, 16, 32)) for _ in range(4)]
        assert sequence == [1, 2, 1, 2]  # c0 (4 nodes) never fits 8

    def test_least_loaded_balances_by_relative_load(self):
        policy = make_routing("least-loaded")
        # c0 half full, c1 empty -> c1 despite equal capacity.
        assert policy.route(req(nodes=4), states(16, 16, outstanding=[8, 0])) == 1
        # Load is relative: 8/32 < 4/8.
        assert policy.route(req(nodes=4), states(8, 32, outstanding=[4, 8])) == 1

    def test_least_loaded_ties_break_towards_spec_order(self):
        policy = make_routing("least-loaded")
        assert policy.route(req(nodes=4), states(16, 16)) == 0

    def test_best_fit_picks_tightest_capacity(self):
        policy = make_routing("best-fit")
        assert policy.route(req(nodes=12), states(64, 16, 32)) == 1
        # Nothing fits: fall back to the largest cluster.
        assert policy.route(req(nodes=100), states(64, 16, 32)) == 0

    def test_random_is_deterministic_per_seed_and_app(self):
        one = make_routing("random", seed=5)
        two = make_routing("random", seed=5)
        choices_one = [one.route(req(app_id=f"a{i}"), states(8, 8, 8)) for i in range(20)]
        choices_two = [two.route(req(app_id=f"a{i}"), states(8, 8, 8)) for i in range(20)]
        assert choices_one == choices_two
        assert len(set(choices_one)) > 1  # actually spreads
        other_seed = make_routing("random", seed=6)
        assert choices_one != [
            other_seed.route(req(app_id=f"a{i}"), states(8, 8, 8)) for i in range(20)
        ]

    def test_affinity_pins_follow_ups_to_home(self):
        policy = make_routing("affinity")
        first = policy.route(req(app_id="j1", nodes=2, group="u1"), states(8, 8))
        # Load the other cluster heavily; the group still goes home.
        loaded = states(8, 8, outstanding=[16, 0] if first == 0 else [0, 16])
        assert policy.route(req(app_id="j2", nodes=2, group="u1"), loaded) == first

    def test_affinity_rehomes_when_home_cannot_fit(self):
        policy = make_routing("affinity")
        assert policy.route(req(app_id="j1", nodes=2, group="u"), states(4, 64)) == 0
        assert policy.route(req(app_id="j2", nodes=32, group="u"), states(4, 64)) == 1
        # The group's home moved to the big cluster.
        assert policy.route(req(app_id="j3", nodes=2, group="u"), states(4, 64)) == 1

    def test_fresh_instances_per_lookup(self):
        one, two = make_routing("round-robin"), make_routing("round-robin")
        one.route(req(nodes=1), states(8, 8))
        assert two.route(req(nodes=1), states(8, 8)) == 0  # no leaked counter

    def test_unknown_routing(self):
        with pytest.raises(KeyError, match="unknown routing policy"):
            make_routing("warp")


class TestLocalityGroup:
    def test_deterministic_and_bounded(self):
        groups = {locality_group(f"job{i}") for i in range(100)}
        assert groups <= {f"group{g}" for g in range(8)}
        assert len(groups) > 1
        assert locality_group("job1") == locality_group("job1")

    def test_rejects_non_positive_group_count(self):
        with pytest.raises(ValueError):
            locality_group("j", groups=0)


def two_cluster_federation(routing="round-robin", nodes=(8, 8)):
    spec = FederationSpec(
        clusters=tuple(
            ClusterSpec(name=f"c{i}", nodes=n) for i, n in enumerate(nodes)
        ),
        routing=routing,
    )
    simulator = Simulator()
    return Federation(spec, simulator), simulator


class TestFederation:
    def test_rejects_unresolved_spec(self):
        spec = FederationSpec(clusters=(ClusterSpec(name="c"),))
        with pytest.raises(ValueError, match="derived sizes"):
            Federation(spec, Simulator())

    def test_members_own_isolated_rms_instances(self):
        fed, _sim = two_cluster_federation()
        assert [m.name for m in fed.members] == ["c0", "c1"]
        assert fed.total_nodes() == 16
        assert fed.members[0].rms is not fed.members[1].rms
        assert fed.members[0].platform.default_cluster_id() == "c0"

    def test_submit_repoints_cluster_id_and_connects(self):
        fed, sim = two_cluster_federation()
        apps = [RigidApplication(f"job{i}", node_count=2, duration=5.0) for i in range(4)]
        for app in apps:
            fed.submit(app, node_count=2)
        assert [a.cluster_id for a in apps] == ["c0", "c1", "c0", "c1"]
        sim.run()
        assert all(a.finished() for a in apps)
        assert fed.routed_counts() == {"c0": 2, "c1": 2}

    def test_per_cluster_policy_overrides_default(self):
        spec = FederationSpec(
            clusters=(
                ClusterSpec(name="a", nodes=8, policy="easy"),
                ClusterSpec(name="b", nodes=8),
            )
        )
        fed = Federation(spec, Simulator(), default_policy="sjf")
        assert fed.member("a").rms.policy.name == "easy"
        assert fed.member("b").rms.policy.name == "sjf"

    def test_member_lookup_error(self):
        fed, _sim = two_cluster_federation()
        with pytest.raises(KeyError, match="unknown federation member"):
            fed.member("nope")

    def test_outstanding_load_drains_as_apps_finish(self):
        fed, sim = two_cluster_federation(routing="least-loaded")
        first = RigidApplication("j1", node_count=4, duration=5.0)
        fed.submit(first, node_count=4)
        assert first.cluster_id == "c0"
        second = RigidApplication("j2", node_count=4, duration=5.0)
        fed.submit(second, node_count=4)
        assert second.cluster_id == "c1"  # c0 already committed
        sim.run()
        # Both finished; the next submission sees empty clusters again.
        third = RigidApplication("j3", node_count=4, duration=5.0)
        fed.submit(third, node_count=4)
        assert third.cluster_id == "c0"

    @pytest.mark.parametrize("routing", ROUTINGS.names())
    def test_every_routing_runs_a_small_workload(self, routing):
        fed, sim = two_cluster_federation(routing=routing, nodes=(8, 16))
        apps = [RigidApplication(f"job{i}", node_count=1 + i % 4, duration=10.0)
                for i in range(10)]
        for app in apps:
            fed.submit(app, node_count=app.node_count, group=locality_group(app.name))
        sim.run()
        assert all(a.finished() for a in apps)
        assert sum(fed.routed_counts().values()) == len(apps)
