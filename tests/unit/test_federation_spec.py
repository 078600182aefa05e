"""Unit tests of ClusterSpec / FederationSpec and the topology registry."""
from __future__ import annotations

import pytest

from repro.federation import ROUTINGS, TOPOLOGIES, ClusterSpec, FederationSpec


class TestClusterSpec:
    def test_defaults_derive_size_and_inherit_policy(self):
        spec = ClusterSpec(name="c")
        assert spec.nodes == 0
        assert spec.policy is None

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="name"):
            ClusterSpec(name="")

    def test_rejects_negative_nodes(self):
        with pytest.raises(ValueError, match="nodes"):
            ClusterSpec(name="c", nodes=-1)

    def test_rejects_unknown_policy(self):
        with pytest.raises(KeyError, match="unknown scheduling policy"):
            ClusterSpec(name="c", policy="not-a-policy")

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="does not understand"):
            ClusterSpec.from_dict({"name": "c", "cores": 8})


class TestFederationSpec:
    def test_promotes_cluster_dicts(self):
        spec = FederationSpec(clusters=({"name": "a", "nodes": 8},))
        assert spec.clusters[0] == ClusterSpec(name="a", nodes=8)

    def test_rejects_empty_federation(self):
        with pytest.raises(ValueError, match="at least one cluster"):
            FederationSpec(clusters=())

    def test_rejects_duplicate_cluster_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            FederationSpec(
                clusters=(ClusterSpec(name="a", nodes=8), ClusterSpec(name="a", nodes=8))
            )

    def test_rejects_unknown_routing(self):
        with pytest.raises(KeyError, match="unknown routing policy"):
            FederationSpec(clusters=(ClusterSpec(name="a"),), routing="teleport")

    def test_resolved_fills_derived_sizes_only(self):
        spec = FederationSpec(
            clusters=(ClusterSpec(name="a"), ClusterSpec(name="b", nodes=48))
        )
        resolved = spec.resolved(16)
        assert [c.nodes for c in resolved.clusters] == [16, 48]
        assert resolved.total_nodes() == 64
        # Fully concrete specs come back unchanged (same object).
        assert resolved.resolved(99) is resolved

    def test_with_routing_validates(self):
        spec = FederationSpec(clusters=(ClusterSpec(name="a"),))
        assert spec.with_routing("round-robin").routing == "round-robin"
        with pytest.raises(KeyError):
            spec.with_routing("nope")

    def test_label(self):
        spec = FederationSpec(
            clusters=(ClusterSpec(name="a", nodes=16), ClusterSpec(name="b"))
        )
        assert spec.label() == "2x[a:16+b:*]"


class TestTopologyRegistry:
    def test_builtin_topologies_exist(self):
        assert {"single", "dual", "hetero3"} <= set(TOPOLOGIES.names())

    def test_get_topology(self):
        assert TOPOLOGIES.get("single").cluster_names == ("cluster0",)
        assert TOPOLOGIES.get("hetero3").routing == "least-loaded"

    def test_unknown_topology(self):
        with pytest.raises(KeyError, match="unknown federation topology"):
            TOPOLOGIES.get("ring")

    def test_every_builtin_routing_is_registered(self):
        for name in TOPOLOGIES.names():
            assert TOPOLOGIES.get(name).routing in ROUTINGS
