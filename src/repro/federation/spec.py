"""Declarative multi-cluster federation specifications.

A :class:`FederationSpec` describes a federation *topology* -- the named
member clusters with their capacities and per-cluster scheduling policies --
plus the request-routing policy of the meta-scheduler.  Like every other
spec in the campaign layer it is a plain frozen dataclass that round-trips
losslessly through dictionaries and JSON, so federated scenarios can be
written by hand, versioned next to their results, and replayed later.

The spec describes *what* to federate, never *how*: execution lives in
:mod:`repro.federation.federation`.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Tuple, Union

from ..core.errors import SpecError
from ..core.registry import Registry
from ..core.serde import Spec
from ..policies.registry import policy_label
from .routing import DEFAULT_ROUTING, ROUTINGS

__all__ = ["ClusterSpec", "FederationSpec", "TOPOLOGIES"]


@dataclass(frozen=True)
class ClusterSpec(Spec):
    """One member cluster of a federation.

    ``nodes == 0`` means "derive the size from the scenario's evolving
    application" exactly like ``PlatformSpec.cluster_nodes == 0`` does for
    the single-cluster path.  ``policy`` optionally gives this member its
    own scheduling policy (a registered name or stage mapping); ``None``
    inherits the scenario's policy.

    ``min_nodes``/``max_nodes`` bound how far elastic fault-plan rules may
    resize this member (0 = unbounded); fault crashes and outages ignore
    the bounds, as real failures would.
    """

    name: str
    nodes: int = 0
    policy: Optional[Union[str, Mapping]] = None
    min_nodes: int = 0
    max_nodes: int = 0

    def validate(self) -> None:
        if not (self.name and isinstance(self.name, str)):
            raise SpecError("cluster name must be a non-empty string")
        if self.nodes < 0:
            raise SpecError("cluster nodes must be >= 0 (0 = derive)")
        if self.min_nodes < 0 or self.max_nodes < 0:
            raise SpecError("elastic node bounds must be >= 0 (0 = unbounded)")
        if self.max_nodes and self.max_nodes < max(self.min_nodes, self.nodes):
            raise SpecError(
                f"cluster {self.name!r}: max_nodes ({self.max_nodes}) must "
                f"cover min_nodes and the base size"
            )
        if isinstance(self.policy, Mapping):
            object.__setattr__(self, "policy", dict(self.policy))
        if self.policy is not None:
            policy_label(self.policy)  # fail fast on unknown policies


@dataclass(frozen=True)
class FederationSpec(Spec):
    """A federation topology plus the meta-scheduler's routing policy."""

    clusters: Tuple[ClusterSpec, ...] = field(default_factory=tuple)
    routing: str = DEFAULT_ROUTING

    NESTED = {"clusters": [ClusterSpec]}

    def validate(self) -> None:
        if not self.clusters:
            raise SpecError("a federation needs at least one cluster")
        names = [c.name for c in self.clusters]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate cluster names in federation: {names}")
        ROUTINGS.get(self.routing)  # fail fast on unknown routing policies

    # ------------------------------------------------------------------ #
    @property
    def cluster_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.clusters)

    def total_nodes(self, default_nodes: int = 0) -> int:
        """Total capacity with derived (``nodes == 0``) members resolved."""
        return sum(c.nodes or default_nodes for c in self.clusters)

    def resolved(self, default_nodes: int) -> "FederationSpec":
        """This spec with every derived member size made concrete."""
        if default_nodes <= 0:
            raise ValueError("default_nodes must be positive")
        if all(c.nodes > 0 for c in self.clusters):
            return self
        return replace(
            self,
            clusters=tuple(
                c if c.nodes > 0 else replace(c, nodes=default_nodes)
                for c in self.clusters
            ),
        )

    def with_routing(self, routing: str) -> "FederationSpec":
        return replace(self, routing=routing)  # validate() checks the name

    def label(self) -> str:
        """Compact topology label for result records and reports."""
        inner = "+".join(
            f"{c.name}:{c.nodes if c.nodes else '*'}" for c in self.clusters
        )
        return f"{len(self.clusters)}x[{inner}]"


# --------------------------------------------------------------------- #
# Built-in topologies
# --------------------------------------------------------------------- #
#: Named federation topologies (for the CLI, the built-in scenarios and examples).
TOPOLOGIES = Registry("federation topology")

TOPOLOGIES.register(
    "single",
    FederationSpec(clusters=(ClusterSpec(name="cluster0"),)),
)
TOPOLOGIES.register(
    "dual",
    FederationSpec(
        clusters=(
            ClusterSpec(name="east", nodes=32),
            ClusterSpec(name="west", nodes=32),
        ),
        routing="round-robin",
    ),
)
TOPOLOGIES.register(
    "hetero3",
    FederationSpec(
        clusters=(
            ClusterSpec(name="small", nodes=16),
            ClusterSpec(name="medium", nodes=32),
            ClusterSpec(name="large", nodes=64),
        ),
        routing="least-loaded",
    ),
)
