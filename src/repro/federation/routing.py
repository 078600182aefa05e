"""Pluggable request-routing policies of the federation meta-scheduler.

Routing policies are registered by name in :data:`ROUTINGS` (a
:class:`~repro.core.registry.Registry` of ``factory(seed) -> policy``) so
federation specs and campaign files stay serialisable -- a JSON spec only
ever references a routing policy by its name -- and :func:`make_routing`
constructs a *fresh* instance per call, so two meta-schedulers never share
routing state (round-robin counters, affinity homes) even when they run the
same named policy.

A routing policy answers exactly one question: *which member cluster of the
federation should this incoming application land on?*  It sees a
:class:`RoutingRequest` (who is asking, how many nodes, which affinity
group) and one :class:`ClusterState` snapshot per member, and returns the
index of the chosen member.  Everything stateful about a decision -- what is
outstanding where -- is computed by the meta-scheduler and handed in through
the snapshots, so policies stay small and deterministic.

Determinism contract: given the same seed and the same submission sequence,
every policy must produce the same assignment sequence regardless of
process, worker count or wall clock.  The ``random`` policy therefore draws
per-decision from :func:`~repro.sim.randomness.derive_seed` instead of
consuming a shared stream.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..core.registry import Registry
from ..sim.randomness import MAX_DERIVED_SEED, derive_seed

__all__ = [
    "DEFAULT_ROUTING",
    "RoutingRequest",
    "ClusterState",
    "RoutingPolicy",
    "ROUTINGS",
    "make_routing",
]

#: The routing every federation uses unless told otherwise: first cluster
#: that fits.  On a 1-cluster federation this is the identity routing, the
#: one the implicit ``single`` topology of an unfederated scenario runs.
DEFAULT_ROUTING = "any"


@dataclass(frozen=True)
class RoutingRequest:
    """What the meta-scheduler knows about an incoming application."""

    #: RMS application id of the incoming application.
    app_id: str
    #: Node count the application is expected to occupy (its pre-allocation,
    #: rigid size or declared peak); 0 when unknown (fully elastic apps).
    node_count: int = 0
    #: Affinity key: follow-up submissions with the same group are pinned to
    #: the group's home cluster by the ``affinity`` policy.  Defaults to the
    #: application id (every application is its own group).
    group: str = ""
    #: Simulated submission time.
    submit_time: float = 0.0

    def affinity_group(self) -> str:
        return self.group or self.app_id


@dataclass(frozen=True)
class ClusterState:
    """Immutable snapshot of one federation member at decision time."""

    #: Member (and cluster) name.
    name: str
    #: Position in the federation spec (ties break towards lower indices).
    index: int
    #: Total node count of the member cluster.
    capacity: int
    #: Nodes not currently bound to any request.
    free_nodes: int
    #: Sum of the node-count hints of applications routed here that have not
    #: finished yet (queued *and* running work the meta-scheduler committed).
    outstanding_nodes: int
    #: Number of unfinished applications routed here.
    outstanding_apps: int

    @property
    def load(self) -> float:
        """Committed work relative to capacity (the least-loaded criterion)."""
        return self.outstanding_nodes / self.capacity if self.capacity else float("inf")

    def fits(self, node_count: int) -> bool:
        return node_count <= self.capacity


class RoutingPolicy:
    """Base class: pick one member index for an incoming application."""

    #: Registry name (set by the concrete classes).
    name = "routing"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def route(self, request: RoutingRequest, clusters: Sequence[ClusterState]) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seed={self.seed})"


def _first_fitting(request: RoutingRequest, clusters: Sequence[ClusterState]) -> int:
    """Index of the first cluster that can ever hold the request (else 0)."""
    for state in clusters:
        if state.fits(request.node_count):
            return state.index
    return 0


class AnyRouting(RoutingPolicy):
    """First cluster that fits the request, in federation order.

    The identity routing: on a 1-cluster federation every application lands
    on the single member, as it does on the implicit ``single`` topology of
    a scenario that names no federation.
    """

    name = "any"

    def route(self, request: RoutingRequest, clusters: Sequence[ClusterState]) -> int:
        return _first_fitting(request, clusters)


class RoundRobinRouting(RoutingPolicy):
    """Clusters take turns in federation order, skipping ones that never fit."""

    name = "round-robin"

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._next = 0

    def route(self, request: RoutingRequest, clusters: Sequence[ClusterState]) -> int:
        n = len(clusters)
        for offset in range(n):
            state = clusters[(self._next + offset) % n]
            if state.fits(request.node_count):
                self._next = (state.index + 1) % n
                return state.index
        self._next = (self._next + 1) % n
        return 0


class LeastLoadedRouting(RoutingPolicy):
    """Cluster with the least committed work relative to its capacity.

    Load counts the node-count hints of every unfinished application the
    meta-scheduler routed to a member -- queued and running alike -- so a
    backlog is visible even before any of it starts.  Ties break towards
    the earlier cluster in the federation spec.
    """

    name = "least-loaded"

    def route(self, request: RoutingRequest, clusters: Sequence[ClusterState]) -> int:
        fitting = [s for s in clusters if s.fits(request.node_count)] or list(clusters)
        return min(fitting, key=lambda s: (s.load, s.index)).index


class BestFitCapacityRouting(RoutingPolicy):
    """Smallest cluster whose total capacity fits the request.

    Packs small requests onto small clusters so the big ones stay free for
    requests nothing else can hold; requests no cluster fits fall back to
    the largest cluster (where clamping loses the least).
    """

    name = "best-fit"

    def route(self, request: RoutingRequest, clusters: Sequence[ClusterState]) -> int:
        fitting = [s for s in clusters if s.fits(request.node_count)]
        if fitting:
            return min(fitting, key=lambda s: (s.capacity, s.index)).index
        return max(clusters, key=lambda s: (s.capacity, -s.index)).index


class RandomRouting(RoutingPolicy):
    """Seeded uniform choice among the clusters that fit the request.

    Each decision hashes ``(seed, app_id)`` through ``derive_seed``, so the
    assignment of one application never depends on how many applications
    were routed before it -- the whole sequence is reproducible from the
    federation seed alone, independent of worker count or arrival order.
    """

    name = "random"

    def route(self, request: RoutingRequest, clusters: Sequence[ClusterState]) -> int:
        fitting = [s for s in clusters if s.fits(request.node_count)] or list(clusters)
        draw = derive_seed(self.seed, "route", request.app_id) / MAX_DERIVED_SEED
        return fitting[int(draw * len(fitting)) % len(fitting)].index


class AffinityRouting(RoutingPolicy):
    """Pin every affinity group to a home cluster (locality routing).

    The first submission of a group picks the least-loaded fitting cluster
    and that choice becomes the group's *home*; every follow-up submission
    of the same group lands on the home cluster, even when another member
    is momentarily idler -- locality (shared input data, a warmed cache, a
    user's allocation) beats balance.  A follow-up that cannot ever fit on
    the home cluster is re-routed (and re-homed) least-loaded.
    """

    name = "affinity"

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._homes: Dict[str, int] = {}
        self._fallback = LeastLoadedRouting(seed)

    def route(self, request: RoutingRequest, clusters: Sequence[ClusterState]) -> int:
        group = request.affinity_group()
        home = self._homes.get(group)
        if home is not None and clusters[home].fits(request.node_count):
            return home
        choice = self._fallback.route(request, clusters)
        self._homes[group] = choice
        return choice


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
#: Routing-policy factories by name (``factory(seed) -> policy``).
ROUTINGS = Registry("routing policy")


def make_routing(name: str, seed: Optional[int] = None) -> RoutingPolicy:
    """Build a fresh routing policy for a registered name."""
    return ROUTINGS.get(name)(0 if seed is None else int(seed))


for _cls in (
    AnyRouting,
    RoundRobinRouting,
    LeastLoadedRouting,
    BestFitCapacityRouting,
    RandomRouting,
    AffinityRouting,
):
    ROUTINGS.register(_cls.name, _cls)
