"""The federation: N cluster+scheduler pairs behind one meta-scheduler.

The paper's request/view protocol is deliberately layerable: an application
talks to *one* resource manager, and nothing in the protocol cares whether
that manager is the only one in the system.  The federation exploits exactly
that property -- it owns one :class:`~repro.core.rms.CooRMv2` per member
cluster (each with its own platform, capacity and scheduling policy), all
driven by **one shared discrete-event engine**, and a :class:`MetaScheduler`
that places every incoming application on one member through a pluggable
:class:`~repro.federation.routing.RoutingPolicy`.

Once placed, an application speaks the ordinary CooRMv2 protocol with its
home member; the federation never intercepts per-request traffic.  So it is
the one way ``run_scenario`` builds RMSs: a scenario that names no
federation runs on the one-member ``single`` topology (``cluster0`` under
the ``any`` routing), whose applications talk to its one RMS exactly as
they would to a lone scheduler.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..apps.base import BaseApplication
from ..cluster.platform import Platform
from ..core.errors import AdmissionError, RequestError
from ..core.registry import unknown_name
from ..core.rms import CooRMv2
from ..obs import hooks as _obs
from ..sim.engine import Simulator
from ..sim.randomness import derive_seed
from .routing import ClusterState, RoutingPolicy, RoutingRequest, make_routing
from .spec import FederationSpec

__all__ = [
    "FederationMember",
    "RoutingDecision",
    "MetaScheduler",
    "Federation",
    "locality_group",
]


def locality_group(job_id: str, groups: int = 8) -> str:
    """Deterministic affinity group of a trace job.

    Archived rigid traces carry no application identity beyond the job id,
    so locality-aware routing hashes every job into one of *groups* stable
    "application families" (think: the same user's jobs sharing input data
    on their home cluster).  The hash goes through ``derive_seed`` so the
    grouping is identical across processes and worker counts.
    """
    if groups <= 0:
        raise ValueError("groups must be positive")
    return f"group{derive_seed(0, 'locality-group', job_id) % groups}"


@dataclass
class FederationMember:
    """One cluster+scheduler pair owned by the federation."""

    name: str
    index: int
    platform: Platform
    rms: CooRMv2
    #: Whether the whole member is currently blacked out (fault injection).
    #: Down members keep their routing-snapshot slot -- policies index the
    #: member list positionally -- but placements are rerouted around them.
    down: bool = False

    @property
    def capacity(self) -> int:
        return self.platform.total_nodes()

    def free_nodes(self) -> int:
        return self.platform.cluster(self.name).free_count()


@dataclass(frozen=True)
class RoutingDecision:
    """One placement the meta-scheduler made (kept for analysis/tests)."""

    app_id: str
    cluster: str
    group: str
    node_count: int
    time: float


class MetaScheduler:
    """Places incoming applications on federation members.

    The meta-scheduler owns the routing policy instance (fresh per
    federation, so policy state like round-robin counters never leaks
    between runs) and the bookkeeping the policy's decisions are based on:
    which applications were routed where and how many of them are still
    unfinished.
    """

    def __init__(
        self,
        members: List[FederationMember],
        routing: RoutingPolicy,
    ):
        if not members:
            raise ValueError("a meta-scheduler needs at least one member")
        self.members = members
        self.routing = routing
        #: Admission controller installed by a fault injector; ``None``
        #: (the default) keeps placement on the historical fast path, so
        #: fault-free federations behave byte-identically to before.
        self.admission = None
        self.decisions: List[RoutingDecision] = []
        #: Per member: (application, node-count hint) of everything routed
        #: there; finished applications are filtered lazily on snapshot.
        self._routed: Dict[str, List[Tuple[BaseApplication, int]]] = {
            m.name: [] for m in members
        }
        #: Running per-member decision totals: the ``federation/load``
        #: counter events and :meth:`routed_counts` (``decisions`` is O(n)
        #: to scan).
        self._routed_totals: Dict[str, int] = {m.name: 0 for m in members}

    # ------------------------------------------------------------------ #
    def _snapshot(self) -> List[ClusterState]:
        states: List[ClusterState] = []
        for member in self.members:
            live = [
                (app, hint)
                for app, hint in self._routed[member.name]
                if not app.finished() and not app.killed
            ]
            self._routed[member.name] = live
            states.append(
                ClusterState(
                    name=member.name,
                    index=member.index,
                    capacity=member.capacity,
                    free_nodes=member.free_nodes(),
                    outstanding_nodes=sum(hint for _app, hint in live),
                    outstanding_apps=len(live),
                )
            )
        return states

    def place(
        self,
        app_id: str,
        node_count: int = 0,
        group: Optional[str] = None,
        now: float = 0.0,
    ) -> FederationMember:
        """Choose a member for an incoming application and log the decision.

        Placement is split from :meth:`register` so callers can build the
        application *after* the decision -- trace replays size their
        applications to the member they land on.
        """
        request = RoutingRequest(
            app_id=app_id,
            node_count=max(0, int(node_count)),
            group=group or "",
            submit_time=now,
        )
        index = self.routing.route(request, self._snapshot())
        if not 0 <= index < len(self.members):
            raise ValueError(
                f"routing policy {self.routing.name!r} returned member index "
                f"{index} for {len(self.members)} members"
            )
        member = self.members[index]
        if self.admission is not None or any(m.down for m in self.members):
            member = self._admit(member, request, now)
        decision = RoutingDecision(
            app_id=app_id,
            cluster=member.name,
            group=request.affinity_group(),
            node_count=request.node_count,
            time=now,
        )
        self.decisions.append(decision)
        self._routed_totals[member.name] += 1
        tracer = _obs.TRACER[0]
        if tracer is not None:
            tracer.emit(
                now,
                "federation",
                "route",
                {
                    "app": app_id,
                    "cluster": member.name,
                    "routing": self.routing.name,
                    "group": decision.group,
                    "node_count": decision.node_count,
                },
            )
            tracer.counter(
                now,
                "federation",
                "load",
                {
                    name: float(total)
                    for name, total in sorted(self._routed_totals.items())
                },
            )
        metrics = _obs.METRICS[0]
        if metrics is not None:
            metrics.inc("federation.routing_decisions")
            metrics.inc(f"federation.routed[{member.name}]")
        if self.admission is not None:
            self.admission.record_success(member.name)
        return member

    def _admit(self, routed: FederationMember, request: RoutingRequest, now: float) -> FederationMember:
        """Fault-aware placement filter applied *after* routing.

        Routing policies must see the full, positionally-stable member
        list (affinity caches global indices), so down members are never
        filtered from their snapshot; instead the chosen member is
        vetted here.  Candidates are walked deterministically -- the
        routed member first, then members that fit the request in
        federation order, then the rest -- and the first member that is
        up and admitted by the admission controller wins.  Raises
        :class:`AdmissionError` when no member qualifies.
        """
        rest = [m for m in self.members if m is not routed]
        fitting = [m for m in rest if request.node_count <= m.capacity]
        candidates = [routed] + fitting + [m for m in rest if m not in fitting]
        denied: List[Tuple[str, str]] = []
        for member in candidates:
            if member.down:
                denied.append((member.name, "down"))
                continue
            if self.admission is not None:
                admitted, why = self.admission.admit(member.name, now)
                if not admitted:
                    denied.append((member.name, why or "rejected"))
                    continue
            if member is not routed:
                tracer = _obs.TRACER[0]
                if tracer is not None:
                    tracer.emit(
                        now,
                        "federation",
                        "reroute",
                        {
                            "app": request.app_id,
                            "from": routed.name,
                            "to": member.name,
                            "denied": [list(d) for d in denied],
                        },
                    )
                metrics = _obs.METRICS[0]
                if metrics is not None:
                    metrics.inc("federation.reroutes")
            return member
        raise AdmissionError(
            f"no federation member admitted {request.app_id!r}: "
            + ", ".join(f"{name} ({why})" for name, why in denied)
        )

    def register(
        self,
        member: FederationMember,
        application: BaseApplication,
        node_count: int = 0,
    ) -> None:
        """Count *application* towards *member*'s outstanding load."""
        self._routed[member.name].append((application, max(0, int(node_count))))

    def routed_counts(self) -> Dict[str, int]:
        """Member name -> number of applications ever routed there."""
        return dict(self._routed_totals)


class Federation:
    """N named cluster+scheduler pairs sharing one event engine.

    Parameters
    ----------
    spec:
        The (fully resolved -- no derived sizes) federation topology and
        routing policy.  Use :meth:`FederationSpec.resolved` first when the
        spec contains ``nodes == 0`` members.
    simulator:
        The shared discrete-event engine every member RMS is driven by.
    rescheduling_interval, kill_protocol_violators, violation_grace:
        Forwarded to every member RMS (one administration domain).
    default_policy:
        Scheduling policy of members whose :class:`ClusterSpec` does not
        pin one (a registered name, stage mapping or policy object).
    seed:
        Root seed of the routing policy's randomness; the routing stream is
        derived (``derive_seed(seed, "routing")``) so it never correlates
        with the workload drawn from the same scenario seed.
    """

    def __init__(
        self,
        spec: FederationSpec,
        simulator: Simulator,
        rescheduling_interval: float = 1.0,
        default_policy=None,
        kill_protocol_violators: bool = False,
        violation_grace: float = 30.0,
        seed: Optional[int] = None,
    ):
        unresolved = [c.name for c in spec.clusters if c.nodes <= 0]
        if unresolved:
            raise ValueError(
                f"federation members {unresolved} have derived sizes; call "
                f"FederationSpec.resolved(default_nodes) before building"
            )
        self.spec = spec
        self.simulator = simulator
        self.members: List[FederationMember] = []
        for index, cluster in enumerate(spec.clusters):
            platform = Platform.single_cluster(cluster.nodes, cluster_id=cluster.name)
            rms = CooRMv2(
                platform,
                simulator,
                rescheduling_interval=rescheduling_interval,
                kill_protocol_violators=kill_protocol_violators,
                violation_grace=violation_grace,
                policy=cluster.policy if cluster.policy is not None else default_policy,
            )
            self.members.append(
                FederationMember(name=cluster.name, index=index, platform=platform, rms=rms)
            )
        self.meta = MetaScheduler(
            self.members, make_routing(spec.routing, seed=derive_seed(seed, "routing"))
        )

    # ------------------------------------------------------------------ #
    def member(self, name: str) -> FederationMember:
        for member in self.members:
            if member.name == name:
                return member
        raise unknown_name("federation member", name, [m.name for m in self.members])

    def total_nodes(self) -> int:
        return sum(m.capacity for m in self.members)

    def rms_list(self) -> List[CooRMv2]:
        """Member RMSs in federation order (for aggregated metrics)."""
        return [m.rms for m in self.members]

    # ------------------------------------------------------------------ #
    def submit(
        self,
        application: BaseApplication,
        node_count: int = 0,
        group: Optional[str] = None,
    ) -> FederationMember:
        """Route *application* to a member and connect it there."""
        member = self.place(application.name, node_count=node_count, group=group)
        self.attach(member, application, node_count=node_count)
        return member

    def place(
        self,
        app_id: str,
        node_count: int = 0,
        group: Optional[str] = None,
        reshapes: bool = False,
    ) -> FederationMember:
        """Choose *app_id*'s home member now (load-aware routing sees the
        federation as it is at submission time, not at build time).

        A declared *node_count* larger than the chosen member is rejected up
        front, unless the application *reshapes* to the member it lands on
        (a converted trace job): routing policies prefer members that fit,
        so **no** member can ever hold it -- a topology misconfiguration,
        the analogue of an oversized request to a single scheduler.
        """
        member = self.meta.place(
            app_id, node_count=node_count, group=group, now=self.simulator.now
        )
        if node_count > member.capacity and not reshapes:
            raise RequestError(
                f"application {app_id!r} needs {node_count} nodes "
                f"but was routed to member {member.name!r} "
                f"({member.capacity} nodes); no cluster of the federation "
                f"{[f'{m.name}:{m.capacity}' for m in self.members]} fits it"
            )
        return member

    def attach(
        self,
        member: FederationMember,
        application: BaseApplication,
        node_count: int = 0,
    ) -> None:
        """Connect an already-placed application to its home member, its
        ``cluster_id`` re-pointed at the member's cluster first."""
        self.meta.register(member, application, node_count=node_count)
        application.cluster_id = member.platform.default_cluster_id()
        application.connect(member.rms)

    def routed_counts(self) -> Dict[str, int]:
        return self.meta.routed_counts()

    def __repr__(self) -> str:
        inner = ", ".join(f"{m.name}={m.capacity}" for m in self.members)
        return f"Federation({inner}; routing={self.spec.routing!r})"
