"""Declarative fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a frozen, JSON round-trippable description of a
chaos experiment against a federation:

- :class:`FaultEvent` -- timed node **crashes** / **restarts** and
  whole-cluster **outages** / **recoveries**;
- :class:`ElasticRule` -- a utilization-triggered grow/shrink policy
  evaluated on a finite check grid (finite so the event queue drains and
  the simulation terminates);
- :class:`AdmissionSpec` -- per-member token-bucket throttling plus a
  circuit breaker for the meta-scheduler's admission control.

Members are referenced either by cluster name (``"east"``) or by
federation order (``"#1"``), which lets the built-in plans apply to any
topology.  Plans carry no randomness themselves; optional event jitter is
resolved by the injector from a derived seed, keeping replays
byte-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple, Union

from ..core.errors import SpecError
from ..core.registry import Registry
from ..core.serde import Spec

__all__ = [
    "FaultEvent",
    "ElasticRule",
    "AdmissionSpec",
    "FaultPlan",
    "FAULT_PLANS",
    "get_fault_plan",
    "resolve_fault_plan",
]

#: Event kinds that remove/restore a fixed number of nodes.
NODE_KINDS = ("crash", "restart")
#: Event kinds that take a whole member down / bring it back.
MEMBER_KINDS = ("outage", "recover")


@dataclass(frozen=True)
class FaultEvent(Spec):
    """One timed fault: a node crash/restart or a member outage/recovery."""

    time: float
    kind: str
    member: str
    nodes: int = 0

    def validate(self) -> None:
        # Written so that NaN fails it too: it compares False with everything.
        if not 0 <= self.time < math.inf:
            raise SpecError(f"fault event time must be >= 0 and finite, got {self.time}")
        if self.kind not in NODE_KINDS + MEMBER_KINDS:
            raise SpecError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{NODE_KINDS + MEMBER_KINDS}"
            )
        if not self.member:
            raise SpecError("fault event needs a member name or '#index'")
        if self.kind in NODE_KINDS and self.nodes <= 0:
            raise SpecError(f"{self.kind!r} needs a positive node count")
        if self.kind in MEMBER_KINDS and self.nodes != 0:
            raise SpecError(f"{self.kind!r} applies to the whole member; nodes must be 0")


@dataclass(frozen=True)
class ElasticRule(Spec):
    """Utilization-triggered capacity rule for one member.

    Every ``interval`` seconds from ``start`` until ``until`` (a *finite*
    grid -- an unbounded rule would keep the event queue non-empty and
    the simulation would never terminate), the member's utilization
    ``allocated / capacity`` is sampled: above ``high_util`` the member
    grows by ``grow_step`` nodes (capped at ``max_nodes``), below
    ``low_util`` it gently sheds up to ``shrink_step`` *free* nodes
    (floored at ``min_nodes``; running jobs are never killed by
    elasticity).
    """

    member: str
    interval: float
    until: float
    start: float = 0.0
    high_util: float = 0.85
    low_util: float = 0.25
    grow_step: int = 8
    shrink_step: int = 8
    min_nodes: int = 1
    max_nodes: int = 0  # 0 = unbounded

    def validate(self) -> None:
        if not self.member:
            raise SpecError("elastic rule needs a member name or '#index'")
        if not 0 < self.interval < math.inf:
            raise SpecError("elastic rule interval must be positive and finite")
        # A non-finite bound would make check_times() an endless grid.
        if not 0 <= self.start <= self.until < math.inf:
            raise SpecError("elastic rule needs 0 <= start <= until, finite")
        if not 0.0 <= self.low_util < self.high_util <= 1.0:
            raise SpecError("elastic rule needs 0 <= low_util < high_util <= 1")
        if self.grow_step < 0 or self.shrink_step < 0:
            raise SpecError("elastic grow/shrink steps must be >= 0")
        if self.min_nodes < 0 or self.max_nodes < 0:
            raise SpecError("elastic node bounds must be >= 0")
        if self.max_nodes and self.max_nodes < self.min_nodes:
            raise SpecError("elastic max_nodes must be >= min_nodes")

    def check_times(self) -> List[float]:
        """The finite grid of simulation times at which the rule fires."""
        times: List[float] = []
        k = 1
        while True:
            t = self.start + k * self.interval
            if t > self.until + 1e-9:
                return times
            times.append(t)
            k += 1


@dataclass(frozen=True)
class AdmissionSpec(Spec):
    """Meta-scheduler admission control parameters.

    ``rate``/``burst`` parameterize a per-member token bucket refilled in
    simulation time (``rate`` of 0 disables throttling); the circuit
    breaker trips after ``failure_threshold`` consecutive placement
    failures on a member and half-opens ``cooldown`` seconds later --
    one probe placement either closes it again or re-trips it.
    """

    rate: float = 0.0
    burst: int = 8
    failure_threshold: int = 3
    cooldown: float = 300.0

    def validate(self) -> None:
        if not 0 <= self.rate < math.inf:
            raise SpecError("admission rate must be >= 0 (0 = unthrottled) and finite")
        if not 0 < self.burst < math.inf:
            raise SpecError("admission burst must be positive and finite")
        if self.failure_threshold <= 0:
            raise SpecError("admission failure_threshold must be positive")
        if not 0 < self.cooldown < math.inf:
            raise SpecError("admission cooldown must be positive and finite")


@dataclass(frozen=True)
class FaultPlan(Spec):
    """A complete, serialisable chaos experiment description."""

    name: str
    events: Tuple[FaultEvent, ...] = ()
    elastic: Tuple[ElasticRule, ...] = ()
    admission: Optional[AdmissionSpec] = None
    #: Maximum seconds of deterministic per-event jitter (resolved by the
    #: injector from ``derive_seed(seed, "fault-jitter", i)``).
    jitter: float = 0.0
    #: How many times a job killed by a fault is resubmitted before it
    #: counts as lost.
    max_respawns: int = 1

    NESTED = {"events": [FaultEvent], "elastic": [ElasticRule], "admission": AdmissionSpec}

    def validate(self) -> None:
        if not (self.name and isinstance(self.name, str)):
            raise SpecError("a fault plan needs a name")
        if not 0 <= self.jitter < math.inf:
            raise SpecError("fault plan jitter must be >= 0 and finite")
        if self.max_respawns < 0:
            raise SpecError("fault plan max_respawns must be >= 0")

    def label(self) -> str:
        bits = [f"{len(self.events)} events"]
        if self.elastic:
            bits.append(f"{len(self.elastic)} elastic rules")
        if self.admission is not None:
            bits.append("admission control")
        return f"{self.name}: " + ", ".join(bits)


# --------------------------------------------------------------------- #
# Registry of built-in plans
# --------------------------------------------------------------------- #
#: Plan factories by name (``factory() -> FaultPlan``).
FAULT_PLANS = Registry("fault plan")


def get_fault_plan(name: str) -> FaultPlan:
    """Build the registered plan *name*, with a helpful error otherwise."""
    return FAULT_PLANS.get(name)()


def resolve_fault_plan(faults: Union[str, Mapping, FaultPlan]) -> FaultPlan:
    """Promote a registered name, a plan dict or a plan instance to a plan."""
    if isinstance(faults, FaultPlan):
        return faults
    if isinstance(faults, str):
        return get_fault_plan(faults)
    if isinstance(faults, Mapping):
        return FaultPlan.from_dict(faults)
    raise TypeError(
        f"faults must be a plan name, mapping or FaultPlan, got {type(faults).__name__}"
    )


def _flaky_nodes() -> FaultPlan:
    # Two staggered partial crashes with later restarts; members are
    # referenced by federation order so the plan fits any >= 2-member
    # topology.  Admission control reroutes around the unhealthy member
    # once its breaker trips.
    return FaultPlan(
        name="flaky-nodes",
        events=(
            FaultEvent(time=600.0, kind="crash", member="#1", nodes=24),
            FaultEvent(time=1200.0, kind="crash", member="#0", nodes=16),
            FaultEvent(time=1800.0, kind="restart", member="#1", nodes=24),
            FaultEvent(time=2400.0, kind="restart", member="#0", nodes=16),
        ),
        admission=AdmissionSpec(),
    )


def _blackout() -> FaultPlan:
    # One member disappears entirely for 25 sim-minutes; placements
    # reroute to the survivors, killed jobs respawn there.
    return FaultPlan(
        name="blackout",
        events=(
            FaultEvent(time=900.0, kind="outage", member="#1"),
            FaultEvent(time=2400.0, kind="recover", member="#1"),
        ),
        admission=AdmissionSpec(),
    )


def _elastic_tide() -> FaultPlan:
    # No faults at all: a pure elasticity experiment where the first
    # member tracks its own utilization for an hour of sim time.
    return FaultPlan(
        name="elastic-tide",
        elastic=(
            ElasticRule(
                member="#0", interval=300.0, until=3600.0,
                high_util=0.7, low_util=0.2,
                grow_step=8, shrink_step=8,
                min_nodes=8, max_nodes=96,
            ),
        ),
    )


FAULT_PLANS.register("flaky-nodes", _flaky_nodes)
FAULT_PLANS.register("blackout", _blackout)
FAULT_PLANS.register("elastic-tide", _elastic_tide)
