"""Pluggable scheduling policies for the CooRMv2 reproduction.

The scheduler's behaviour decomposes into three orthogonal stages -- queue
ordering, backfilling and preemptible sharing -- and a
:class:`SchedulingPolicy` composes one implementation of each.  The paper's
Algorithm 4 is the default composition (``coorm``: FCFS + conservative
back-filling + equi-partitioning with filling); registered alternatives swap
individual stages (EASY backfilling, shortest-job-first or fair-share
ordering, weighted max-min sharing, ...).

Policies are referenced by name (or by an explicit stage mapping) from
:class:`~repro.campaign.spec.ScenarioSpec`, the ``--policies`` campaign
matrix and ``python -m repro policy list|describe``.
"""
from .base import (
    BackfillStrategy,
    OrderingStrategy,
    SchedulingContext,
    SharingStrategy,
)
from .backfill import ConservativeBackfill, EasyBackfill, EasyBackfillQueue
from .ordering import (
    FairShareOrdering,
    FcfsOrdering,
    LargestAreaFirstOrdering,
    ShortestJobFirstOrdering,
)
from .policy import SchedulingPolicy
from .registry import (
    BACKFILLS,
    DEFAULT_POLICY,
    ORDERINGS,
    POLICIES,
    SHARINGS,
    STRICT_POLICY,
    PolicyStages,
    get_policy,
    policy_label,
    resolve_policy,
)
from .sharing import (
    EquipartitionSharing,
    StrictEquipartitionSharing,
    WeightedMaxMinSharing,
)

__all__ = [
    # protocols
    "SchedulingContext",
    "OrderingStrategy",
    "BackfillStrategy",
    "SharingStrategy",
    # composition
    "SchedulingPolicy",
    # stage implementations
    "FcfsOrdering",
    "ShortestJobFirstOrdering",
    "LargestAreaFirstOrdering",
    "FairShareOrdering",
    "ConservativeBackfill",
    "EasyBackfill",
    "EasyBackfillQueue",
    "EquipartitionSharing",
    "StrictEquipartitionSharing",
    "WeightedMaxMinSharing",
    # registry
    "DEFAULT_POLICY",
    "STRICT_POLICY",
    "ORDERINGS",
    "BACKFILLS",
    "SHARINGS",
    "POLICIES",
    "PolicyStages",
    "get_policy",
    "resolve_policy",
    "policy_label",
]
