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
from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".base": ("SchedulingContext", "OrderingStrategy", "BackfillStrategy", "SharingStrategy"),
        ".policy": ("SchedulingPolicy",),
        ".ordering": (
            "FcfsOrdering", "ShortestJobFirstOrdering", "LargestAreaFirstOrdering",
            "FairShareOrdering",
        ),
        ".backfill": ("ConservativeBackfill", "EasyBackfill", "EasyBackfillQueue"),
        ".sharing": (
            "EquipartitionSharing", "StrictEquipartitionSharing", "WeightedMaxMinSharing",
        ),
        ".registry": (
            "DEFAULT_POLICY", "STRICT_POLICY", "ORDERINGS", "BACKFILLS", "SHARINGS", "POLICIES",
            "PolicyStages", "get_policy", "resolve_policy", "policy_label",
        ),
    },
)
