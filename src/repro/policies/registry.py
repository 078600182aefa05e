"""Named registries of policy stages and their compositions.

Stages and policies live in four :class:`~repro.core.registry.Registry`
tables so that scenario specs and campaign files stay serialisable -- a JSON
spec only ever references policies by name (or by a ``{"ordering": ...,
"backfill": ..., "sharing": ...}`` stage mapping).  Adding one is
``ORDERINGS.register(name, factory)`` or ``POLICIES.register(name,
PolicyStages(name=name, ...), description)``.

Every lookup constructs *fresh* strategy instances, so two schedulers never
share stage state even when they run the same named policy.  The built-in
stages are imported at their table's first lookup: a process that names a
policy in a spec, without building it, never compiles them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from ..core.registry import Registry
from ..core.serde import from_strict_dict
from .policy import SchedulingPolicy

__all__ = [
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

#: The composition that reproduces the paper's Algorithm 4 exactly.
DEFAULT_POLICY = "coorm"
#: The Figure 11 baseline (Algorithm 4 with strict equi-partitioning).
STRICT_POLICY = "coorm-strict"



def _orderings() -> None:
    from . import ordering

    ORDERINGS.register("fcfs", ordering.FcfsOrdering)
    ORDERINGS.register("sjf", ordering.ShortestJobFirstOrdering)
    ORDERINGS.register("largest-area", ordering.LargestAreaFirstOrdering)
    ORDERINGS.register("fair-share", ordering.FairShareOrdering)


def _backfills() -> None:
    from . import backfill

    BACKFILLS.register("conservative", backfill.ConservativeBackfill)
    BACKFILLS.register("easy", backfill.EasyBackfill)


def _sharings() -> None:
    from . import sharing

    SHARINGS.register("eq-filling", sharing.EquipartitionSharing)
    SHARINGS.register("strict-eq", sharing.StrictEquipartitionSharing)
    SHARINGS.register("maxmin-weighted", sharing.WeightedMaxMinSharing)


#: Stage factories by name (``factory() -> strategy``).
ORDERINGS = Registry("ordering strategy", load=_orderings)
BACKFILLS = Registry("backfill strategy", load=_backfills)
SHARINGS = Registry("sharing strategy", load=_sharings)
#: Policy name -> :class:`PolicyStages` (registered with its description).
POLICIES = Registry("scheduling policy")

PolicyLike = Union[None, str, Mapping, SchedulingPolicy]


@dataclass(frozen=True)
class PolicyStages:
    """A policy spelled as stage names: what :data:`POLICIES` holds and what
    a spec's stage mapping says (every stage defaults to the paper's)."""

    ordering: str = "fcfs"
    backfill: str = "conservative"
    sharing: str = "eq-filling"
    name: str = "custom"
    description: str = ""

    def build(self) -> SchedulingPolicy:
        return SchedulingPolicy(
            name=str(self.name),
            ordering=ORDERINGS.get(self.ordering)(),
            backfill=BACKFILLS.get(self.backfill)(),
            sharing=SHARINGS.get(self.sharing)(),
            description=str(self.description),
        )


def get_policy(name: str) -> SchedulingPolicy:
    """Build a fresh :class:`SchedulingPolicy` for a registered name."""
    return POLICIES.get(name).build()


def resolve_policy(spec: PolicyLike) -> SchedulingPolicy:
    """Turn a policy reference into a :class:`SchedulingPolicy` instance.

    Accepts ``None`` (the default policy), a registered policy name, an
    explicit stage mapping (``{"ordering": ..., "backfill": ...,
    "sharing": ...}``, each stage optional and defaulting to the paper's)
    or an already-built policy object.
    """
    if spec is None:
        return get_policy(DEFAULT_POLICY)
    if isinstance(spec, SchedulingPolicy):
        return spec
    if isinstance(spec, str):
        return get_policy(spec)
    if isinstance(spec, Mapping):
        return from_strict_dict(PolicyStages, spec).build()
    raise TypeError(f"cannot resolve a scheduling policy from {spec!r}")


def policy_label(spec: PolicyLike) -> str:
    """The display/record name of a policy reference (without building stages
    when a plain registered name is given)."""
    if spec is None:
        return DEFAULT_POLICY
    if isinstance(spec, str):
        POLICIES.get(spec)  # validate
        return spec
    return resolve_policy(spec).name


# --------------------------------------------------------------------- #
# Built-in policies
# --------------------------------------------------------------------- #
for _stages in (
    PolicyStages(
        name=DEFAULT_POLICY,
        description="The paper's Algorithm 4: conservative back-filling of the "
        "pre-allocations in connection order + equi-partitioning with filling",
    ),
    PolicyStages(
        name=STRICT_POLICY,
        sharing="strict-eq",
        description="Algorithm 4 with the strict equi-partitioning baseline of "
        "Figure 11 (no filling of idle preemptible resources)",
    ),
    PolicyStages(
        name="easy",
        backfill="easy",
        description="EASY aggressive backfilling: only the queue head holds a "
        "reservation, everything else backfills or waits",
    ),
    PolicyStages(
        name="sjf",
        ordering="sjf",
        description="Shortest-job-first queue ordering with conservative "
        "back-filling",
    ),
    PolicyStages(
        name="largest-area",
        ordering="largest-area",
        description="Largest-area-first queue ordering: big jobs reserve early, "
        "small jobs backfill around them",
    ),
    PolicyStages(
        name="fair-share",
        ordering="fair-share",
        description="Fair-share queue ordering by accumulated node-seconds from "
        "the accountant: light consumers are served first",
    ),
    PolicyStages(
        name="maxmin-weighted",
        sharing="maxmin-weighted",
        description="Algorithm 4 ordering/backfilling with weighted max-min "
        "fair sharing of the preemptible capacity",
    ),
):
    POLICIES.register(_stages.name, _stages, _stages.description)
