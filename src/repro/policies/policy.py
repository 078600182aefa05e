"""The :class:`SchedulingPolicy` composition object.

A policy is nothing more than one strategy per stage plus a name; the
scheduler calls the stages, never the policy registry, so custom policies
can be assembled programmatically and handed to
:class:`~repro.core.scheduler.Scheduler` or :class:`~repro.core.rms.CooRMv2`
without registering them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:
    from .base import BackfillStrategy, OrderingStrategy, SharingStrategy

__all__ = ["SchedulingPolicy"]


@dataclass(frozen=True)
class SchedulingPolicy:
    """One named composition of ordering, backfilling and sharing stages."""

    name: str
    ordering: OrderingStrategy
    backfill: BackfillStrategy
    sharing: SharingStrategy
    description: str = ""

    def stage_names(self) -> Dict[str, str]:
        """The registry names of the three composed stages."""
        return {
            "ordering": self.ordering.name,
            "backfill": self.backfill.name,
            "sharing": self.sharing.name,
        }

    def to_dict(self) -> Dict[str, str]:
        """JSON-friendly description (round-trips through ``resolve_policy``)."""
        out = {"name": self.name}
        out.update(self.stage_names())
        return out

    def describe(self) -> str:
        stages = self.stage_names()
        summary = " + ".join(f"{kind}={name}" for kind, name in stages.items())
        if self.description:
            return f"{self.name}: {self.description} ({summary})"
        return f"{self.name}: {summary}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stages = self.stage_names()
        return (
            f"SchedulingPolicy({self.name!r}, {stages['ordering']}/"
            f"{stages['backfill']}/{stages['sharing']})"
        )
