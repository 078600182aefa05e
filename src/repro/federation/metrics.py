"""Federated metric collection: aggregates plus per-cluster breakdowns.

The headline :class:`~repro.metrics.collector.SimulationMetrics` of a
federated run aggregate over every member (capacity is the combined node
count, allocations of all members count) via
:meth:`SimulationMetrics.collect_multi` -- for a 1-cluster federation this
is *exactly* the single-scheduler arithmetic, which the golden regression
suite pins byte-for-byte.

On top of the aggregate, :func:`federation_breakdown` computes the
per-cluster columns the result store persists: how many applications the
meta-scheduler routed to each member, each member's allocated node-seconds
inside the measurement window, and its utilisation relative to its own
capacity.  Keys are flat (``fed_util_pct[name]``-style) so they ride along
with every other metric through the campaign layer's medians and reports.
"""
from __future__ import annotations

from typing import Dict, Optional

from ..apps.nea import AmrApplication
from ..core.types import RequestType
from ..metrics.collector import (
    SimulationMetrics,
    clip_node_seconds,
    measurement_window_start,
)
from .federation import Federation

__all__ = ["collect_federated", "federation_breakdown"]


def collect_federated(federation: Federation, amr=None, psas=(), horizon=None):
    """:meth:`SimulationMetrics.collect_multi` over every member (the name
    the perf ledger's ``metrics.collect_federated`` span wraps)."""
    return SimulationMetrics.collect_multi(federation.rms_list(), amr, psas, horizon)


def federation_breakdown(
    federation: Federation,
    metrics: SimulationMetrics,
    amr: Optional[AmrApplication] = None,
) -> Dict[str, float]:
    """Flat per-cluster metric columns of one federated run.

    Uses the same measurement window as *metrics* (the aggregate collected
    from this federation -- shared helpers on the collector define both), so
    per-cluster allocations sum to the aggregate's
    ``total_allocated_node_seconds``.
    """
    window_start = measurement_window_start(amr)
    horizon = metrics.horizon
    window_end = window_start + horizon

    routed = federation.routed_counts()
    breakdown: Dict[str, float] = {
        "fed_clusters": float(len(federation.members)),
        "fed_total_nodes": float(federation.total_nodes()),
    }
    for member in federation.members:
        allocated = sum(
            clip_node_seconds(rec, window_start, window_end)
            for rec in member.rms.accountant.records
            if rec.rtype is not RequestType.PREALLOCATION
        )
        member_capacity = member.capacity * horizon
        name = member.name
        breakdown[f"fed_nodes[{name}]"] = float(member.capacity)
        breakdown[f"fed_routed[{name}]"] = float(routed[name])
        breakdown[f"fed_alloc_node_seconds[{name}]"] = allocated
        breakdown[f"fed_util_pct[{name}]"] = (
            100.0 * allocated / member_capacity if member_capacity > 0 else 0.0
        )
    return breakdown
