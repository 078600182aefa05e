"""Metrics extracted from a finished simulation.

The evaluation section of the paper reports three families of quantities:

* **AMR used resources** -- node-seconds effectively allocated to the evolving
  application (Figure 9);
* **PSA waste** -- node-seconds of killed parameter-sweep tasks (Figures 9
  and 10), also expressed as a percentage of the platform capacity;
* **percent of used resources** -- node-seconds allocated to applications
  minus the PSA waste, as a fraction of the total node-seconds offered by the
  platform over the measurement horizon (Figures 10 and 11).

:class:`SimulationMetrics` computes all of them from the RMS's event log
(its ``RequestFinished`` records) and the application objects, so every
experiment and benchmark shares one definition of every metric.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..apps.nea import AmrApplication
from ..apps.psa import ParameterSweepApplication
from ..core.events import RequestFinished
from ..core.rms import CooRMv2
from ..core.types import NON_PREEMPTIBLE, PREALLOCATION

__all__ = [
    "SimulationMetrics",
    "allocations",
    "clip_node_seconds",
    "measurement_window_start",
    "median_summary",
]


def measurement_window_start(amr: Optional[AmrApplication]) -> float:
    """Start of the measurement window: the AMR's first allocation, else 0.

    One definition shared by :meth:`SimulationMetrics.collect_multi` and the
    per-cluster federation breakdown, so both always measure the same window.
    """
    if amr is not None and not math.isnan(amr.computation_started_at):
        return amr.computation_started_at
    return 0.0


def allocations(rms: CooRMv2) -> List[RequestFinished]:
    """The finished requests of *rms* that held nodes, in the order it logged
    them: its started ``RequestFinished`` records other than pre-allocations."""
    return [
        rec for rec in rms.event_log
        if type(rec) is RequestFinished and rec.started and rec.rtype != PREALLOCATION.value
    ]


def clip_node_seconds(record: RequestFinished, window_start: float, window_end: float) -> float:
    """Node-seconds of one finished request inside the window."""
    overlap = min(record.time, window_end) - max(record.started_at, window_start)
    return record.nodes * max(0.0, overlap)


@dataclass
class SimulationMetrics:
    """All headline metrics of one simulation run."""

    #: Measurement horizon (seconds): usually the AMR's computation time.
    horizon: float
    #: Total node-seconds the platform offered over the horizon.
    capacity_node_seconds: float
    #: Node-seconds allocated to the evolving application (non-preemptible).
    amr_used_node_seconds: float
    #: Wall-clock time of the evolving application's computation.
    amr_end_time: float
    #: Node-seconds of killed PSA tasks.
    psa_waste_node_seconds: float
    #: Node-seconds of completed PSA tasks.
    psa_completed_node_seconds: float
    #: Node-seconds allocated to every application (any request type but PA).
    total_allocated_node_seconds: float

    @property
    def psa_waste_percent(self) -> float:
        """PSA waste as a percentage of the platform capacity.

        A degenerate capacity (zero-length measurement window, or a NaN
        horizon from an application that never started) yields 0.0, never
        NaN or a division error.
        """
        if not math.isfinite(self.capacity_node_seconds) or self.capacity_node_seconds <= 0:
            return 0.0
        return 100.0 * self.psa_waste_node_seconds / self.capacity_node_seconds

    @property
    def used_resources_percent(self) -> float:
        """Percent of used resources as defined in Section 5.3.

        Degenerate capacities yield 0.0 (see :attr:`psa_waste_percent`).
        """
        if not math.isfinite(self.capacity_node_seconds) or self.capacity_node_seconds <= 0:
            return 0.0
        useful = self.total_allocated_node_seconds - self.psa_waste_node_seconds
        return 100.0 * useful / self.capacity_node_seconds

    def to_dict(self) -> Dict[str, float]:
        """Flat, JSON-friendly mapping of every metric (fields + derived).

        Non-finite values (an unfinished AMR reports a NaN end time) are
        mapped to ``None`` so the result is valid strict JSON; this is what
        campaign result stores persist per run.
        """
        def clean(value: float) -> Optional[float]:
            return float(value) if math.isfinite(value) else None

        return {
            "horizon": clean(self.horizon),
            "capacity_node_seconds": clean(self.capacity_node_seconds),
            "amr_used_node_seconds": clean(self.amr_used_node_seconds),
            "amr_end_time": clean(self.amr_end_time),
            "psa_waste_node_seconds": clean(self.psa_waste_node_seconds),
            "psa_completed_node_seconds": clean(self.psa_completed_node_seconds),
            "total_allocated_node_seconds": clean(self.total_allocated_node_seconds),
            "psa_waste_percent": clean(self.psa_waste_percent),
            "used_resources_percent": clean(self.used_resources_percent),
        }

    @classmethod
    def collect(
        cls,
        rms: CooRMv2,
        amr: Optional[AmrApplication] = None,
        psas: Sequence[ParameterSweepApplication] = (),
        horizon: Optional[float] = None,
    ) -> "SimulationMetrics":
        """Build the metrics from a finished simulation.

        The horizon defaults to the AMR's computation time (from its first
        allocation to its completion), which is how the paper normalises the
        "percent of used resources".
        """
        return cls.collect_multi((rms,), amr=amr, psas=psas, horizon=horizon)

    @classmethod
    def collect_multi(
        cls,
        rmss: Sequence[CooRMv2],
        amr: Optional[AmrApplication] = None,
        psas: Sequence[ParameterSweepApplication] = (),
        horizon: Optional[float] = None,
    ) -> "SimulationMetrics":
        """Metrics aggregated over several RMSs sharing one event engine.

        This is :meth:`collect` generalised to a federation: the capacity is
        the combined node count of every member, the allocations of all
        members count towards the totals, and the horizon comes from the
        shared simulation clock (every member reports the same ``now``).
        With a single RMS the arithmetic reduces exactly to :meth:`collect`
        -- same terms, same order -- so a one-member federation measures
        its cluster exactly as :meth:`collect` does.
        """
        if not rmss:
            raise ValueError("collect_multi needs at least one RMS")
        window_start = measurement_window_start(amr)
        if horizon is None:
            if amr is not None and amr.finished():
                horizon = amr.computation_time()
            else:
                horizon = rmss[0].now - window_start
        window_end = window_start + horizon
        capacity = sum(rms.total_nodes() for rms in rmss) * horizon

        def clipped(record) -> float:
            return clip_node_seconds(record, window_start, window_end)

        used = [rec for rms in rmss for rec in allocations(rms)]
        total_allocated = sum(clipped(rec) for rec in used)

        amr_used = 0.0
        amr_end = math.nan
        if amr is not None:
            amr_used = sum(
                clipped(rec)
                for rec in used
                if rec.app_id == amr.name and rec.rtype == NON_PREEMPTIBLE.value
            )
            if amr_used == 0.0:
                amr_used = amr.used_node_seconds
            amr_end = amr.computation_time()

        waste = sum(p.stats.waste_node_seconds for p in psas)
        completed = sum(p.stats.completed_node_seconds for p in psas)

        return cls(
            horizon=horizon,
            capacity_node_seconds=capacity,
            amr_used_node_seconds=amr_used,
            amr_end_time=amr_end,
            psa_waste_node_seconds=waste,
            psa_completed_node_seconds=completed,
            total_allocated_node_seconds=total_allocated,
        )


def median_summary(records: Iterable[Mapping[str, object]]) -> Dict[str, float]:
    """Per-key medians over a list of flat metric mappings.

    Used by the campaign result store: records are arbitrary flat
    ``{metric: value}`` mappings (as produced by scenario runners) and only
    finite numeric values participate -- missing, ``None`` or non-finite
    entries are skipped per key.
    """
    values: Dict[str, List[float]] = {}
    for record in records:
        for key, value in record.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if not math.isfinite(value):
                continue
            values.setdefault(key, []).append(float(value))

    def median(samples: List[float]) -> float:
        samples = sorted(samples)
        n = len(samples)
        mid = n // 2
        if n % 2:
            return samples[mid]
        return 0.5 * (samples[mid - 1] + samples[mid])

    return {key: median(samples) for key, samples in sorted(values.items())}
