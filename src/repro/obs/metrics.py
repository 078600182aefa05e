"""The metrics registry: counters, gauges and histograms per run.

A :class:`MetricsRegistry` aggregates what the instrumentation sites count
during one simulation run -- events dispatched, fit attempts, backfill
hits, scheduling passes, per-cluster routing decisions, queue-depth
samples.  Everything it stores is a pure function of the simulation, so a
registry snapshot is deterministic and may flow into campaign result rows
(``record["obs"]``) next to the simulation metrics, where
``campaign report`` renders it as a per-run observability breakdown.

The snapshot is a **flat** ``{name: number}`` mapping (histograms flatten
into ``name.count`` / ``name.sum`` / ``name.min`` / ``name.max`` /
``name.mean`` keys) so that the campaign store's median machinery
(:func:`repro.metrics.collector.median_summary`) applies unchanged.
"""
from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..core.registry import unknown_name

__all__ = ["Histogram", "MetricsRegistry"]

#: Power-of-two histogram bucket upper bounds (last bucket is +inf).
_BUCKET_BOUNDS: Tuple[float, ...] = tuple(float(2**i) for i in range(21)) + (math.inf,)


class Histogram:
    """Fixed-bucket (power-of-two) histogram of non-negative samples."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets = [0] * len(_BUCKET_BOUNDS)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(_BUCKET_BOUNDS):
            if value <= bound:
                self.buckets[i] += 1
                return

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_counts(self) -> Dict[str, int]:
        """Non-empty buckets as ``{"le=<bound>": count}`` (for inspection)."""
        out: Dict[str, int] = {}
        for bound, count in zip(_BUCKET_BOUNDS, self.buckets):
            if count:
                key = "le=inf" if math.isinf(bound) else f"le={bound:g}"
                out[key] = count
        return out


class MetricsRegistry:
    """Counters, gauges and histograms, keyed by dotted metric names."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    def inc(self, name: str, value: float = 1.0) -> None:
        """Increment counter *name* (created at zero on first use)."""
        self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value* (last write wins)."""
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram *name*."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def histogram(self, name: str) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            raise unknown_name("histogram", name, self._histograms)
        return hist

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, float]:
        """Flat, deterministic, JSON-friendly view of every metric.

        Keys are sorted; histogram min/max are omitted for empty histograms
        (they would be infinite) so the snapshot is always strict JSON.
        """
        out: Dict[str, float] = {}
        for name, value in self._counters.items():
            out[name] = value
        for name, value in self._gauges.items():
            out[name] = value
        for name, hist in self._histograms.items():
            out[f"{name}.count"] = float(hist.count)
            out[f"{name}.sum"] = hist.total
            out[f"{name}.mean"] = hist.mean
            if hist.count:
                out[f"{name}.min"] = hist.min
                out[f"{name}.max"] = hist.max
        return dict(sorted(out.items()))

    def rows(self) -> List[Tuple[str, float]]:
        """Snapshot as sorted (name, value) rows for table rendering."""
        return list(self.snapshot().items())
