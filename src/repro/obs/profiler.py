"""Wall-clock phase timers: where does real time go?

Unlike the tracer and the metrics registry -- whose output is deterministic
and may be persisted next to simulation results -- the profiler measures
**wall-clock** time and is therefore machine- and load-dependent.  Its
snapshots must only ever flow into the non-deterministic side of the store
(``meta.json``) and into benchmark reports, never into ``runs.jsonl``.

Phases may nest (the ``scheduler.pass`` phase runs inside an
``engine.dispatch`` phase): each phase accumulates its own inclusive time,
so nested totals can exceed the enclosing wall time -- the breakdown is a
"where was the program" histogram, not a partition.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Mapping

__all__ = ["PhaseProfiler"]


class PhaseProfiler:
    """Accumulates inclusive wall-clock seconds per named phase."""

    def __init__(self) -> None:
        self._seconds: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    def add(self, phase: str, seconds: float, count: int = 1) -> None:
        """Account *seconds* of wall-clock time (over *count* calls) to *phase*."""
        self._seconds[phase] = self._seconds.get(phase, 0.0) + seconds
        self._counts[phase] = self._counts.get(phase, 0) + count

    def merge(self, snapshot: Mapping[str, Mapping[str, float]]) -> None:
        """Fold another profiler's :meth:`snapshot` into this one.

        Campaign workers profile in their own process; the parent merges
        their snapshots to get the campaign-wide phase breakdown.
        """
        for phase, data in snapshot.items():
            self.add(
                phase,
                float(data.get("seconds", 0.0)),
                count=int(data.get("count", 0)) or 1,
            )

    @contextmanager
    def phase(self, name: str):
        """Time the enclosed block and account it to *name*."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    # ------------------------------------------------------------------ #
    def seconds(self, phase: str) -> float:
        return self._seconds.get(phase, 0.0)

    def count(self, phase: str) -> int:
        return self._counts.get(phase, 0)

    def __len__(self) -> int:
        return len(self._seconds)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"seconds": total, "count": n, "mean_us": per-call}}``."""
        out: Dict[str, Dict[str, float]] = {}
        for phase in sorted(self._seconds):
            seconds = self._seconds[phase]
            count = self._counts[phase]
            out[phase] = {
                "seconds": seconds,
                "count": float(count),
                "mean_us": 1e6 * seconds / count if count else 0.0,
            }
        return out
