#!/usr/bin/env python
"""Trace one scenario and export a Chrome ``trace_event`` file.

The observability walk-through:

1. **instrument** -- install an :class:`EventTracer`, a
   :class:`MetricsRegistry` and a :class:`PhaseProfiler` with one
   ``observe()`` context manager; everything that runs inside is traced;
2. **run** every point of the fig9 sweep (spontaneous-update overcommit
   factors x static/dynamic), in the order a campaign lists them, at its
   canonical derived seed;
3. **inspect** the captured stream: per-event-type counts, headline
   counters, wall-clock phase breakdown;
4. **export** the trace as Chrome ``trace_event`` JSON -- drag it into
   ``chrome://tracing`` or https://ui.perfetto.dev to see every engine
   dispatch and scheduler decision on the simulated timeline.

The same trace in byte-stable JSONL form (for diffing two runs) comes from
``tracer.to_jsonl()`` or ``python -m repro obs export --format jsonl``.

Run with::

    PYTHONPATH=src python examples/trace_a_scenario.py
"""
from __future__ import annotations

from pathlib import Path

from repro.campaign import builtin  # noqa: F401  (registers the scenarios)
from repro.campaign.registry import builtin_scenarios, run_sweep
from repro.metrics import format_table
from repro.obs import EventTracer, MetricsRegistry, PhaseProfiler, observe
from repro.sim.randomness import derive_seed

SCENARIO = "fig9"
OUT = Path("fig9.trace.json")


def main() -> None:
    # --- 1/2. instrument + run -------------------------------------------
    spec = builtin_scenarios()[SCENARIO]
    seed = derive_seed(0, SCENARIO, 0)  # the campaign's replicate-0 seed
    tracer, registry, profiler = EventTracer(), MetricsRegistry(), PhaseProfiler()
    with observe(tracer=tracer, metrics=registry, profiler=profiler):
        points = run_sweep(spec, seed)
    print(f"ran {len(points)} points of {SCENARIO!r} at seed {seed}: {len(tracer)} trace events")

    # --- 3. inspect -------------------------------------------------------
    print("\nevents by category/name:")
    rows = [(c, n, count) for (c, n), count in sorted(tracer.count_by().items())]
    print(format_table(["category", "event", "count"], rows))

    print("\nheadline counters:")
    headline = [
        (name, value)
        for name, value in registry.rows()
        if name in (
            "engine.events_dispatched",
            "scheduler.passes",
            "scheduler.fit_attempts",
            "scheduler.to_start",
            "rms.passes",
        )
    ]
    print(format_table(["metric", "value"], headline))

    print("\nwall-clock phases:")
    phase_rows = [
        (phase, f"{data['seconds'] * 1e3:.1f} ms", int(data["count"]))
        for phase, data in sorted(profiler.snapshot().items())
    ]
    print(format_table(["phase", "total", "count"], phase_rows))

    # --- 4. export --------------------------------------------------------
    OUT.write_text(
        tracer.to_chrome(label=f"repro {SCENARIO} seed={seed}"), encoding="utf-8"
    )
    print(f"\nChrome trace written to {OUT} -- open it in chrome://tracing")
    captured = sum(len(metrics) for _variant, metrics in points)
    print(f"simulation metrics captured alongside the trace: {captured}")


if __name__ == "__main__":
    main()
