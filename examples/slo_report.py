#!/usr/bin/env python
"""Run the fig9 scenario under an SLO spec and print the analytics report.

The analytics walk-through, one layer above raw tracing (for which see
``trace_a_scenario.py``):

1. **trace** every point of the fig9 sweep (spontaneous-update overcommit) at its
   canonical campaign seed;
2. **replay** the deterministic event stream into a sampled sim-time
   :class:`Timeline` (utilization, queue depth, job counts) and per-job
   lifecycle audits (queue wait, slowdown, grow/shrink counts);
3. **evaluate** a declarative :class:`SLOSpec` -- a p95 queue-wait ceiling,
   a bounded-slowdown bound and an SLA-attainment percentage, plus a
   utilization floor that needs the timeline -- and print the verdict.

Everything derived here is a pure function of the trace, so re-running this
script produces byte-identical analytics; campaigns evaluate the same specs
per run with ``python -m repro campaign run --slo <spec>``.

Run with::

    PYTHONPATH=src python examples/slo_report.py
"""
from __future__ import annotations

from repro.campaign import builtin  # noqa: F401  (registers the scenarios)
from repro.campaign.registry import builtin_scenarios, run_sweep
from repro.metrics import format_table
from repro.obs import (
    EventTracer,
    SLOSpec,
    TimelineBuilder,
    build_audits,
    evaluate_slo,
    observe,
    summarize_audits,
)
from repro.obs.timeline import sparkline
from repro.sim.randomness import derive_seed

SCENARIO = "fig9"

#: The evaluated objectives: deliberately tighter than the shipped
#: ``DEFAULT_SLO`` to show a utilization objective in action.
SPEC = SLOSpec(
    name="fig9-example",
    objectives=(
        {"kind": "p95_wait", "max_seconds": 600.0},
        {"kind": "mean_bounded_slowdown", "max": 5.0},
        {"kind": "attainment", "wait_seconds": 300.0, "min_percent": 90.0},
        {"kind": "utilization", "min_percent": 5.0},
    ),
)


def main() -> int:
    spec = builtin_scenarios()[SCENARIO]
    seed = derive_seed(0, SCENARIO, 0)

    print(f"1. Tracing scenario {SCENARIO!r} at its campaign seed {seed}")
    tracer = EventTracer()
    with observe(tracer=tracer):
        run_sweep(spec, seed)
    print(f"   {len(tracer)} events recorded")

    print()
    print("2. Sim-time timeline (fixed 60-interval grid)")
    timeline = TimelineBuilder().build(tracer.events)
    for name in ("util.pct", "queue.apps", "jobs.running"):
        stats = timeline.stats(name)
        print(
            f"   {name:<14} {sparkline(timeline.series[name])} "
            f"max={stats['max']:g}"
        )

    print()
    print("3. Per-job lifecycle audits")
    audits = build_audits(tracer.events)
    summary = summarize_audits(audits)
    rows = [
        (key, summary[key])
        for key in ("jobs", "started", "wait_p95", "bounded_slowdown_mean", "grows")
    ]
    print(format_table(["statistic", "value"], rows))

    print()
    print(f"4. SLO evaluation against spec {SPEC.name!r}")
    report = evaluate_slo(SPEC, audits, timeline)
    for result in report.results:
        verdict = "ok" if result.get("ok") else "VIOLATED"
        print(f"   [{verdict:>8}] {result['kind']}: measured {result['measured']:g}")
    print(f"   overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
