"""Benchmark and reproduction of Figure 10 (announced updates)."""
from __future__ import annotations

from repro.experiments import EvaluationScale, run_scenario


def test_fig10_single_announced_scenario(benchmark, bench_scale):
    """Time one announced-update scenario (announce interval = task duration)."""
    result = benchmark.pedantic(
        run_scenario,
        kwargs=dict(
            scale=bench_scale,
            seed=0,
            overcommit=1.0,
            announce_interval=bench_scale.psa1_task_duration,
        ),
        rounds=3,
        iterations=1,
    )
    assert result.amr.finished()
    assert result.metrics.psa_waste_node_seconds == 0.0


def test_fig10_sweep_report(sweep_report):
    """Time (and print) the announce-interval sweep."""
    task = EvaluationScale.tiny().psa1_task_duration
    intervals = tuple(task * f for f in (0.0, 0.25, 0.5, 0.75, 0.92, 1.0, 1.2))
    headers, rows = sweep_report("fig10", ("workload.announce_interval", intervals))
    # Waste vanishes once the announce interval reaches the task duration.
    waste = [row[headers.index("psa_waste_percent")] for row in rows]
    assert waste[-1] == 0.0
    assert waste[0] >= waste[-1]
