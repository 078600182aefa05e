"""Benchmark and reproduction of Figure 11 (two PSAs, filling vs strict)."""
from __future__ import annotations

from repro.experiments import EvaluationScale, run_scenario


def test_fig11_single_two_psa_scenario(benchmark, bench_scale):
    """Time one scenario with two PSAs under the filling policy."""
    result = benchmark.pedantic(
        run_scenario,
        kwargs=dict(
            scale=bench_scale,
            seed=0,
            overcommit=1.0,
            announce_interval=bench_scale.psa1_task_duration / 2,
            psa_task_durations=(
                bench_scale.psa1_task_duration,
                bench_scale.psa2_task_duration,
            ),
        ),
        rounds=3,
        iterations=1,
    )
    assert result.amr.finished()
    assert len(result.psas) == 2


def test_fig11_sweep_report(sweep_report):
    """Time (and print) the filling-vs-strict comparison over announce intervals."""
    task = EvaluationScale.tiny().psa1_task_duration
    headers, rows = sweep_report(
        "fig11",
        ("workload.announce_interval", tuple(task * f for f in (0.0, 0.5, 1.0))),
        ("rms.strict_equipartition", (True, False)),
    )
    # The filling rows' Δ is the gain over strict at the same interval:
    # equi-partitioning with filling never uses fewer resources than strict.
    delta = headers.index("Δ used_resources_percent")
    gains = [row[delta] for row in rows if row[headers.index("strict_equipartition")] == "false"]
    assert all(gain >= -1.0 for gain in gains)
    assert any(gain > 0 for gain in gains)
