"""Benchmark and reproduction of Figure 9 (spontaneous updates).

The timed section runs one dynamic-allocation scenario; after timing, the
static-vs-dynamic sweep over overcommit factors runs as a campaign and its
report's sweep table is printed (AMR used resources and PSA waste per point,
dynamic against static in the Δ columns).
"""
from __future__ import annotations

from repro.experiments import run_scenario

BENCH_OVERCOMMITS = (0.5, 1.0, 2.0, 5.0)


def test_fig9_single_dynamic_scenario(benchmark, bench_scale):
    """Time one dynamic AMR + PSA scenario (the unit of the Figure 9 sweep)."""
    result = benchmark.pedantic(
        run_scenario,
        kwargs=dict(scale=bench_scale, seed=0, overcommit=1.0),
        rounds=3,
        iterations=1,
    )
    assert result.amr.finished()


def test_fig9_sweep_report(sweep_report):
    """Time (and print) the static-vs-dynamic sweep over overcommit factors."""
    headers, rows = sweep_report(
        "fig9",
        ("workload.overcommit", BENCH_OVERCOMMITS),
        ("workload.static_allocation", (True, False)),
    )
    # Dynamic rows against the static row of their overcommit factor.
    delta = headers.index("Δ amr_used_node_seconds")
    assert all(row[delta] <= 0 for row in rows)
