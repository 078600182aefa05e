"""Benchmark of parallel campaign execution (worker-count scaling).

Runs one fixed campaign (a single-simulation scenario, many replicates) at
several worker counts and reports the wall-clock speed-up: one worker is the
in-process serial loop, more are ``repro.dist`` worker processes on socket
pairs (the ``ipc`` transport).  Every run is an
independent simulation, so the campaign is embarrassingly parallel and the
speed-up should be near-linear until the machine runs out of cores; the
scaling assertion therefore only applies when enough physical cores exist.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_campaign_parallel.py --benchmark-only -s
"""
from __future__ import annotations

import os
import time

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, resolve_scenarios
from repro.metrics import format_table

#: Replicates of the benchmark campaign (one tiny simulation each).
REPLICATES = 12
WORKER_COUNTS = (1, 2, 4)


def make_campaign(seeds: int = REPLICATES) -> CampaignSpec:
    return CampaignSpec(
        name="bench-parallel",
        scenarios=tuple(resolve_scenarios(["baseline-dynamic"])),
        seeds=seeds,
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_campaign_wall_clock_per_worker_count(benchmark, workers):
    """Time the same campaign at each worker count."""
    spec = make_campaign()

    def execute():
        return CampaignRunner(spec).run(workers=workers)

    result = benchmark.pedantic(execute, rounds=1, iterations=1)
    assert len(result.records) == spec.run_count


def test_scaling_report(benchmark):
    """Print the speed-up table and check scaling where cores allow it."""
    spec = make_campaign()

    def sweep():
        timings = {}
        for workers in WORKER_COUNTS:
            started = time.perf_counter()
            CampaignRunner(spec).run(workers=workers)
            timings[workers] = time.perf_counter() - started
        return timings

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    serial = timings[1]
    rows = [
        (w, f"{timings[w]:.2f}s", f"{serial / timings[w]:.2f}x")
        for w in WORKER_COUNTS
    ]
    print()
    print(f"campaign scaling ({spec.run_count} runs, {os.cpu_count()} cores)")
    print(format_table(["workers", "wall clock", "speedup"], rows))

    cores = os.cpu_count() or 1
    for workers in WORKER_COUNTS:
        if workers == 1 or cores < 2 * workers:
            # Without enough physical headroom more workers only add
            # process start-up and lease round trips; report, don't assert.
            continue
        speedup = serial / timings[workers]
        assert speedup > 0.6 * workers, (
            f"expected near-linear scaling at {workers} workers on a "
            f"{cores}-core machine, measured {speedup:.2f}x"
        )
