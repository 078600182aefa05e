"""Dispatch-overhead benchmarks for the distributed campaign backend.

The dist tier (issue 10) must not tax the campaigns it coordinates: a
no-op run unit should clear the coordinator -- lease round trip, queue
bookkeeping, result ack, record collation -- fast enough that real
simulations dominate wall-clock even at small scenario sizes.  Two floors
pin that down:

* **Thread-transport dispatch** -- the in-process loopback is the pure
  protocol cost (no serialisation across a kernel boundary beyond the
  JSON frames themselves).
* **TCP-transport dispatch** -- the full socket path with length-prefixed
  frames, ``select``-driven polling and per-client receive buffers.

Every measurement uses plain ``time.perf_counter`` so the suite runs
under the bare pytest of the CI benchmarks job (no pytest-benchmark
plugin) and standalone via
``PYTHONPATH=src python benchmarks/bench_dist_overhead.py``.

Floors are set well below a 2024-era dev container's throughput so they
only trip on genuine protocol regressions (per-unit sleeps, quadratic
queue scans, chatty reply loops), not machine jitter.
"""
from __future__ import annotations

import statistics
import time

from repro.campaign import CampaignRunner, CampaignSpec, ScenarioSpec
from repro.dist import ensure_noop_runner
from repro.dist.coordinator import Coordinator, DistConfig

#: Floors (no-op run units per second through the full coordinator loop).
THREAD_DISPATCH_FLOOR = 200.0
TCP_DISPATCH_FLOOR = 100.0


def _report(name: str, rate: float, floor: float) -> None:
    print(f"\n{name}: {rate:,.0f} units/s (floor {floor:,.0f})")


def noop_tasks(units: int):
    runner_name = ensure_noop_runner()
    spec = CampaignSpec(
        name="dist-overhead",
        scenarios=(ScenarioSpec(name="noop", runner=runner_name),),
        seeds=units,
    )
    return CampaignRunner(spec).tasks()


def _dispatch_rate(transport: str, units: int, workers: int, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        tasks = noop_tasks(units)
        config = DistConfig(transport=transport, poll_interval=0.001)
        started = time.perf_counter()
        outcome = Coordinator(tasks, config).run(workers)
        samples.append(time.perf_counter() - started)
        assert len(outcome.records) == units
        assert not outcome.failed
    return units / statistics.median(samples)


def test_thread_dispatch_floor():
    rate = _dispatch_rate("thread", units=64, workers=4, repeats=3)
    _report("dist_thread_units_per_second", rate, THREAD_DISPATCH_FLOOR)
    assert rate >= THREAD_DISPATCH_FLOOR


def test_tcp_dispatch_floor():
    rate = _dispatch_rate("tcp", units=32, workers=2, repeats=3)
    _report("dist_tcp_units_per_second", rate, TCP_DISPATCH_FLOOR)
    assert rate >= TCP_DISPATCH_FLOOR


if __name__ == "__main__":
    test_thread_dispatch_floor()
    test_tcp_dispatch_floor()
    print("\nall dist dispatch floors hold")
