"""Dispatch-overhead benchmarks for the campaign execution tier (``repro.dist``).

The dist tier (issue 10) must not tax the campaigns it coordinates: a
no-op run unit should clear the coordinator -- batched lease round trip,
queue bookkeeping, record collation -- fast enough that real simulations
dominate wall-clock even at small scenario sizes.  One floor per transport
pins that down, each over enough units (2000) that dispatch, not worker
start-up, is what the clock sees:

Every transport carries the same length-prefixed JSON frames, polled by
one ``select`` into per-connection receive buffers; they differ in where
the worker runs and how it reached its socket:

* **Thread-transport dispatch** -- workers are threads of the coordinator's
  process on socket pairs: the protocol cost without a second process.
* **IPC-transport dispatch** -- one subprocess per worker on a socket pair:
  what every local ``campaign run --workers N`` goes through.
* **TCP-transport dispatch** -- the full network path: a listener, accepted
  loopback connections and ``TCP_NODELAY``.

Every measurement uses plain ``time.perf_counter`` so the suite runs
under the bare pytest of the CI benchmarks job (no pytest-benchmark
plugin) and standalone via
``PYTHONPATH=src python benchmarks/bench_dist_overhead.py``.

Floors are about a third of what a 2-core shared VM measured once results
became outcomes and grants rows (thread ~25k, ipc ~28k, tcp ~30k units/s;
full result records and per-unit task objects managed ~17k, ~19k and ~19k
on the same machine, and the per-unit protocol before batched grants
1.5k-1.8k), so they trip on genuine protocol regressions (per-unit round
trips or sleeps, whole-queue scans, a scenario encoded per unit rather than
once per variant or shipped per unit rather than once per grant, rows built
on both sides of the wire), not on machine jitter.
"""
from __future__ import annotations

import statistics
import time

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, ScenarioSpec
from repro.dist import ensure_noop_runner
from repro.dist.coordinator import Coordinator, DistConfig

#: transport -> (workers, floor in no-op run units per second through the
#: full coordinator loop).
DISPATCH_FLOORS = {"thread": (4, 10000.0), "ipc": (2, 7000.0), "tcp": (2, 7000.0)}
#: Units per measured run.
UNITS = 2000


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


@pytest.mark.parametrize("transport", DISPATCH_FLOORS)
def test_dispatch_floor(transport):
    workers, floor = DISPATCH_FLOORS[transport]
    rate = _dispatch_rate(transport, units=UNITS, workers=workers, repeats=3)
    print(f"\ndist_{transport}_units_per_second: {rate:,.0f} units/s (floor {floor:,.0f})")
    assert rate >= floor


if __name__ == "__main__":
    for name in DISPATCH_FLOORS:
        test_dispatch_floor(name)
    print("\nall dist dispatch floors hold")
