"""Federation routing + multi-cluster scheduling throughput.

Two questions, mirroring ``bench_scheduler_throughput.py``:

* how fast can the meta-scheduler *place* incoming applications?  Every
  registered routing policy routes a burst of rigid applications into a
  3-cluster federation; the floor is the paper's 500 requests/second figure
  (Section 3.2) -- placement is one decision per request, so a meta-
  scheduler slower than the per-cluster scheduler would be the bottleneck;
* how fast does a *whole federated simulation* run?  A contended rigid
  stream is fanned into the heterogeneous built-in topology and driven to
  completion across all three member schedulers on one shared event
  engine, with an explicit jobs-per-second floor.
"""
from __future__ import annotations

import pytest

from repro.apps.rigid import RigidApplication
from repro.federation import ROUTINGS, TOPOLOGIES, Federation, locality_group
from repro.metrics import format_table
from repro.sim import Simulator

#: Placement must beat the paper's request-handling figure.
ROUTING_FLOOR_PER_SECOND = 500
#: End-to-end federated simulation floor (jobs simulated per wall second);
#: the measured figure is ~70 jobs/s, the floor leaves CI headroom.
SIMULATION_FLOOR_JOBS_PER_SECOND = 10


def build_federation(routing: str):
    simulator = Simulator()
    topology = TOPOLOGIES.get("hetero3").with_routing(routing)
    return Federation(topology, simulator, seed=1), simulator


@pytest.mark.parametrize("routing", ROUTINGS.names())
def test_routing_submit_throughput(benchmark, routing):
    """Route-and-connect a burst of applications; report placements/s."""
    count = 300

    def route_burst():
        federation, _simulator = build_federation(routing)
        for i in range(count):
            app = RigidApplication(f"job{i}", node_count=1 + i % 16, duration=1e9)
            federation.submit(
                app, node_count=app.node_count, group=locality_group(app.name)
            )
        return federation

    federation = benchmark(route_burst)
    seconds = benchmark.stats.stats.mean
    throughput = count / seconds if seconds > 0 else float("inf")
    print()
    print(
        format_table(
            ["routing", "placements", "burst time (s)", "placements/s"],
            [(routing, count, f"{seconds:.4f}", f"{throughput:,.0f}")],
        )
    )
    assert sum(federation.routed_counts().values()) == count
    assert throughput > ROUTING_FLOOR_PER_SECOND, (
        f"routing {routing} fell below the {ROUTING_FLOOR_PER_SECOND}/s floor"
    )


def test_federated_simulation_throughput(benchmark):
    """Drive a contended rigid stream across 3 clusters to completion."""
    jobs = 80

    def run_federated():
        simulator = Simulator()
        federation = Federation(TOPOLOGIES.get("hetero3"), simulator, seed=1)
        apps = []

        def submit(index: int) -> None:
            app = RigidApplication(
                f"job{index}", node_count=1 + index % 8, duration=60.0
            )
            federation.submit(
                app, node_count=app.node_count, group=locality_group(app.name)
            )
            apps.append(app)

        for i in range(jobs):
            simulator.schedule_at(i * 2.0, submit, i)
        simulator.run()
        return federation, apps

    (federation, apps) = benchmark(run_federated)
    seconds = benchmark.stats.stats.mean
    throughput = jobs / seconds if seconds > 0 else float("inf")
    print()
    print(
        format_table(
            ["clusters", "jobs", "sim time (s)", "jobs/s"],
            [(len(federation.members), jobs, f"{seconds:.4f}", f"{throughput:,.0f}")],
        )
    )
    assert all(app.finished() for app in apps)
    assert throughput > SIMULATION_FLOOR_JOBS_PER_SECOND, (
        f"federated simulation fell below the "
        f"{SIMULATION_FLOOR_JOBS_PER_SECOND} jobs/s floor"
    )
