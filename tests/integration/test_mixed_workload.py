"""Integration test: a mixed workload of every application type at once.

Section 4 argues that the CooRMv2 interface supports rigid, moldable,
malleable and evolving applications side by side.  This test runs one of
each on a single cluster and checks that everybody completes, that resources
are conserved at all times and that the malleable application ends up
yielding to the others when needed.
"""
from __future__ import annotations

import pytest

from repro.apps import (
    AmrApplication,
    EvolutionPhase,
    FullyPredictableEvolvingApplication,
    MalleableApplication,
    MoldableApplication,
    ParameterSweepApplication,
    RigidApplication,
)
from repro.cluster import Platform
from repro.core import CooRMv2
from repro.models import WorkingSetEvolution
from repro.sim import Simulator
from repro.testing import linspace
from repro.workloads import WorkloadParameters, generate_rigid_workload
from repro.baselines import BatchSchedulerBaseline


class TestMixedWorkload:
    def test_every_application_type_runs_to_completion(self):
        sim = Simulator()
        platform = Platform.single_cluster(64)
        rms = CooRMv2(platform, sim, rescheduling_interval=1.0)

        evolution = WorkingSetEvolution(linspace(5_000.0, 60_000.0, 12))
        amr = AmrApplication("amr", evolution, preallocation_nodes=24)
        psa = ParameterSweepApplication("psa", task_duration=40.0)
        rigid = RigidApplication("rigid", node_count=8, duration=300.0)
        moldable = MoldableApplication(
            "moldable", candidate_node_counts=[2, 4, 8], walltime_model=lambda n: 800.0 / n
        )
        malleable = MalleableApplication("malleable", min_nodes=2, duration=500.0)
        evolving = FullyPredictableEvolvingApplication(
            "evolving", phases=[EvolutionPhase(2, 200.0), EvolutionPhase(6, 200.0)]
        )

        apps = [amr, psa, rigid, moldable, malleable, evolving]
        amr.on_finished = lambda _app: psa.shutdown()
        for app in apps:
            app.connect(rms)

        sim.run(until=50_000.0)

        for app in apps:
            assert app.finished(), f"{app.name} did not finish"
            assert not app.killed
        assert platform.cluster("cluster0").free_count() == 64
        assert psa.stats.completed_tasks > 0

    def test_rigid_stream_through_coormv2_matches_cbf_baseline(self):
        """A pure rigid workload scheduled by CooRMv2 behaves like FCFS+CBF."""
        jobs = generate_rigid_workload(
            WorkloadParameters(job_count=12, max_nodes=16, mean_interarrival=200.0,
                               runtime_log_sigma=0.5),
            seed=5,
        )
        # Baseline: the standalone conservative back-filling queue.
        baseline = BatchSchedulerBaseline(32)
        baseline.run(jobs)

        # The same jobs as rigid applications under the full RMS.
        sim = Simulator()
        platform = Platform.single_cluster(32)
        rms = CooRMv2(platform, sim, rescheduling_interval=1.0)
        apps = []
        for job in jobs:
            app = RigidApplication(job.job_id, node_count=job.node_count, duration=job.duration)
            sim.schedule_at(job.submit_time, app.connect, rms)
            apps.append(app)
        sim.run()

        for app in apps:
            assert app.finished()
        assert platform.cluster("cluster0").free_count() == 32

        # Makespans agree within the re-scheduling latency (one pass per event).
        rms_makespan = max(app.finished_at for app in apps)
        assert rms_makespan == pytest.approx(baseline.queue.makespan(), rel=0.1)

    def test_two_evolving_applications_queue_for_preallocations(self):
        """Two NEAs whose pre-allocations cannot fit together are serialised,
        so that each one's updates remain guaranteed (Section 4)."""
        sim = Simulator()
        platform = Platform.single_cluster(32)
        rms = CooRMv2(platform, sim, rescheduling_interval=1.0)

        evolution = WorkingSetEvolution(linspace(5_000.0, 40_000.0, 8))
        first = AmrApplication(
            "first", evolution, preallocation_nodes=20, preallocation_duration=50_000.0
        )
        second = AmrApplication(
            "second", evolution, preallocation_nodes=20, preallocation_duration=50_000.0
        )
        first.connect(rms)
        second.connect(rms)
        sim.run(until=200_000.0)

        assert first.finished() and second.finished()
        # Their computations must not have overlapped: the second starts only
        # after the first released its pre-allocation.
        assert second.computation_started_at >= first.finished_at - 1e-6
        assert platform.cluster("cluster0").free_count() == 32
