"""Unit tests of workload generation and the baselines."""
from __future__ import annotations

import numpy as np
import pytest

from repro.apps import AmrApplication
from repro.baselines import BatchSchedulerBaseline, peak_static_job, predict_static_run
from repro.cluster import Platform
from repro.models import WorkingSetEvolution
from repro.sim import Simulator
from repro.workloads import (
    RigidJobSpec,
    WorkloadParameters,
    generate_rigid_workload,
)


class TestWorkloadGenerator:
    def test_parameters_validation(self):
        with pytest.raises(ValueError):
            WorkloadParameters(job_count=0)
        with pytest.raises(ValueError):
            WorkloadParameters(min_nodes=8, max_nodes=4)
        with pytest.raises(ValueError):
            WorkloadParameters(mean_interarrival=0.0)

    def test_generation_respects_bounds(self):
        params = WorkloadParameters(job_count=50, min_nodes=2, max_nodes=64)
        jobs = generate_rigid_workload(params, seed=1)
        assert len(jobs) == 50
        assert all(2 <= j.node_count <= 64 for j in jobs)
        assert all(params.min_runtime <= j.duration <= params.max_runtime for j in jobs)
        submits = [j.submit_time for j in jobs]
        assert submits == sorted(submits)

    def test_power_of_two_rounding(self):
        jobs = generate_rigid_workload(WorkloadParameters(job_count=30), seed=2)
        assert all(j.node_count & (j.node_count - 1) == 0 for j in jobs)

    def test_reproducibility(self):
        a = generate_rigid_workload(seed=3)
        b = generate_rigid_workload(seed=3)
        assert [(j.node_count, j.duration) for j in a] == [(j.node_count, j.duration) for j in b]

    def test_job_area(self):
        job = RigidJobSpec("j", 0.0, 4, 100.0)
        assert job.area == pytest.approx(400.0)


class TestBatchBaseline:
    def test_fcfs_with_backfilling(self):
        baseline = BatchSchedulerBaseline(16)
        outcomes = baseline.run(
            [
                RigidJobSpec("wide", 0.0, 12, 100.0),
                RigidJobSpec("blocked", 0.0, 16, 50.0),
                RigidJobSpec("small", 0.0, 4, 50.0),
            ]
        )
        by_id = baseline.outcome_by_id()
        assert by_id["small"].start_time == pytest.approx(0.0)
        assert by_id["blocked"].start_time == pytest.approx(100.0)
        assert baseline.makespan() >= 150.0
        assert 0.0 < baseline.utilisation() <= 1.0
        assert baseline.mean_wait_time() >= 0.0
        assert len(outcomes) == 3

    def test_peak_static_job_reserves_the_peak(self):
        job = peak_static_job("evolving", peak_nodes=128, total_runtime=3600.0)
        assert job.node_count == 128
        assert job.area == pytest.approx(128 * 3600.0)


class TestStaticPrediction:
    def test_matches_simulated_static_run(self):
        evolution = WorkingSetEvolution(np.linspace(5_000.0, 100_000.0, 12))
        prediction = predict_static_run(evolution, node_count=30)

        sim = Simulator()
        from repro.core import CooRMv2

        rms = CooRMv2(Platform.single_cluster(64), sim, rescheduling_interval=1.0)
        app = AmrApplication(
            "amr", evolution, preallocation_nodes=30, static_allocation=True
        )
        app.connect(rms)
        sim.run()
        assert app.finished()
        assert app.computation_time() == pytest.approx(prediction.end_time, rel=1e-6)
        assert app.used_node_seconds == pytest.approx(prediction.used_node_seconds, rel=1e-6)

    def test_invalid_node_count(self):
        evolution = WorkingSetEvolution([1.0])
        with pytest.raises(ValueError):
            predict_static_run(evolution, node_count=0)
