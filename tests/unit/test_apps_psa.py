"""Unit tests of the Parameter-Sweep Application (Section 5.1.2)."""
from __future__ import annotations

import pytest

from repro.apps import AmrApplication, ParameterSweepApplication, RigidApplication
from repro.cluster import Platform
from repro.core import CooRMv2
from repro.models import WorkingSetEvolution
from repro.sim import Simulator
from repro.testing import linspace


def make_env(nodes=16, strict=False):
    sim = Simulator()
    platform = Platform.single_cluster(nodes)
    policy = "coorm-strict" if strict else None
    rms = CooRMv2(platform, sim, rescheduling_interval=1.0, policy=policy)
    return sim, platform, rms


class TestBasics:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ParameterSweepApplication("p", task_duration=0.0)

    def test_fills_an_empty_cluster_and_completes_tasks(self):
        sim, _, rms = make_env(nodes=8)
        psa = ParameterSweepApplication("psa", task_duration=30.0)
        psa.connect(rms)
        sim.run(until=200.0)
        assert psa.busy_count() == 8
        assert psa.stats.completed_tasks >= 8 * 5
        assert psa.stats.killed_tasks == 0
        assert psa.stats.waste_node_seconds == 0.0
        assert psa.stats.total_busy_node_seconds == pytest.approx(
            psa.stats.completed_node_seconds
        )

    def test_shutdown_finishes_running_tasks_without_waste(self):
        sim, platform, rms = make_env(nodes=8)
        psa = ParameterSweepApplication("psa", task_duration=30.0)
        psa.connect(rms)
        sim.run(until=100.0)
        completed_before = psa.stats.completed_tasks
        psa.shutdown()
        sim.run()
        assert psa.finished()
        assert psa.stats.waste_node_seconds == 0.0
        assert psa.stats.completed_tasks >= completed_before
        assert platform.cluster("cluster0").free_count() == 8

    def test_shutdown_now_aborts_without_counting_waste(self):
        sim, platform, rms = make_env(nodes=8)
        psa = ParameterSweepApplication("psa", task_duration=1000.0)
        psa.connect(rms)
        sim.run(until=50.0)
        assert psa.busy_count() == 8
        psa.shutdown_now()
        sim.run()
        assert psa.finished()
        assert psa.stats.waste_node_seconds == 0.0
        assert psa.stats.killed_tasks == 0
        assert platform.cluster("cluster0").free_count() == 8


class TestPreemption:
    def test_sudden_demand_kills_tasks_and_counts_waste(self):
        sim, _, rms = make_env(nodes=16)
        psa = ParameterSweepApplication("psa", task_duration=600.0)
        psa.connect(rms)
        sim.run(until=100.0)
        assert psa.busy_count() == 16
        # A rigid job needs 8 nodes right now: the PSA must kill tasks.
        rigid = RigidApplication("rigid", node_count=8, duration=100.0)
        rigid.connect(rms)
        sim.run(until=200.0)
        assert rigid.request.started()
        assert psa.stats.killed_tasks >= 8
        assert psa.stats.waste_node_seconds > 0
        assert psa.busy_count() <= 8

    def test_future_drop_is_absorbed_without_waste(self):
        sim, _, rms = make_env(nodes=16)
        psa = ParameterSweepApplication("psa", task_duration=50.0)
        psa.connect(rms)
        sim.run(until=60.0)
        # An evolving application declares (via a fully-predictable chain)
        # that it will need 8 nodes in 100 seconds -- more than one PSA task
        # duration away, so the PSA can drain gracefully.
        from repro.apps import EvolutionPhase, FullyPredictableEvolvingApplication

        evolving = FullyPredictableEvolvingApplication(
            "evolving",
            phases=[EvolutionPhase(1, 100.0), EvolutionPhase(8, 200.0)],
        )
        evolving.connect(rms)
        sim.run(until=500.0)
        assert evolving.requests[1].started()
        # The immediate 1-node demand of the first phase may kill one task,
        # but the announced growth to 8 nodes is absorbed gracefully: the PSA
        # drains those nodes at task boundaries instead of being preempted.
        assert psa.stats.killed_tasks <= 1
        assert psa.stats.waste_node_seconds <= psa.task_duration

    def test_waste_decreases_with_announce_interval(self):
        evolution = WorkingSetEvolution(linspace(5_000.0, 100_000.0, 15))
        waste = {}
        for interval in (0.0, 60.0):
            sim, _, rms = make_env(nodes=64)
            amr = AmrApplication(
                "amr", evolution, preallocation_nodes=40, announce_interval=interval
            )
            psa = ParameterSweepApplication("psa", task_duration=50.0)
            amr.on_finished = lambda _app: psa.shutdown()
            amr.connect(rms)
            psa.connect(rms)
            sim.run()
            waste[interval] = psa.stats.waste_node_seconds
        assert waste[0.0] > 0.0
        assert waste[60.0] <= waste[0.0]
        assert waste[60.0] == pytest.approx(0.0, abs=1e-6)

    def test_killed_session_aborts_tasks(self):
        sim, platform, rms = make_env(nodes=8)
        psa = ParameterSweepApplication("psa", task_duration=100.0)
        psa.connect(rms)
        sim.run(until=50.0)
        rms.kill("psa", "testing")
        assert psa.killed
        assert psa.busy_count() == 0
        assert platform.cluster("cluster0").free_count() == 8
