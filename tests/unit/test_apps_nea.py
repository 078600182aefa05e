"""Unit tests of the non-predictably evolving AMR application (Section 5.1.1)."""
from __future__ import annotations

import pytest

from repro.apps import AmrApplication
from repro.cluster import Platform
from repro.core import CooRMv2
from repro.core.events import RequestFinished
from repro.core.types import NON_PREEMPTIBLE, PREALLOCATION
from repro.models import SpeedupModel, WorkingSetEvolution
from repro.sim import Simulator
from repro.testing import linspace


@pytest.fixture
def evolution() -> WorkingSetEvolution:
    return WorkingSetEvolution(linspace(5_000.0, 100_000.0, 15))


def make_env(nodes=64):
    sim = Simulator()
    platform = Platform.single_cluster(nodes)
    rms = CooRMv2(platform, sim, rescheduling_interval=1.0)
    return sim, platform, rms


class TestConfiguration:
    def test_parameter_validation(self, evolution):
        with pytest.raises(ValueError):
            AmrApplication("a", evolution, preallocation_nodes=0)
        with pytest.raises(ValueError):
            AmrApplication("a", evolution, preallocation_nodes=4, target_efficiency=0.0)
        with pytest.raises(ValueError):
            AmrApplication("a", evolution, preallocation_nodes=4, announce_interval=-1.0)

    def test_required_nodes_capped_by_preallocation(self, evolution):
        app = AmrApplication("a", evolution, preallocation_nodes=10)
        assert app.required_nodes(len(evolution) - 1) <= 10
        assert app.required_nodes(0) >= 1

    def test_static_variant_always_wants_the_whole_preallocation(self, evolution):
        app = AmrApplication("a", evolution, preallocation_nodes=10, static_allocation=True)
        assert all(app.required_nodes(i) == 10 for i in range(len(evolution)))


class TestDynamicExecution:
    def test_runs_all_steps_and_releases_resources(self, evolution):
        sim, platform, rms = make_env()
        app = AmrApplication("amr", evolution, preallocation_nodes=40)
        app.connect(rms)
        sim.run()
        assert app.finished()
        assert app.current_step == evolution.num_steps
        assert len(app.step_records) == evolution.num_steps
        assert platform.cluster("cluster0").free_count() == 64
        # One pre-allocation plus at least one non-preemptible request were used.
        used = {PREALLOCATION.value: 0.0, NON_PREEMPTIBLE.value: 0.0}
        for finished in rms.event_log.of_kind(RequestFinished):
            if finished.app_id == "amr":
                used[finished.rtype] += finished.node_seconds
        assert used[PREALLOCATION.value] > 0
        assert used[NON_PREEMPTIBLE.value] > 0

    def test_allocation_tracks_the_working_set(self, evolution):
        sim, _, rms = make_env()
        app = AmrApplication("amr", evolution, preallocation_nodes=40)
        app.connect(rms)
        sim.run()
        nodes_per_step = [rec.node_count for rec in app.step_records]
        # The working set grows, so the allocation must grow too.
        assert nodes_per_step[-1] > nodes_per_step[0]
        assert max(nodes_per_step) <= 40

    def test_never_exceeds_preallocation(self, evolution):
        sim, _, rms = make_env()
        app = AmrApplication("amr", evolution, preallocation_nodes=8)
        app.connect(rms)
        sim.run()
        assert max(rec.node_count for rec in app.step_records) <= 8

    def test_step_durations_follow_the_speedup_model(self, evolution):
        sim, _, rms = make_env()
        model = SpeedupModel()
        app = AmrApplication("amr", evolution, preallocation_nodes=40, speedup_model=model)
        app.connect(rms)
        sim.run()
        for rec in app.step_records:
            assert rec.duration == pytest.approx(
                model.step_duration(rec.node_count, rec.data_size_mib)
            )
        assert app.used_node_seconds == pytest.approx(
            sum(rec.node_seconds for rec in app.step_records)
        )
        assert app.mean_nodes() > 0

    def test_computation_time_matches_step_durations(self, evolution):
        sim, _, rms = make_env()
        app = AmrApplication("amr", evolution, preallocation_nodes=40)
        app.connect(rms)
        sim.run()
        assert app.computation_time() == pytest.approx(
            sum(rec.duration for rec in app.step_records), rel=1e-6
        )


class TestStaticAndAnnounced:
    def test_static_run_uses_constant_allocation(self, evolution):
        sim, _, rms = make_env()
        app = AmrApplication("amr", evolution, preallocation_nodes=30, static_allocation=True)
        app.connect(rms)
        sim.run()
        assert app.finished()
        assert {rec.node_count for rec in app.step_records} == {30}

    def test_static_uses_more_node_seconds_than_dynamic(self, evolution):
        results = {}
        for label, static in (("dynamic", False), ("static", True)):
            sim, _, rms = make_env()
            app = AmrApplication(
                "amr", evolution, preallocation_nodes=40, static_allocation=static
            )
            app.connect(rms)
            sim.run()
            results[label] = app.used_node_seconds
        assert results["static"] > results["dynamic"]

    def test_announced_updates_slow_the_application_down(self, evolution):
        end_times = {}
        for interval in (0.0, 60.0):
            sim, _, rms = make_env()
            app = AmrApplication(
                "amr", evolution, preallocation_nodes=40, announce_interval=interval
            )
            app.connect(rms)
            sim.run()
            assert app.finished()
            end_times[interval] = app.computation_time()
        assert end_times[60.0] > end_times[0.0]

    def test_on_finished_callback_fires(self, evolution):
        sim, _, rms = make_env()
        app = AmrApplication("amr", evolution, preallocation_nodes=40)
        seen = []
        app.on_finished = seen.append
        app.connect(rms)
        sim.run()
        assert seen == [app]
