"""Unit tests of the rigid and moldable application behaviours (Section 4)."""
from __future__ import annotations

import math

import pytest

from repro.apps import MoldableApplication, RigidApplication
from repro.cluster import Platform
from repro.core import CooRMv2, RequestError
from repro.sim import Simulator


def make_env(nodes=16):
    sim = Simulator()
    platform = Platform.single_cluster(nodes)
    rms = CooRMv2(platform, sim, rescheduling_interval=1.0)
    return sim, platform, rms


class TestRigidApplication:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RigidApplication("r", node_count=0, duration=10)
        with pytest.raises(ValueError):
            RigidApplication("r", node_count=4, duration=0)
        with pytest.raises(ValueError):
            RigidApplication("r", node_count=4, duration=math.inf)

    def test_runs_to_completion(self):
        sim, platform, rms = make_env()
        app = RigidApplication("rigid", node_count=4, duration=100.0)
        app.connect(rms)
        sim.run()
        assert app.finished()
        assert app.request.started()
        assert app.wait_time() == pytest.approx(1.0, abs=1.0)  # one re-scheduling interval
        assert platform.cluster("cluster0").free_count() == 16

    def test_queues_behind_another_rigid_job(self):
        sim, _, rms = make_env(nodes=8)
        first = RigidApplication("first", node_count=8, duration=100.0)
        second = RigidApplication("second", node_count=8, duration=50.0)
        first.connect(rms)
        second.connect(rms)
        sim.run()
        assert first.finished() and second.finished()
        assert second.start_time >= first.start_time + 100.0 - 1e-6
        assert second.finished_at > first.finished_at

    def test_ignores_view_updates(self):
        sim, _, rms = make_env()
        app = RigidApplication("rigid", node_count=4, duration=50.0)
        app.connect(rms)
        sim.run(until=5.0)
        # Pushing more views must not create additional requests.
        assert len(rms.sessions["rigid"].requests.non_preemptible) == 1


class TestMoldableApplication:
    @staticmethod
    def walltime(nodes: int) -> float:
        """A perfectly scalable 1600 node-second job."""
        return 1600.0 / nodes

    def test_requires_candidates(self):
        with pytest.raises(ValueError):
            MoldableApplication("m", candidate_node_counts=[], walltime_model=self.walltime)

    def test_picks_the_largest_useful_node_count_on_an_empty_cluster(self):
        sim, _, rms = make_env(nodes=16)
        app = MoldableApplication(
            "moldable", candidate_node_counts=[1, 2, 4, 8, 16], walltime_model=self.walltime
        )
        app.connect(rms)
        sim.run()
        assert app.finished()
        assert app.chosen_nodes == 16
        assert app.request.duration == pytest.approx(100.0)

    def test_adapts_to_a_busy_cluster(self):
        sim, _, rms = make_env(nodes=16)
        blocker = RigidApplication("blocker", node_count=12, duration=1000.0)
        blocker.connect(rms)
        sim.run(until=5.0)
        app = MoldableApplication(
            "moldable", candidate_node_counts=[4, 16], walltime_model=self.walltime
        )
        app.connect(rms)
        sim.run(until=10.0)
        # 16 nodes would only be free after the blocker ends (t=1001); running
        # on 4 nodes right away finishes earlier (400 s), so the moldable
        # application must choose 4 nodes.
        assert app.chosen_nodes == 4
        sim.run()
        assert app.finished()
        assert app.finished_at < 1000.0

    def test_reselects_when_views_change_before_start(self):
        sim, _, rms = make_env(nodes=16)
        # The moldable job is submitted while the cluster is fully busy for a
        # long time, so it initially settles for few nodes...
        blocker = RigidApplication("blocker", node_count=16, duration=500.0)
        blocker.connect(rms)
        sim.run(until=5.0)
        app = MoldableApplication(
            "moldable", candidate_node_counts=[2, 16], walltime_model=self.walltime
        )
        app.connect(rms)
        sim.run(until=10.0)
        first_choice = app.chosen_nodes
        # ...then the blocker finishes early and the RMS pushes new views;
        # the moldable application re-runs its selection.
        rms.done("blocker", blocker.request)
        sim.run(until=20.0)
        assert len(app.selection_history) >= 2
        sim.run()
        assert app.finished()
        assert app.chosen_nodes == 16 or first_choice == 16

    def test_waits_while_the_cluster_is_smaller_than_every_candidate(self):
        """A fault plan may shrink a member below the smallest candidate."""
        sim, _, rms = make_env(nodes=16)
        blocker = RigidApplication("blocker", node_count=16, duration=50.0)
        blocker.connect(rms)
        sim.run(until=5.0)
        app = MoldableApplication(
            "moldable", candidate_node_counts=[8, 16], walltime_model=self.walltime
        )
        app.connect(rms)
        sim.run(until=10.0)
        assert app.request is not None and not app.request.started()
        # The crash kills the blocker and leaves nothing to select from: the
        # "nothing fits" fallback would be refused, so the application waits.
        rms.set_capacity(0, reason="crash")
        sim.run(until=20.0)
        assert app.request is None and not app.killed
        rms.set_capacity(16, reason="restart")
        sim.run()
        assert app.finished()
        assert app.chosen_nodes == 16

    def test_an_unknown_cluster_is_still_a_loud_error(self):
        sim, _, rms = make_env(nodes=16)
        app = MoldableApplication(
            "moldable", candidate_node_counts=[4], walltime_model=self.walltime,
            cluster_id="elsewhere",
        )
        app.connect(rms)
        with pytest.raises(RequestError, match="unknown cluster"):
            sim.run()
