"""Unit tests of the adaptive-job converter (repro.traces.convert)."""
from __future__ import annotations

import pytest

from repro.apps.evolving_predictable import FullyPredictableEvolvingApplication
from repro.apps.malleable import MalleableApplication
from repro.apps.moldable import MoldableApplication
from repro.apps.rigid import RigidApplication
from repro.core.errors import WorkloadError
from repro.traces import (
    AdaptiveMix,
    ConvertedJob,
    TraceModel,
    build_application,
    convert_trace,
    mix_counts,
    replay_horizon,
)


@pytest.fixture
def trace():
    return TraceModel().synthesize(120, seed=5)


class TestAdaptiveMix:
    def test_default_is_all_rigid(self, trace):
        jobs = convert_trace(trace, seed=0)
        assert all(j.kind == "rigid" for j in jobs)

    def test_fractions_realised_roughly(self, trace):
        mix = AdaptiveMix(rigid=0.25, moldable=0.25, malleable=0.25, evolving=0.25)
        counts = mix_counts(convert_trace(trace, mix=mix, seed=0))
        assert all(counts[kind] > 0 for kind in counts)

    def test_unnormalised_fractions_accepted(self):
        mix = AdaptiveMix(rigid=2.0, malleable=2.0)
        assert mix.pick(0.1) == "rigid"
        assert mix.pick(0.9) == "malleable"

    def test_parse(self):
        mix = AdaptiveMix.parse("rigid=0.5,evolving=0.5")
        assert mix.rigid == 0.5 and mix.evolving == 0.5 and mix.moldable == 0.0

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(WorkloadError, match="bad mix component"):
            AdaptiveMix.parse("elastic=1.0")

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveMix(rigid=0.0)
        with pytest.raises(ValueError):
            AdaptiveMix(rigid=-1.0, moldable=2.0)


class TestConvertTrace:
    def test_deterministic_and_order_independent(self, trace):
        mix = AdaptiveMix(rigid=0.5, malleable=0.5)
        once = convert_trace(trace, mix=mix, seed=9)
        again = convert_trace(trace, mix=mix, seed=9)
        assert once == again
        # The kind of a job depends only on (seed, job_id), not on the
        # other jobs: converting a sub-trace assigns identical kinds.
        sub = trace.with_jobs(trace.jobs[40:80])
        sub_kinds = {j.job_id: j.kind for j in convert_trace(sub, mix=mix, seed=9)}
        full_kinds = {j.job_id: j.kind for j in once}
        assert all(full_kinds[job_id] == kind for job_id, kind in sub_kinds.items())

    def test_seed_changes_assignment(self, trace):
        mix = AdaptiveMix(rigid=0.5, malleable=0.5)
        a = convert_trace(trace, mix=mix, seed=1)
        b = convert_trace(trace, mix=mix, seed=2)
        assert [j.kind for j in a] != [j.kind for j in b]

    def test_max_nodes_clamps(self, trace):
        jobs = convert_trace(trace, seed=0, max_nodes=4)
        assert all(j.node_count <= 4 for j in jobs)

    def test_accepts_rigid_job_specs(self):
        from repro.workloads.generator import RigidJobSpec

        specs = [RigidJobSpec("a", 0.0, 4, 60.0), RigidJobSpec("b", 5.0, 2, 30.0)]
        jobs = convert_trace(specs, seed=0)
        assert [j.job_id for j in jobs] == ["a", "b"]

    def test_replay_horizon(self):
        jobs = [
            ConvertedJob("rigid", "a", 0.0, 1, 50.0),
            ConvertedJob("rigid", "b", 100.0, 1, 25.0),
        ]
        assert replay_horizon(jobs) == 125.0


class TestBuildApplication:
    def make(self, kind: str, nodes: int = 8, duration: float = 120.0):
        return ConvertedJob(kind, "j1", 0.0, nodes, duration)

    def test_rigid(self):
        app = build_application(self.make("rigid"), cluster_nodes=64)
        assert isinstance(app, RigidApplication)
        assert app.node_count == 8 and app.duration == 120.0

    def test_moldable_candidates_work_conserving(self):
        app = build_application(self.make("moldable"), cluster_nodes=64)
        assert isinstance(app, MoldableApplication)
        assert 8 in app.candidates
        assert all(1 <= n <= 64 for n in app.candidates)
        # Work is conserved: n * walltime(n) is the original area.
        for n in app.candidates:
            assert n * app.walltime_model(n) == pytest.approx(8 * 120.0)

    def test_malleable_keeps_half_as_minimum(self):
        app = build_application(self.make("malleable"), cluster_nodes=64)
        assert isinstance(app, MalleableApplication)
        assert app.min_nodes == 4 and app.duration == 120.0

    def test_evolving_phases_preserve_area(self):
        app = build_application(self.make("evolving"), cluster_nodes=64)
        assert isinstance(app, FullyPredictableEvolvingApplication)
        assert app.planned_node_seconds() == pytest.approx(8 * 120.0)
        assert [p.node_count for p in app.phases] == [4, 8, 4]

    def test_evolving_single_node_degenerates_to_one_phase(self):
        app = build_application(self.make("evolving", nodes=1), cluster_nodes=64)
        assert len(app.phases) == 1

    def test_cluster_clamp(self):
        app = build_application(self.make("rigid", nodes=128), cluster_nodes=16)
        assert app.node_count == 16

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ConvertedJob("hybrid", "j", 0.0, 1, 1.0)
