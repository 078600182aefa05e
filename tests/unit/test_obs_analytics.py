"""Unit tests of the obs analytics layer: timeline, lifecycle, SLO, trajectory."""
from __future__ import annotations

import json

import pytest

from repro.obs import (
    DEFAULT_SLO,
    EventTracer,
    SLOSpec,
    Timeline,
    TimelineBuilder,
    build_audits,
    evaluate_slo,
    summarize_audits,
)
from repro.obs.lifecycle import audits_to_json, percentile
from repro.obs.timeline import sparkline


def lifecycle_tracer() -> EventTracer:
    """A hand-built two-job trace exercising every lifecycle transition.

    job ``a``: submit at 0, scheduler defers it once, starts 4 nodes at 10,
    grows to 6 at 20, shrinks to 2 at 30, disconnects at 50.
    job ``b``: submit at 5, never starts, killed at 25.
    """
    t = EventTracer()
    t.emit(0.0, "rms", "connect", {"app": "a"})
    t.emit(0.0, "rms", "submit", {"app": "a", "req": 1, "nodes": 4})
    t.emit(2.0, "scheduler", "fit", {"app": "a", "deferred": 1})
    t.emit(5.0, "rms", "connect", {"app": "b"})
    t.emit(5.0, "rms", "submit", {"app": "b", "req": 1, "nodes": 8})
    t.emit(6.0, "scheduler", "fit", {"app": "a", "reserved": 1})
    t.emit(10.0, "rms", "start", {"app": "a", "req": 1, "nodes": 4})
    t.counter(10.0, "rms", "allocated", {"c0": 4.0})
    t.emit(20.0, "rms", "submit", {"app": "a", "req": 2, "nodes": 2})
    t.emit(20.0, "rms", "start", {"app": "a", "req": 2, "nodes": 2})
    t.counter(20.0, "rms", "allocated", {"c0": 6.0})
    t.emit(25.0, "rms", "kill", {"app": "b", "reason": "test"})
    t.emit(30.0, "rms", "finish", {"app": "a", "req": 1, "nodes": 4})
    t.counter(30.0, "rms", "allocated", {"c0": 2.0})
    t.emit(50.0, "rms", "finish", {"app": "a", "req": 2, "nodes": 2})
    t.counter(50.0, "rms", "allocated", {"c0": 0.0})
    t.emit(50.0, "rms", "disconnect", {"app": "a"})
    return t


class TestTimeline:
    def test_step_series_sampling(self):
        tracer = EventTracer()
        tracer.emit(0.0, "rms", "platform", {"clusters": {"c0": 10}})
        tracer.counter(0.0, "rms", "allocated", {"c0": 0.0})
        tracer.counter(4.0, "rms", "allocated", {"c0": 5.0})
        tracer.counter(8.0, "rms", "allocated", {"c0": 10.0})
        timeline = TimelineBuilder(samples=8).build(tracer.events)
        assert timeline.capacity == {"c0": 10}
        assert timeline.t0 == 0.0 and timeline.t1 == 8.0
        # Step function: value holds between breakpoints.
        assert timeline.series["alloc[c0]"] == [0, 0, 0, 0, 5, 5, 5, 5, 10]
        assert timeline.series["util.pct"] == [0, 0, 0, 0, 50, 50, 50, 50, 100]

    def test_job_count_series(self):
        timeline = TimelineBuilder(samples=10).build(lifecycle_tracer().events)
        times = timeline.times()
        running = dict(zip(times, timeline.series["jobs.running"]))
        completed = dict(zip(times, timeline.series["jobs.completed"]))
        assert running[5.0] == 0.0  # both still waiting
        assert running[15.0] == 1.0  # a started at 10
        assert completed[30.0] == 1.0  # b killed at 25
        assert completed[50.0] == 2.0  # a disconnected at 50

    def test_json_round_trip_is_byte_exact(self):
        timeline = TimelineBuilder().build(lifecycle_tracer().events)
        text = timeline.to_json()
        assert Timeline.from_json(text).to_json() == text

    def test_empty_trace(self):
        timeline = TimelineBuilder().build([])
        assert timeline.series == {} and timeline.event_count == 0
        assert timeline.times()[0] == 0.0

    def test_builder_rejects_bad_samples(self):
        with pytest.raises(ValueError, match="samples must be positive"):
            TimelineBuilder(samples=0)

    def test_stats(self):
        timeline = TimelineBuilder(samples=4).build(lifecycle_tracer().events)
        stats = timeline.stats("jobs.running")
        assert stats["min"] == 0.0 and stats["max"] == 1.0
        with pytest.raises(KeyError):
            timeline.stats("nope")


class TestSparkline:
    def test_renders_ramp(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0], width=4)
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_flat_series_uses_lowest_glyph(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_downsamples_deterministically(self):
        values = [float(i) for i in range(100)]
        assert sparkline(values, width=10) == sparkline(values, width=10)
        assert len(sparkline(values, width=10)) == 10

    def test_empty(self):
        assert sparkline([]) == ""


class TestLifecycle:
    def test_two_job_audit(self):
        audits = build_audits(lifecycle_tracer().events)
        assert [a.app for a in audits] == ["a", "b"]
        a, b = audits

        assert a.queue_wait == 10.0
        assert a.runtime == 40.0
        assert a.turnaround == 50.0
        assert a.slowdown == pytest.approx(1.25)
        assert a.submitted_requests == 2
        assert a.started_requests == 2
        assert a.finished_requests == 2
        assert a.grows == 1  # second start while running
        assert a.node_seconds == pytest.approx(4 * 10 + 6 * 10 + 2 * 20)
        # Wait breakdown: submit->first fit (2s pre_sched), fit said
        # deferred until the next fit (4s), then reserved until start (4s).
        assert a.wait_breakdown == {
            "pre_sched": 2.0, "deferred": 4.0, "reserved": 4.0, "held": 0.0,
        }

        assert b.killed and b.first_start_ts is None
        assert b.queue_wait is None and b.slowdown is None
        assert b.end_ts == 25.0

    def test_open_ended_jobs_clamp_to_last_event(self):
        tracer = EventTracer()
        tracer.emit(0.0, "rms", "connect", {"app": "x"})
        tracer.emit(1.0, "rms", "start", {"app": "x", "nodes": 2})
        tracer.emit(11.0, "engine", "dispatch", {"callback": "f"})
        (audit,) = build_audits(tracer.events)
        assert audit.end_ts == 11.0
        assert audit.node_seconds == pytest.approx(20.0)

    def test_bounded_slowdown_floors_tiny_jobs(self):
        tracer = EventTracer()
        tracer.emit(0.0, "rms", "connect", {"app": "x"})
        tracer.emit(100.0, "rms", "start", {"app": "x", "nodes": 1})
        tracer.emit(101.0, "rms", "disconnect", {"app": "x"})
        (audit,) = build_audits(tracer.events)
        assert audit.slowdown == pytest.approx(101.0)
        # tau = 10 s floors the runtime: max(1, 101 / 10).
        assert audit.bounded_slowdown == pytest.approx(10.1)

    def test_summary_and_json(self):
        audits = build_audits(lifecycle_tracer().events)
        summary = summarize_audits(audits)
        assert summary["jobs"] == 2.0
        assert summary["started"] == 1.0
        assert summary["killed"] == 1.0
        assert summary["wait_p95"] == 10.0
        assert summary["wait_pre_sched_seconds"] == pytest.approx(22.0)  # a: 2, b: 20
        text = audits_to_json(audits)
        parsed = json.loads(text)
        assert parsed[1]["queue_wait"] is None  # JSON-safe missing values
        assert audits_to_json(build_audits(lifecycle_tracer().events)) == text

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 50.0) == 2.0
        assert percentile(values, 95.0) == 4.0
        assert percentile([], 95.0) == 0.0


class TestSLO:
    def test_rejects_malformed_specs(self):
        with pytest.raises(ValueError, match="no objectives"):
            SLOSpec(name="empty", objectives=())
        with pytest.raises(ValueError, match="unknown objective kind"):
            SLOSpec(name="bad", objectives=({"kind": "nope"},))
        with pytest.raises(ValueError, match="missing"):
            SLOSpec(name="bad", objectives=({"kind": "p95_wait"},))
        with pytest.raises(ValueError, match="invalid SLO spec JSON"):
            SLOSpec.from_json("{nope")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(DEFAULT_SLO.to_json(), encoding="utf-8")
        assert SLOSpec.load(str(path)).name == "default"

    def test_violations_detected(self):
        audits = build_audits(lifecycle_tracer().events)  # job a waits 10 s
        strict = SLOSpec(
            name="strict",
            objectives=(
                {"kind": "p95_wait", "max_seconds": 5.0},
                {"kind": "attainment", "wait_seconds": 5.0, "min_percent": 50.0},
            ),
        )
        report = evaluate_slo(strict, audits)
        assert not report.passed and report.violations == 2
        flat = report.to_flat()
        assert flat["slo.passed"] == 0.0
        assert flat["slo.p95_wait"] == 10.0
        assert flat["slo.attainment"] == 0.0

    def test_utilization_needs_a_timeline(self):
        audits = build_audits(lifecycle_tracer().events)
        spec = SLOSpec(
            name="util", objectives=({"kind": "utilization", "min_percent": 1.0},)
        )
        skipped = evaluate_slo(spec, audits, timeline=None)
        assert skipped.passed and skipped.results[0]["skipped"]
        assert "slo.utilization" not in skipped.to_flat()

        tracer = EventTracer()
        tracer.emit(0.0, "rms", "platform", {"clusters": {"c0": 10}})
        tracer.counter(0.0, "rms", "allocated", {"c0": 5.0})
        tracer.counter(10.0, "rms", "allocated", {"c0": 5.0})
        timeline = TimelineBuilder(samples=2).build(tracer.events)
        measured = evaluate_slo(spec, audits, timeline)
        assert measured.results[0]["measured"] == 50.0
        assert measured.passed


class TestDegeneratePaths:
    def test_summarize_zero_audits_is_flat_and_finite(self):
        summary = summarize_audits([])
        assert summary["jobs"] == 0.0
        assert summary["wait_mean"] == 0.0
        assert summary["bounded_slowdown_max"] == 0.0
        json.dumps(summary, allow_nan=False)  # no inf/nan sneaks in

    def test_timeline_on_a_zero_job_event_stream(self):
        tracer = EventTracer()
        tracer.emit(0.0, "engine", "dispatch", {"callback": "tick"})
        tracer.emit(10.0, "engine", "dispatch", {"callback": "tick"})
        timeline = TimelineBuilder(samples=4).build(tracer.events)
        assert "jobs.running" not in timeline.series
        assert timeline.series["engine.dispatched"][-1] == 2.0
        assert build_audits(tracer.events) == []


def faulted_tracer() -> EventTracer:
    """A hand-built fault trace: crash at 20, outage 40-70, recovery at 90."""
    t = EventTracer()
    t.emit(0.0, "rms", "platform", {"clusters": {"c0": 8, "c1": 8}})
    t.counter(0.0, "rms", "allocated", {"c0": 4.0})
    t.emit(0.0, "fault", "plan", {"plan": "p", "events": 3})
    t.emit(20.0, "rms", "capacity", {"cluster": "c0", "nodes": 4, "killed": ["j"]})
    t.emit(20.0, "fault", "crash", {"member": "c0", "nodes": 4, "killed": ["j"]})
    t.emit(40.0, "rms", "capacity", {"cluster": "c1", "nodes": 0, "killed": []})
    t.emit(40.0, "fault", "outage", {"member": "c1", "killed": []})
    t.counter(40.0, "fault", "down", {"members": 1.0})
    t.emit(70.0, "rms", "capacity", {"cluster": "c1", "nodes": 8, "killed": []})
    t.emit(70.0, "fault", "recover", {"member": "c1", "nodes": 8})
    t.counter(70.0, "fault", "down", {"members": 0.0})
    t.emit(90.0, "rms", "capacity", {"cluster": "c0", "nodes": 8, "killed": []})
    t.emit(90.0, "fault", "restart", {"member": "c0", "nodes": 4})
    return t


class TestFaultTimeline:
    def test_capacity_and_fault_series(self):
        timeline = TimelineBuilder(samples=9).build(faulted_tracer().events)
        times = timeline.times()
        total = dict(zip(times, timeline.series["capacity.total"]))
        assert total[30.0] == 12.0  # after the c0 crash
        assert total[50.0] == 4.0  # c1 blacked out
        assert total[90.0] == 16.0  # everything restored
        down = dict(zip(times, timeline.series["fault.down"]))
        assert down[50.0] == 1.0 and down[80.0] == 0.0
        # Cumulative fault events exclude the informational plan record.
        assert timeline.series["fault.events"][-1] == 4.0

    def test_resized_capacity_keeps_util_truthful(self):
        t = EventTracer()
        t.emit(0.0, "rms", "platform", {"clusters": {"c0": 8}})
        t.counter(0.0, "rms", "allocated", {"c0": 4.0})
        t.emit(5.0, "rms", "capacity", {"cluster": "c0", "nodes": 4, "killed": []})
        t.counter(5.0, "rms", "allocated", {"c0": 4.0})
        t.counter(10.0, "rms", "allocated", {"c0": 4.0})
        timeline = TimelineBuilder(samples=2).build(t.events)
        # 4/8 before the shrink, 4/4 afterwards.
        assert timeline.series["util.pct"] == [50.0, 100.0, 100.0]

    def test_time_to_recover_objective(self):
        timeline = TimelineBuilder(samples=9).build(faulted_tracer().events)
        audits = build_audits(faulted_tracer().events)
        spec = SLOSpec(
            name="recovery",
            objectives=({"kind": "time_to_recover", "max_seconds": 40.0},),
        )
        report = evaluate_slo(spec, audits, timeline)
        (result,) = report.results
        # The down span covers the 40-70 outage, to within one grid step.
        assert result["ok"] is True
        assert 20.0 <= result["measured"] <= 40.0
        strict = SLOSpec(
            name="strict",
            objectives=({"kind": "time_to_recover", "max_seconds": 10.0},),
        )
        assert not evaluate_slo(strict, audits, timeline).passed

    def test_time_to_recover_skipped_without_fault_series(self):
        spec = SLOSpec(
            name="recovery",
            objectives=({"kind": "time_to_recover", "max_seconds": 10.0},),
        )
        audits = build_audits(lifecycle_tracer().events)
        for timeline in (None, TimelineBuilder().build(lifecycle_tracer().events)):
            report = evaluate_slo(spec, audits, timeline)
            assert report.passed and report.results[0]["skipped"]
