"""Unit tests of the protocol event log and of the account read from it
(``test_record_stream.py`` checks on whole runs that the account balances)."""
from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core import Connected, EventLog, Request, RequestDone, RequestSubmitted, RequestType
from repro.core.events import Disconnected, RequestFinished, ViewsPushed
from repro.metrics.collector import SimulationMetrics, allocations, clip_node_seconds
from repro.testing import RecordingApp, make_env


class TestEventLog:
    def test_record_and_query(self):
        log = EventLog()
        log.record(Connected(0.0, "a"))
        log.record(RequestSubmitted(1.0, "a", request_id=1, rtype="nonP", node_count=4, duration=10))
        log.record(RequestDone(5.0, "a", request_id=1))
        log.record(Connected(6.0, "b"))

        assert len(log) == 4
        assert [e.kind for e in log] == [
            "Connected", "RequestSubmitted", "RequestDone", "Connected",
        ]
        assert len(log.of_kind(Connected)) == 2
        assert len(log.for_app("a")) == 3
        assert log.last().app_id == "b"
        assert log.last(RequestDone).request_id == 1
        assert log.all()[0].time == 0.0

    def test_last_on_empty_log(self):
        assert EventLog().last() is None
        assert EventLog().last(Connected) is None

    def test_records_are_immutable_values(self):
        pushed = ViewsPushed(2.0, "a", non_preemptive_total=4.0, preemptive_total=1.0)
        assert pushed == ViewsPushed(2.0, "a", 4.0, 1.0)
        assert pushed != ViewsPushed(2.0, "a", 4.0, 2.0)
        assert Connected(0.0, "a") != Disconnected(0.0, "a")
        assert hash(pushed) == hash(ViewsPushed(2.0, "a", 4.0, 1.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            pushed.preemptive_total = 3.0
        # Slotted: no per-instance dict to grow an attribute in.
        assert not hasattr(pushed, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            pushed.note = "x"
        assert pushed.kind == "ViewsPushed" and pushed.preemptive_total == 1.0


def _finished(nodes, started_at, end, rtype="nonP"):
    return RequestFinished(end, "a", 1, rtype, nodes, not math.isnan(started_at), False,
                           started_at, "c")


def _mixed_run():
    """'a' holds a pre-allocation of 8 nodes for 100 s and uses 4 nodes for
    50 s; 'b' uses 2 preemptible nodes for 30 s and withdraws a request that
    never fits."""
    sim, _platform, rms = make_env(nodes=16)
    rms.connect(RecordingApp("a"), "a")
    rms.connect(RecordingApp("b"), "b")
    rms.submit("a", Request("cluster0", 8, 100.0, RequestType.PREALLOCATION))
    rms.submit("a", Request("cluster0", 4, 50.0, RequestType.NON_PREEMPTIBLE))
    rms.submit("b", Request("cluster0", 2, 30.0, RequestType.PREEMPTIBLE))
    never = rms.submit("b", Request("cluster0", 16, 10.0, RequestType.NON_PREEMPTIBLE))
    sim.run(until=20.0)
    rms.done("b", never)
    sim.run(until=300.0)
    return rms


class TestAccount:
    def test_node_seconds_of_a_finished_request(self):
        assert _finished(3, 5.0, 15.0).node_seconds == 30.0
        assert _finished(3, 15.0, 15.0).node_seconds == 0.0
        assert _finished(0, math.nan, 15.0).node_seconds == 0.0  # never started

    def test_clip_node_seconds_keeps_what_lies_in_the_window(self):
        record = _finished(4, 10.0, 30.0)
        assert clip_node_seconds(record, 0.0, 100.0) == 80.0
        assert clip_node_seconds(record, 20.0, 100.0) == 40.0
        assert clip_node_seconds(record, 0.0, 15.0) == 20.0
        assert clip_node_seconds(record, 40.0, 100.0) == 0.0

    def test_allocations_are_the_started_requests_that_held_nodes(self):
        rms = _mixed_run()
        finished = rms.event_log.of_kind(RequestFinished)
        assert [(e.rtype, e.started) for e in finished] == [
            ("nonP", False), ("P", True), ("nonP", True), ("PA", True),
        ]
        # Neither the withdrawn request nor the pre-allocation, in log order.
        assert allocations(rms) == list(finished[1:3])
        assert [(e.app_id, e.nodes, e.started_at, e.time, e.cluster_id)
                for e in allocations(rms)] == [
            ("b", 2, 0.0, 30.0, "cluster0"), ("a", 4, 0.0, 50.0, "cluster0"),
        ]

    def test_usage_and_metrics_sum_the_same_records(self):
        rms = _mixed_run()
        # A pre-allocation reserves nodes; it does not use them.
        assert rms.used_node_seconds == {"b": 60.0, "a": 200.0}
        assert SimulationMetrics.collect(rms, horizon=200.0).total_allocated_node_seconds == 260.0
        # A shorter window clips 'a''s 50 s to 40 s.
        assert SimulationMetrics.collect(rms, horizon=40.0).total_allocated_node_seconds == 220.0
