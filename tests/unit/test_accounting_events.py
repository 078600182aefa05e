"""Unit tests of the accounting extension and the protocol event log."""
from __future__ import annotations

import dataclasses

import pytest

from repro.core import (
    Accountant,
    AllocationRecord,
    Connected,
    EventLog,
    RequestDone,
    RequestSubmitted,
    RequestType,
)
from repro.core.events import Disconnected, ViewsPushed


class TestAccountant:
    def test_record_and_summaries(self):
        acc = Accountant()
        acc.record_interval("a", 1, RequestType.NON_PREEMPTIBLE, "c", 4, 0.0, 100.0)
        acc.record_interval("a", 2, RequestType.PREEMPTIBLE, "c", 2, 0.0, 50.0)
        acc.record_interval("a", 3, RequestType.PREALLOCATION, "c", 10, 0.0, 100.0)
        acc.record_interval("b", 4, RequestType.PREEMPTIBLE, "c", 8, 10.0, 20.0)

        summary = acc.summary("a")
        assert summary.non_preemptible_node_seconds == pytest.approx(400.0)
        assert summary.preemptible_node_seconds == pytest.approx(100.0)
        assert summary.preallocated_node_seconds == pytest.approx(1000.0)
        assert summary.used_node_seconds == pytest.approx(500.0)
        assert summary.reserved_unused_node_seconds == pytest.approx(600.0)

        assert set(acc.summaries()) == {"a", "b"}
        assert acc.total_used_node_seconds() == pytest.approx(400 + 100 + 80)
        by_type = acc.used_node_seconds_by_type()
        assert by_type[RequestType.PREALLOCATION] == pytest.approx(1000.0)

    def test_reservation_charging(self):
        acc = Accountant(reservation_charge_factor=0.5)
        acc.record_interval("a", 1, RequestType.NON_PREEMPTIBLE, "c", 4, 0.0, 100.0)
        acc.record_interval("a", 2, RequestType.PREALLOCATION, "c", 10, 0.0, 100.0)
        # 400 used + 0.5 * (1000 - 400) reserved-but-unused.
        assert acc.charge("a") == pytest.approx(400 + 0.5 * 600)

    def test_zero_charge_factor_only_bills_usage(self):
        acc = Accountant()
        acc.record_interval("a", 1, RequestType.PREALLOCATION, "c", 10, 0.0, 100.0)
        assert acc.charge("a") == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            Accountant(reservation_charge_factor=2.0)
        acc = Accountant()
        with pytest.raises(ValueError):
            acc.record(
                AllocationRecord("a", 1, RequestType.PREEMPTIBLE, "c", 1, 10.0, 5.0)
            )

    def test_record_node_seconds(self):
        rec = AllocationRecord("a", 1, RequestType.PREEMPTIBLE, "c", 3, 5.0, 15.0)
        assert rec.node_seconds == pytest.approx(30.0)


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
