"""Work queue: leases, backoff retries, reclaim, dedup.

All timestamps are hand-rolled -- the queue never reads a clock -- so every
expiry and backoff boundary is tested exactly, without sleeping.
"""
from __future__ import annotations

import pytest

from repro.dist.workqueue import DONE, FAILED, LEASED, PENDING, WorkQueue


def filled(n=3, **kwargs) -> WorkQueue:
    queue = WorkQueue(**kwargs)
    for i in range(n):
        queue.add(f"k{i}", i, {"index": i})
    return queue


def keys(units) -> list:
    return [unit.key for unit in units]


class TestLeasing:
    def test_leases_in_canonical_order(self):
        queue = filled(3)
        assert keys(queue.lease("w0", now=0.0)) == ["k0"]
        assert keys(queue.lease("w1", now=0.0)) == ["k1"]
        assert keys(queue.lease("w0", now=0.0)) == ["k2"]
        assert queue.lease("w1", now=0.0) == []

    def test_lease_grants_up_to_limit_units_in_canonical_order(self):
        queue = filled(5)
        assert keys(queue.lease("w0", now=0.0, limit=2)) == ["k0", "k1"]
        assert keys(queue.lease("w1", now=0.0, limit=9)) == ["k2", "k3", "k4"]
        assert queue.lease("w0", now=0.0, limit=9) == []
        assert queue.stats.counters["leases"] == 5
        assert queue.stats.counters["grants"] == 2
        assert [queue.unit(f"k{i}").worker for i in range(5)] == ["w0", "w0", "w1", "w1", "w1"]

    def test_a_batch_skips_units_that_are_backing_off(self):
        queue = filled(4, backoff_base=5.0)
        queue.lease("w0", now=0.0, limit=2)
        queue.fail("k0", "w0", now=1.0)  # runnable again at 6.0
        assert keys(queue.lease("w1", now=2.0, limit=2)) == ["k2", "k3"]
        assert queue.lease("w1", now=5.9, limit=2) == []
        assert keys(queue.lease("w1", now=6.0, limit=2)) == ["k0"]

    def test_lease_carries_the_task_payload(self):
        queue = filled(1)
        (unit,) = queue.lease("w0", now=0.0)
        assert unit.task == {"index": 0}
        assert unit.attempts == 1
        assert unit.state == LEASED

    def test_duplicate_keys_are_rejected(self):
        queue = filled(1)
        with pytest.raises(ValueError, match="duplicate"):
            queue.add("k0", 9, {})

    def test_complete_marks_done_and_counts(self):
        queue = filled(1)
        queue.lease("w0", now=0.0)
        assert queue.complete("k0", "w0", now=1.0) is True
        assert queue.unit("k0").state == DONE
        assert queue.all_done()
        assert queue.stats.counters["completed"] == 1

    def test_duplicate_completion_is_a_counted_noop(self):
        queue = filled(1)
        queue.lease("w0", now=0.0)
        assert queue.complete("k0", "w0", now=1.0) is True
        assert queue.complete("k0", "w1", now=2.0) is False
        assert queue.stats.counters["dedup_hits"] == 1
        assert queue.stats.counters["completed"] == 1

    def test_late_result_from_a_reclaimed_worker_is_accepted_first_wins(self):
        # w0's lease expires and the unit is re-leased to w1; w0 then
        # reports first.  The work is valid regardless of which attempt
        # carried it, so the first result wins and w1's is deduplicated.
        queue = filled(1, lease_ttl=1.0)
        queue.lease("w0", now=0.0)
        queue.reclaim(now=2.0)
        queue.lease("w1", now=3.0)
        assert queue.complete("k0", "w0", now=3.5) is True
        assert queue.complete("k0", "w1", now=4.0) is False


class TestRetryAndBackoff:
    def test_failed_unit_backs_off_exponentially(self):
        queue = filled(1, backoff_base=1.0, backoff_cap=100.0, max_attempts=5)
        for attempt, expected_backoff in ((1, 1.0), (2, 2.0), (3, 4.0)):
            (unit,) = queue.lease("w0", now=100.0 * attempt)
            assert unit.attempts == attempt
            queue.fail("k0", "w0", now=100.0 * attempt, error="boom")
            assert unit.state == PENDING
            assert unit.not_before == 100.0 * attempt + expected_backoff

    def test_backoff_respects_the_cap(self):
        queue = filled(1, backoff_base=1.0, backoff_cap=3.0, max_attempts=10)
        for attempt in range(1, 5):
            queue.lease("w0", now=1000.0 * attempt)
            queue.fail("k0", "w0", now=1000.0 * attempt)
        assert queue.unit("k0").not_before <= 4000.0 + 3.0

    def test_unit_not_leasable_before_backoff_expires(self):
        queue = filled(1, backoff_base=5.0)
        queue.lease("w0", now=0.0)
        queue.fail("k0", "w0", now=10.0)
        assert queue.lease("w0", now=12.0) == []  # still backing off
        assert keys(queue.lease("w0", now=15.0)) == ["k0"]

    def test_max_attempts_fails_terminally(self):
        queue = filled(1, max_attempts=2, backoff_base=0.0)
        for _ in range(2):
            queue.lease("w0", now=0.0)
            queue.fail("k0", "w0", now=0.0, error="boom")
        unit = queue.unit("k0")
        assert unit.state == FAILED
        assert unit.error == "boom"
        assert queue.all_done()
        assert queue.failed_units() == [unit]
        assert queue.lease("w0", now=99.0) == []


class TestStaleErrors:
    """An error counts only when it comes from the holder of the current lease."""

    def test_late_error_leaves_the_new_holders_lease_alone(self):
        queue = filled(1, lease_ttl=1.0, backoff_base=0.0, max_attempts=4)
        queue.lease("w0", now=0.0)
        assert queue.reclaim(now=2.0) == ["k0"]
        (unit,) = queue.lease("w1", now=3.0)
        assert queue.fail("k0", "w0", now=3.5, error="late") == LEASED
        assert (unit.state, unit.worker, unit.attempts) == (LEASED, "w1", 2)
        assert unit.lease_deadline == 4.0 and unit.error == "lease expired"
        assert queue.stats.counters["stale_errors"] == 1
        assert queue.stats.counters["retries"] == 0
        assert queue.complete("k0", "w1", now=3.9) is True

    def test_late_errors_cannot_fail_a_running_unit_terminally(self):
        # The reproduction of the bug: at max_attempts, w0's late error
        # used to mark the unit FAILED under w1 (all_done() turned true),
        # and a second one bumped ``failed`` again.
        queue = filled(1, lease_ttl=1.0, backoff_base=0.0, max_attempts=2)
        queue.lease("w0", now=0.0)
        queue.reclaim(now=2.0)
        queue.lease("w1", now=3.0)
        for now in (3.1, 3.2):
            assert queue.fail("k0", "w0", now=now, error="late") == LEASED
        assert not queue.all_done()
        assert queue.complete("k0", "w1", now=3.5) is True
        counters = queue.stats.counters
        assert (counters["failed"], counters["completed"], counters["stale_errors"]) == (0, 1, 2)
        assert queue.failed_units() == []

    def test_error_for_a_reclaimed_unit_nobody_holds_burns_no_attempt(self):
        queue = filled(1, lease_ttl=1.0, backoff_base=4.0)
        queue.lease("w0", now=0.0)
        queue.reclaim(now=2.0)  # pending again, runnable at 6.0
        assert queue.fail("k0", "w0", now=3.0, error="late") == PENDING
        unit = queue.unit("k0")
        assert (unit.attempts, unit.not_before, unit.error) == (1, 6.0, "lease expired")
        assert queue.lease("w1", now=5.9) == []
        assert keys(queue.lease("w1", now=6.0)) == ["k0"]

    def test_errors_for_finished_units_are_counted_noops(self):
        queue = filled(2, max_attempts=1)
        queue.lease("w0", now=0.0, limit=2)
        queue.complete("k0", "w0", now=1.0)
        assert queue.fail("k1", "w0", now=1.0, error="boom") == FAILED
        assert queue.fail("k0", "w0", now=2.0) == DONE
        assert queue.fail("k1", "w0", now=2.0, error="again") == FAILED
        counters = queue.stats.counters
        assert (counters["failed"], counters["stale_errors"]) == (1, 2)
        assert queue.unit("k1").error == "boom"
        assert queue.all_done()


class TestReclaim:
    def test_expired_lease_is_reclaimed(self):
        queue = filled(1, lease_ttl=10.0)
        queue.lease("w0", now=0.0)
        assert queue.reclaim(now=5.0) == []
        assert queue.reclaim(now=11.0) == ["k0"]
        assert queue.unit("k0").state == PENDING
        assert queue.stats.counters["reclaims"] == 1

    def test_heartbeat_extends_every_lease_of_the_worker(self):
        queue = filled(2, lease_ttl=10.0)
        queue.lease("w0", now=0.0, limit=2)
        assert queue.heartbeat("w0", now=8.0) == 2
        assert queue.reclaim(now=15.0) == []  # extended to 18.0
        assert queue.reclaim(now=19.0) == ["k0", "k1"]

    def test_disconnect_releases_immediately(self):
        queue = filled(2, lease_ttl=1000.0)
        queue.lease("w0", now=0.0)
        queue.lease("w1", now=0.0)
        assert queue.release_worker("w0", now=1.0) == ["k0"]
        assert queue.unit("k0").state == PENDING
        assert queue.unit("k1").state == LEASED


class TestSnapshotAndJournal:
    def test_snapshot_has_flat_dist_counters_and_counts(self):
        queue = filled(2)
        queue.lease("w0", now=0.0)
        snapshot = queue.snapshot()
        assert snapshot["dist_leases"] == 1.0
        assert snapshot["units_pending"] == 1
        assert snapshot["units_leased"] == 1
        assert snapshot["units_total"] == 2

    def test_invalid_configuration_is_rejected(self):
        with pytest.raises(ValueError):
            WorkQueue(lease_ttl=0.0)
        with pytest.raises(ValueError):
            WorkQueue(max_attempts=0)
