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


class TestLeasing:
    def test_leases_in_canonical_order(self):
        queue = filled(3)
        assert queue.lease("w0", now=0.0).key == "k0"
        assert queue.lease("w1", now=0.0).key == "k1"
        assert queue.lease("w0", now=0.0).key == "k2"
        assert queue.lease("w1", now=0.0) is None

    def test_lease_carries_the_task_payload(self):
        queue = filled(1)
        unit = queue.lease("w0", now=0.0)
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
            unit = queue.lease("w0", now=100.0 * attempt)
            assert unit is not None and unit.attempts == attempt
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
        assert queue.lease("w0", now=12.0) is None  # still backing off
        assert queue.lease("w0", now=15.0).key == "k0"

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
        assert queue.lease("w0", now=99.0) is None


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
        queue.lease("w0", now=0.0)
        queue.lease("w0", now=0.0)
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
