"""Property tests: the indexed WorkQueue vs the linear-scan reference.

``WorkQueue`` used to walk every unit for ``all_done()`` and ``reclaim()``
(once or twice per poll round) and rescan its order list from the top for
every lease.  It now keeps an open-unit counter, a heap of pending positions
and a map of live leases.  ``ReferenceWorkQueue`` keeps the scanning code as
the oracle: random sequences of add / lease(limit) / complete / fail /
heartbeat / reclaim / release_worker, at hand-rolled timestamps that land on
and around every backoff and lease boundary, must give the same return
values, unit states, ``attempts``, ``not_before`` and counters after every
step -- late, duplicate and stale reports included.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.workqueue import DONE, FAILED, LEASED, PENDING, QueueStats, WorkQueue, WorkUnit

LEASE_TTL, MAX_ATTEMPTS, BACKOFF_BASE, BACKOFF_CAP = 4.0, 3, 1.0, 3.0


class ReferenceWorkQueue:
    """The pre-optimisation semantics: one dict, a linear scan per question."""

    def __init__(self):
        self.stats = QueueStats()
        self._units = {}

    def add(self, key, index, task):
        if key in self._units:
            raise ValueError(f"duplicate unit key {key!r}")
        self._units[key] = WorkUnit(key=key, index=index, task=dict(task),
                                    position=len(self._units))

    def unit(self, key):
        return self._units[key]

    def lease(self, worker, now, limit=1):
        granted = []
        for unit in self._units.values():
            if len(granted) >= limit:
                break
            if unit.state != PENDING or now < unit.not_before:
                continue
            unit.state = LEASED
            unit.worker = worker
            unit.attempts += 1
            unit.lease_deadline = now + LEASE_TTL
            self.stats.bump("leases")
            granted.append(unit)
        if granted:
            self.stats.bump("grants")
        return granted

    def complete(self, key, worker, now):
        unit = self.unit(key)
        if unit.state == DONE:
            self.stats.bump("dedup_hits")
            return False
        unit.state = DONE
        unit.error = ""
        self.stats.bump("completed")
        return True

    def fail(self, key, worker, now, error=""):
        unit = self.unit(key)
        if unit.state != LEASED or unit.worker != worker:
            self.stats.bump("stale_errors")
            return unit.state
        self._retry(unit, now, error, "retries")
        return unit.state

    def heartbeat(self, worker, now):
        extended = 0
        for unit in self._units.values():
            if unit.state == LEASED and unit.worker == worker:
                unit.lease_deadline = now + LEASE_TTL
                extended += 1
        if extended:
            self.stats.bump("heartbeats")
        return extended

    def _retry(self, unit, now, error, counter):
        unit.worker = ""
        unit.lease_deadline = 0.0
        unit.error = error
        if unit.attempts >= MAX_ATTEMPTS:
            unit.state = FAILED
            self.stats.bump("failed")
            return
        unit.state = PENDING
        unit.not_before = now + min(BACKOFF_CAP, BACKOFF_BASE * 2 ** max(0, unit.attempts - 1))
        self.stats.bump(counter)

    def reclaim(self, now):
        reclaimed = []
        for unit in self._units.values():
            if unit.state == LEASED and unit.lease_deadline < now:
                self._retry(unit, now, "lease expired", "reclaims")
                reclaimed.append(unit.key)
        return reclaimed

    def release_worker(self, worker, now):
        released = []
        for unit in self._units.values():
            if unit.state == LEASED and unit.worker == worker:
                self._retry(unit, now, "worker disconnected", "reclaims")
                released.append(unit.key)
        return released

    def all_done(self):
        return all(u.state in (DONE, FAILED) for u in self._units.values())

    def counts(self):
        out = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
        for unit in self._units.values():
            out[unit.state] += 1
        return out

    def failed_units(self):
        return [u for u in self._units.values() if u.state == FAILED]

    def leased_units(self):
        return [u for u in self._units.values() if u.state == LEASED]


_WORKER = st.sampled_from(["w0", "w1", "w2"])
_UNIT = st.integers(0, 11)
#: Time steps on a half-second grid: with TTL 4 and backoffs 1/2/3 every
#: deadline and ``not_before`` is a grid point, so sequences hit them exactly,
#: just before and just after; negative steps are a clock read out of order.
_DELTA = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, -0.5])
_STEP = st.one_of(
    st.tuples(st.just("add")),
    st.tuples(st.just("lease"), _WORKER, st.integers(0, 5)),
    st.tuples(st.just("complete"), _UNIT, _WORKER),
    st.tuples(st.just("fail"), _UNIT, _WORKER),
    st.tuples(st.just("heartbeat"), _WORKER),
    st.tuples(st.just("reclaim")),
    st.tuples(st.just("release_worker"), _WORKER),
)


def _apply(queue, step, now):
    """Run one generated step; returns a comparable rendering of its result."""
    name, args = step[0], step[1:]
    if name == "add":
        position = len(queue._units)
        return queue.add(f"k{position}", position, {"n": position})
    if name == "lease":
        return [unit.key for unit in queue.lease(args[0], now, limit=args[1])]
    if name in ("complete", "fail"):
        if not queue._units:
            return None
        key = f"k{args[0] % len(queue._units)}"
        return getattr(queue, name)(key, args[1], now)
    if name in ("heartbeat", "release_worker"):
        return getattr(queue, name)(args[0], now)
    return queue.reclaim(now)


def _state(queue):
    return (
        [
            (u.key, u.position, u.state, u.attempts, u.worker, u.lease_deadline,
             u.not_before, u.error)
            for u in queue._units.values()
        ],
        queue.stats.counters,
        queue.all_done(),
        queue.counts(),
        [u.key for u in queue.failed_units()],
        [u.key for u in queue.leased_units()],
    )


@settings(max_examples=400, deadline=None)
@given(
    preloaded=st.integers(0, 8),
    steps=st.lists(st.tuples(_STEP, _DELTA), max_size=40),
)
def test_queue_matches_the_linear_scan_reference(preloaded, steps):
    queue = WorkQueue(lease_ttl=LEASE_TTL, max_attempts=MAX_ATTEMPTS,
                      backoff_base=BACKOFF_BASE, backoff_cap=BACKOFF_CAP)
    reference = ReferenceWorkQueue()
    now = 10.0
    for step, delta in [(("add",), 0.0)] * preloaded + steps:
        now += delta
        assert _apply(queue, step, now) == _apply(reference, step, now), step
        assert _state(queue) == _state(reference), step
        assert queue.unleased() == reference.counts()[PENDING]


def test_a_unit_completed_while_pending_is_never_leased_again():
    """The stale heap entry of a late-completed unit is dropped, not granted."""
    queue = WorkQueue(lease_ttl=1.0, backoff_base=0.0)
    for i in range(3):
        queue.add(f"k{i}", i, {})
    queue.lease("w0", now=0.0)
    queue.reclaim(now=2.0)  # k0 pending again
    assert queue.complete("k0", "w0", now=2.5) is True  # late, first, accepted
    assert [u.key for u in queue.lease("w1", now=3.0, limit=5)] == ["k1", "k2"]
    assert queue.lease("w1", now=3.0, limit=5) == []
    assert queue.unleased() == 0 and not queue.all_done()


def test_reclaimed_keys_come_in_canonical_order_not_lease_order():
    for give_back in (
        lambda queue: queue.reclaim(now=11.5),
        lambda queue: queue.release_worker("w0", now=1.0),
    ):
        queue = WorkQueue(lease_ttl=10.0, backoff_base=0.0)
        for i in range(3):
            queue.add(f"k{i}", i, {})
        queue.lease("w0", now=0.0, limit=3)
        queue.fail("k0", "w0", now=1.0)
        queue.lease("w0", now=1.0)  # k0 again: now the youngest lease
        assert [u.key for u in queue.leased_units()] == ["k0", "k1", "k2"]
        assert give_back(queue) == ["k0", "k1", "k2"]


def test_bookkeeping_touches_only_live_leases():
    """all_done / reclaim / heartbeat never walk the 5 000 units of the queue."""
    queue = WorkQueue(lease_ttl=1.0)
    for i in range(5000):
        queue.add(f"k{i}", i, {})
    queue.lease("w0", now=0.0, limit=3)

    class Untouchable(dict):
        def values(self):
            raise AssertionError("walked every unit")

        __iter__ = items = values

    queue._units = Untouchable(queue._units)
    assert not queue.all_done()
    assert queue.heartbeat("w0", now=0.5) == 3
    assert queue.reclaim(now=1.0) == []
    assert queue.reclaim(now=2.0) == ["k0", "k1", "k2"]
    assert queue.release_worker("w0", now=2.0) == []
