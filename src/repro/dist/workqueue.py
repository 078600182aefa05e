"""The coordinator's work queue of campaign run units.

Queue-based load leveling with the classic reliability trio:

* **Leases with heartbeats.**  A granted unit is *leased*, not gone: the
  worker must finish (or heartbeat) before the lease TTL expires, otherwise
  :meth:`WorkQueue.reclaim` returns the unit to the pending set.  A worker
  whose connection drops is released immediately
  (:meth:`WorkQueue.release_worker`) -- crash recovery does not wait for
  the TTL when the transport already knows the worker is gone.
* **Retry with exponential backoff.**  A failed or reclaimed unit becomes
  runnable again after ``backoff_base * 2**(attempts-1)`` seconds (capped),
  up to ``max_attempts``; past that it is terminally failed and reported,
  never silently dropped.
* **Idempotency keys.**  Units are keyed by
  :func:`repro.campaign.units.unit_key`; completing an already-completed
  key is a counted no-op (``dedup_hits``), so duplicate delivery -- a
  reclaimed unit whose original worker later reports anyway -- yields
  exactly-once results.  Likewise an error from a worker that no longer
  holds the unit's lease is a counted no-op (``stale_errors``).

Every operation costs O(units it touches), not O(units in the queue): an
open-unit counter answers ``all_done``, a heap of pending positions feeds
``lease``, and ``reclaim`` / ``heartbeat`` / ``release_worker`` walk only
the live leases (``ReferenceWorkQueue`` in the tests is the linear scan).

The queue is in-memory and keeps no journal: the result store is the one
durable record of completed work (it holds the rows, not just their keys),
so a killed coordinator is restarted with ``--resume`` and nothing else --
the runner then enqueues only the units the store does not already hold.

All timestamps are supplied by the caller (wall-clock ``time.monotonic``
in production, hand-rolled values in tests); the queue itself never reads
a clock, which keeps its unit tests instantaneous and exact.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.errors import SpecError

__all__ = ["WorkUnit", "WorkQueue"]

PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"


@dataclass
class WorkUnit:
    """One campaign run unit and its queue bookkeeping."""

    key: str
    index: int
    #: What the unit runs; the queue never looks inside it.
    task: object
    #: Insertion position: the queue's canonical order.
    position: int = 0
    state: str = PENDING
    attempts: int = 0
    worker: str = ""
    lease_deadline: float = 0.0
    not_before: float = 0.0
    error: str = ""


@dataclass
class QueueStats:
    """Flat counters, ``dist_*``-prefixed like the fault layer's ``fault_*``."""

    counters: Dict[str, int] = field(default_factory=lambda: {
        "grants": 0,
        "leases": 0,
        "retries": 0,
        "reclaims": 0,
        "dedup_hits": 0,
        "stale_errors": 0,
        "completed": 0,
        "failed": 0,
        "heartbeats": 0,
    })

    def bump(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def to_flat(self) -> Dict[str, float]:
        return {f"dist_{name}": float(value) for name, value in sorted(self.counters.items())}


class WorkQueue:
    """In-memory work queue with leases and backoff retries."""

    def __init__(
        self,
        lease_ttl: float = 30.0,
        max_attempts: int = 4,
        backoff_base: float = 0.05,
        backoff_cap: float = 5.0,
    ):
        if lease_ttl <= 0:
            raise SpecError("lease_ttl must be positive")
        if max_attempts <= 0:
            raise SpecError("max_attempts must be positive")
        if backoff_base < 0 or backoff_cap < 0:
            raise SpecError("backoff must be >= 0")
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.stats = QueueStats()
        self._units: Dict[str, WorkUnit] = {}
        #: Units neither done nor terminally failed.
        self._open = 0
        #: Heap of ``(position, key)`` of the pending units.  A unit that a
        #: late result completes while it waits here leaves a stale entry
        #: behind, which :meth:`lease` drops when it surfaces.
        self._pending: List[Tuple[int, str]] = []
        #: Live leases by unit key.
        self._leased: Dict[str, WorkUnit] = {}

    # ------------------------------------------------------------------ #
    # Population
    # ------------------------------------------------------------------ #
    def add(self, key: str, index: int, task: object) -> None:
        if key in self._units:
            raise ValueError(f"duplicate unit key {key!r}")
        position = len(self._units)
        self._units[key] = WorkUnit(key=key, index=index, task=task, position=position)
        heapq.heappush(self._pending, (position, key))
        self._open += 1

    def __len__(self) -> int:
        return len(self._units)

    def __contains__(self, key: object) -> bool:
        return key in self._units

    def unit(self, key: str) -> WorkUnit:
        try:
            return self._units[key]
        except KeyError:
            raise KeyError(f"unknown unit key {key!r}") from None

    # ------------------------------------------------------------------ #
    # Worker-facing operations
    # ------------------------------------------------------------------ #
    def lease(self, worker: str, now: float, limit: int = 1) -> List[WorkUnit]:
        """Grant the first *limit* runnable units to *worker* (fewer, or
        none, when fewer are runnable).

        Runnable means pending and past its backoff; first means canonical
        order.  Costs O(log n) per unit granted or found backing off.
        """
        granted: List[WorkUnit] = []
        backing_off: List[Tuple[int, str]] = []
        while self._pending and len(granted) < limit:
            entry = heapq.heappop(self._pending)
            unit = self._units[entry[1]]
            if unit.state != PENDING:
                continue
            if now < unit.not_before:
                backing_off.append(entry)
                continue
            unit.state = LEASED
            unit.worker = worker
            unit.attempts += 1
            unit.lease_deadline = now + self.lease_ttl
            self._leased[unit.key] = unit
            granted.append(unit)
        for entry in backing_off:
            heapq.heappush(self._pending, entry)
        if granted:
            self.stats.bump("grants")
            self.stats.bump("leases", len(granted))
        return granted

    def complete(self, key: str, worker: str, now: float) -> bool:
        """Mark a unit done; ``False`` when the key already completed.

        A result for an already-done key is the duplicate-delivery case:
        the unit was reclaimed and re-run, then the original worker
        reported late.  Both results are byte-identical by construction
        (records are pure functions of the task), so the second is simply
        counted and dropped.  A result from a worker that lost its lease
        but reports *first* is accepted -- the work is valid regardless of
        which attempt carried it.
        """
        unit = self.unit(key)
        if unit.state == DONE:
            self.stats.bump("dedup_hits")
            return False
        if unit.state != FAILED:
            self._open -= 1
        self._leased.pop(key, None)
        unit.state = DONE
        unit.error = ""
        self.stats.bump("completed")
        return True

    def fail(self, key: str, worker: str, now: float, error: str = "") -> str:
        """Record a failed attempt; returns the unit's new state.

        Only the holder of the current lease can fail a unit.  A late error
        (the lease was reclaimed, or the unit is done or terminally failed)
        is counted and dropped: it must neither strip the lease of the
        attempt now running nor burn one of its retries.
        """
        unit = self.unit(key)
        if unit.state != LEASED or unit.worker != worker:
            self.stats.bump("stale_errors")
            return unit.state
        self._retry(unit, now, error=error, counter="retries")
        return unit.state

    def heartbeat(self, worker: str, now: float) -> int:
        """Extend the leases of *worker*; returns how many were extended."""
        extended = 0
        for unit in self._leased.values():
            if unit.worker == worker:
                unit.lease_deadline = now + self.lease_ttl
                extended += 1
        if extended:
            self.stats.bump("heartbeats")
        return extended

    # ------------------------------------------------------------------ #
    # Failure handling
    # ------------------------------------------------------------------ #
    def _retry(self, unit: WorkUnit, now: float, error: str, counter: str) -> None:
        del self._leased[unit.key]
        unit.worker = ""
        unit.lease_deadline = 0.0
        unit.error = error
        if unit.attempts >= self.max_attempts:
            unit.state = FAILED
            self._open -= 1
            self.stats.bump("failed")
            return
        backoff = min(self.backoff_cap, self.backoff_base * (2 ** max(0, unit.attempts - 1)))
        unit.state = PENDING
        unit.not_before = now + backoff
        heapq.heappush(self._pending, (unit.position, unit.key))
        self.stats.bump(counter)

    def _retry_leases(self, units: List[WorkUnit], now: float, error: str) -> List[str]:
        """Reclaim the leases of *units*; returns their keys in canonical order."""
        units.sort(key=lambda unit: unit.position)
        for unit in units:
            self._retry(unit, now, error=error, counter="reclaims")
        return [unit.key for unit in units]

    def reclaim(self, now: float) -> List[str]:
        """Return expired leases to the pending set; returns their keys."""
        expired = [u for u in self._leased.values() if u.lease_deadline < now]
        return self._retry_leases(expired, now, "lease expired")

    def release_worker(self, worker: str, now: float) -> List[str]:
        """Reclaim every lease of a disconnected worker immediately."""
        held = [u for u in self._leased.values() if u.worker == worker]
        return self._retry_leases(held, now, "worker disconnected")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def all_done(self) -> bool:
        return self._open == 0

    def unleased(self) -> int:
        """Units still to be granted: open, and not under a live lease."""
        return self._open - len(self._leased)

    def counts(self) -> Dict[str, int]:
        out = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
        for unit in self._units.values():
            out[unit.state] += 1
        return out

    def failed_units(self) -> List[WorkUnit]:
        return [unit for unit in self._units.values() if unit.state == FAILED]

    def leased_units(self) -> List[WorkUnit]:
        return sorted(self._leased.values(), key=lambda unit: unit.position)

    def snapshot(self) -> Dict[str, object]:
        """Flat stats + state counts (the ``dist status`` payload)."""
        counts = self.counts()
        out: Dict[str, object] = dict(self.stats.to_flat())
        out.update({f"units_{state}": count for state, count in sorted(counts.items())})
        out["units_total"] = len(self._units)
        return out
