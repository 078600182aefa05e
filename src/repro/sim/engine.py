"""A small discrete-event simulation engine.

The paper's evaluation is driven by a discrete-event simulator ("we have
replaced remote calls with direct function calls and calls to sleep() with
simulator events", Section 5).  This module provides that substrate: a
priority-queue of timestamped events, a simulation clock and callback
scheduling.

The engine is deterministic: events at equal times fire in scheduling order.

Performance notes
-----------------
Events are stored in per-timestamp *buckets* (a dict mapping time to a deque
of handles) plus a heap of the distinct bucket times.  The schedule counter
``seq`` increases monotonically, so appending to a bucket keeps it sorted by
``seq`` for free, and the deterministic ``(time, seq)`` total order is
recovered by draining buckets in heap order.  Compared with a heap of
``(time, seq, handle)`` tuples this turns the per-event ``heappush`` /
``heappop`` (the dominant cost on big simulations -- O(log n) tuple
comparisons each) into one heap operation per *distinct timestamp*;
workloads with coalesced timestamps (scheduler passes, trace replays, batch
completions) dispatch whole buckets with a plain loop.

``run()`` dispatches each bucket as a batch.  Any event scheduled *during*
the batch carries a higher ``seq`` than every batch member -- if it lands on
the same timestamp it goes into a fresh bucket that is drained next -- so
batching is observationally identical to one-at-a-time stepping
(cancellations from within a batch are honoured before each fire).
"""
from __future__ import annotations

import heapq
import itertools
import math
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..core.errors import SimulationError
from ..core.types import Time
from ..obs import hooks as _obs

__all__ = ["EventHandle", "Simulator", "callback_label"]

#: Label cache keyed on the callback's code object.  Labels are derived from
#: qualified names, which are a property of the function (and therefore of
#: its code object), never of object identity -- so one cache entry serves
#: every bound method and every simulator sharing that function.
_LABEL_CACHE: Dict[Any, str] = {}


def callback_label(callback: Callable) -> str:
    """Deterministic human-readable label of an event callback.

    Used by the tracer's engine instrumentation: the label must be a pure
    function of the *code*, never of object identity (no ``repr`` with
    memory addresses), so traces stay byte-identical across processes.

    Results are memoized per code object so observed-mode tracing stops
    re-deriving labels on every dispatched event.
    """
    func = getattr(callback, "__func__", callback)
    code = getattr(func, "__code__", None)
    if code is None:  # pragma: no cover - exotic callables (partial, C funcs)
        name = getattr(callback, "__qualname__", None)
        if name is None:
            name = getattr(type(callback), "__qualname__", "callable")
        return name
    label = _LABEL_CACHE.get(code)
    if label is None:
        label = getattr(func, "__qualname__", code.co_name)
        _LABEL_CACHE[code] = label
    return label


class EventHandle:
    """A scheduled callback; can be cancelled before it fires."""

    __slots__ = ("time", "seq", "callback", "args", "kwargs", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: Time,
        seq: int,
        callback: Callable,
        args: tuple,
        kwargs: dict,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._pending -= 1

    def pending(self) -> bool:
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"EventHandle(t={self.time:g}, {state}, {self.callback!r})"


class Simulator:
    """The discrete-event simulation core."""

    def __init__(self, start_time: Time = 0.0):
        self._now: Time = float(start_time)
        #: Heap of the distinct times that currently have a bucket.
        self._times: List[Time] = []
        #: Per-timestamp event buckets; deques stay sorted by ``seq``
        #: because ``seq`` is monotonic and events are only appended.
        self._buckets: Dict[Time, Deque[EventHandle]] = {}
        self._seq = itertools.count()
        self._running = False
        self._processed = 0
        #: Number of scheduled-but-not-yet-fired-or-cancelled events.
        #: Maintained on schedule (+1), cancel (-1) and fire (-1) so that
        #: :meth:`empty` is O(1) instead of a scan over the queue.
        self._pending = 0

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> Time:
        """The current simulated time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events fired so far (diagnostic)."""
        return self._processed

    def empty(self) -> bool:
        """True when no pending event remains (O(1))."""
        return self._pending == 0

    # ------------------------------------------------------------------ #
    def schedule(self, delay: Time, callback: Callable, *args: Any, **kwargs: Any) -> EventHandle:
        """Schedule *callback* to run after *delay* simulated seconds."""
        if not delay >= 0:  # a NaN delay fails this too
            reason = "in the past" if delay < 0 else "after a NaN delay"
            raise SimulationError(f"cannot schedule an event {reason}")
        at = self._now + delay
        handle = EventHandle(at, next(self._seq), callback, args, kwargs, self)
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = deque((handle,))
            heapq.heappush(self._times, at)
        else:
            bucket.append(handle)
        self._pending += 1
        return handle

    def schedule_at(self, time: Time, callback: Callable, *args: Any, **kwargs: Any) -> EventHandle:
        """Schedule *callback* to run at absolute simulated time *time*."""
        if not time >= self._now - 1e-12:  # a NaN time fails this too
            raise SimulationError(
                f"cannot schedule at t={time:g}, the clock is already at {self._now:g}"
                if time < self._now else "cannot schedule at a NaN time"
            )
        at = time if time > self._now else self._now
        handle = EventHandle(at, next(self._seq), callback, args, kwargs, self)
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = deque((handle,))
            heapq.heappush(self._times, at)
        else:
            bucket.append(handle)
        self._pending += 1
        return handle

    # ------------------------------------------------------------------ #
    def _next_bucket(self) -> Optional[Tuple[Time, Deque[EventHandle]]]:
        """The earliest bucket that still holds a live event, with its time.

        Dead (cancelled/fired) handles at the bucket head and fully dead
        buckets are swept lazily here; each dead entry is visited once, so
        the sweep cost is amortised over the events that created it.
        """
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            bucket = buckets.get(t)
            if bucket:
                while bucket and (bucket[0].cancelled or bucket[0].fired):
                    bucket.popleft()
                if bucket:
                    return t, bucket
            heapq.heappop(times)
            if bucket is not None:
                del buckets[t]
        return None

    def _advance_to(self, t: Time) -> None:
        if t < self._now - 1e-9:
            raise SimulationError("event queue went back in time")
        if t > self._now:
            self._now = t

    def step(self) -> bool:
        """Fire the next pending event; returns False if none remained."""
        head = self._next_bucket()
        if head is None:
            return False
        t, bucket = head
        self._advance_to(t)
        handle = bucket.popleft()
        handle.fired = True
        self._pending -= 1
        self._processed += 1
        handle.callback(*handle.args, **handle.kwargs)
        return True

    def _observe_dispatch(self, handle: EventHandle) -> None:
        """Emit the per-event observation record and run the callback.

        Hooks are looked up per event (not per run) on purpose: an event
        callback may legally install or remove observation sinks mid-run,
        and the emitted stream must reflect that instant by instant.
        """
        tracer = _obs.TRACER[0]
        if tracer is not None:
            tracer.emit(
                self._now,
                "engine",
                "dispatch",
                {"callback": callback_label(handle.callback), "event_seq": handle.seq},
            )
        metrics = _obs.METRICS[0]
        if metrics is not None:
            metrics.inc("engine.events_dispatched")
        profiler = _obs.PROFILER[0]
        if profiler is None:
            handle.callback(*handle.args, **handle.kwargs)
        else:
            started = time.perf_counter()
            try:
                handle.callback(*handle.args, **handle.kwargs)
            finally:
                profiler.add("engine.dispatch", time.perf_counter() - started)

    # ------------------------------------------------------------------ #
    def run(self, until: Time = math.inf, max_events: int = 10_000_000) -> Time:
        """Run until the queue drains or the clock passes *until*.

        Returns the simulation time when the run stopped; the clock never
        moves backwards, so an *until* already in the past fires nothing and
        returns the unchanged ``now``.  *max_events* guards against
        accidental infinite event loops.

        Whether each event goes through :meth:`_observe_dispatch` or
        straight to its callback is decided once per call, from the
        observation state at entry; everything else -- the ``(time, seq)``
        order, the mid-batch cancellation check, the guards -- is this one
        loop, so an observed and an unobserved run fire the same events.
        """
        if self._running:
            raise SimulationError("the simulator is already running (re-entrant run())")
        self._running = True
        try:
            observed = _obs.observation_enabled()
            fired = 0
            bounded = math.isfinite(until)
            buckets = self._buckets
            times = self._times
            while True:
                head = self._next_bucket()
                if head is None:
                    break
                t, bucket = head
                if bounded and t > until:
                    if until > self._now:
                        self._now = until
                    break
                # The whole bucket is detached and fired as one batch; events
                # scheduled meanwhile (even at this same timestamp) land in a
                # fresh bucket with higher seqs and are drained afterwards.
                del buckets[t]
                heapq.heappop(times)
                self._advance_to(t)
                for handle in bucket:
                    if handle.cancelled:
                        # Cancelled by an earlier event of this same batch.
                        continue
                    handle.fired = True
                    self._pending -= 1
                    self._processed += 1
                    if observed:
                        self._observe_dispatch(handle)
                    else:
                        handle.callback(*handle.args, **handle.kwargs)
                    fired += 1
                    if fired > max_events:
                        raise SimulationError(
                            f"more than {max_events} events fired; "
                            "likely an infinite scheduling loop"
                        )
            return self._now
        finally:
            self._running = False

    def __repr__(self) -> str:
        return f"Simulator(now={self._now:g}, pending={self._pending})"
