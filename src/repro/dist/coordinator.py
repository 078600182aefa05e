"""The distributed campaign coordinator.

The coordinator is the stateful side of the Component/CRM split: it owns
the :class:`~repro.dist.workqueue.WorkQueue` of campaign run units
and answers worker RPCs over whichever transport backend was configured.
Workers hold no campaign state at all -- they can crash, reconnect or be
added mid-campaign without coordination, because every unit is leased,
retried with backoff and deduplicated by idempotency key.

The protocol (spelled out in :mod:`repro.dist.worker`) costs one request
and one reply per *batch*: a ``lease`` request reports what the worker
finished and asks for more, and the reply grants a batch of units as rows,
each distinct variant once (:func:`repro.campaign.units.grant_message`).
A request that finds nothing leasable is *parked* -- answered once a unit
is (a reclaim, a backoff run out) or the campaign stops -- so an idle worker
sends only heartbeats.  Nothing a peer sends is trusted: a malformed message
costs that peer its connection (and its leases, which are re-granted),
never the campaign.  A worker reports a run's outcome only (its row is built
here from the granted task), so no peer writes a row's task columns.

Grants are sized by guided self-scheduling (:meth:`Coordinator._grant_limit`)
to about one ``poll_interval`` of work, shared over the launched workers even
before they are heard from, so the first to report cannot take the share of
a sibling still connecting: fast units travel hundreds per message, slow
ones singly.

Determinism contract: the coordinator collects result records keyed by
their canonical unit *index*, so however leases interleave across workers,
:meth:`Coordinator.run` returns records in exactly the order the serial
runner would produce them.  The store-row bytes are therefore identical to
a serial run by construction; the integration suite checks this across all
three transports at one and four workers.  Grant, ack and reclaim counts
are mirrored into a :class:`MetricsRegistry`.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..campaign.units import OUTCOME_KEYS, grant_message, unit_key, unit_record
from ..core.errors import SpecError
from ..obs.logsetup import get_logger
from ..obs.metrics import MetricsRegistry
from .transport import ChannelClosed, WorkerHandle, make_transport, reply_on, signals_held
from .workqueue import WorkQueue

__all__ = ["DistConfig", "DistOutcome", "Coordinator"]

_LOG = get_logger("dist")


class _ProtocolError(Exception):
    """A peer sent something the protocol does not allow."""


@dataclass
class DistConfig:
    """Tuning knobs of one distributed campaign execution."""

    #: Transport backend: ``thread`` | ``ipc`` | ``tcp``.
    transport: str = "ipc"
    #: TCP bind endpoint (``host:port``; port 0 picks a free port).
    bind: str = "127.0.0.1:0"
    #: Seconds a lease stays valid without completion or heartbeat.
    lease_ttl: float = 30.0
    #: Attempts per unit before it is terminally failed.
    max_attempts: int = 4
    #: Exponential backoff: ``base * 2**(attempt-1)`` seconds, capped.
    backoff_base: float = 0.05
    backoff_cap: float = 5.0
    #: Coordinator poll granularity, seconds.
    poll_interval: float = 0.05
    #: Heartbeat interval handed to launched workers (0 disables).
    heartbeat_interval: float = 2.0
    #: Chaos seam: worker index -> kill that worker after its Nth lease.
    kill_after_leases: Dict[int, int] = field(default_factory=dict)
    #: Seconds to wait for in-flight units after an interrupt.
    drain_timeout: float = 10.0
    #: Abort if no unit changes state for this long (hang protection).
    idle_timeout: float = 120.0


@dataclass
class DistOutcome:
    """What one coordinator run produced."""

    #: Completed result records, in canonical unit-index order.
    records: List[Dict]
    #: Flat ``dist_*`` counters + unit state counts (queue snapshot).
    stats: Dict[str, object]
    #: Units that failed terminally (max attempts exhausted): key -> last error.
    failed: Dict[str, str]
    #: True when the run was interrupted and drained early.
    interrupted: bool
    #: Workers this run launched itself: ``min(asked, units to grant)``.
    workers: int


class Coordinator:
    """Owns the work queue; schedules run units onto workers over RPC."""

    def __init__(
        self,
        tasks: Sequence,
        config: Optional[DistConfig] = None,
        progress: Optional[Callable[[int, int, Dict], None]] = None,
    ):
        self.config = config or DistConfig()
        self.progress = progress
        self.metrics = MetricsRegistry()
        self.queue = WorkQueue(
            lease_ttl=self.config.lease_ttl,
            max_attempts=self.config.max_attempts,
            backoff_base=self.config.backoff_base,
            backoff_cap=self.config.backoff_cap,
        )
        self._records: Dict[int, Dict] = {}
        for index, task in enumerate(tasks):
            self.queue.add(unit_key(task), index, task)
        self._stopping = False
        #: Seconds per unit in the latest report of finished work (0: none yet).
        self._unit_seconds = 0.0
        self._ends_by_worker: Dict[str, object] = {}
        #: Workers the current :meth:`run` launched (grants are shared over them).
        self._launched = 0
        #: Workers whose ``lease`` awaits its reply, oldest first (:meth:`_unpark`).
        self._parked: Dict[str, None] = {}
        self._transport = None

    def bind(self) -> str:
        """Create the transport now and return its bound endpoint.

        Binding eagerly (before :meth:`run`) lets callers learn the actual
        port when the configured bind uses port 0, so external workers can
        be pointed at the coordinator before it starts serving.
        """
        if self._transport is None:
            self._transport = make_transport(self.config.transport, self.config.bind)
        return self._transport.endpoint()

    # ------------------------------------------------------------------ #
    # Protocol handlers
    # ------------------------------------------------------------------ #
    def _handle(self, end, message: object, now: float) -> bool:
        """Process one peer message; returns True on queue progress.

        Raises :class:`_ProtocolError` -- before touching the queue -- when
        the message is not one the protocol allows.
        """
        if not isinstance(message, dict):
            raise _ProtocolError(f"payload is not a JSON object: {message!r}")
        op = message.get("op")
        worker = message.get("worker")
        if not isinstance(worker, str):
            raise _ProtocolError(f"'worker' must be a string, got {worker!r}")
        if op == "status":
            self._safe_reply(end, {"op": "status", **self.queue.snapshot()})
            return False
        if op == "heartbeat":
            self.queue.heartbeat(worker, now)
            return False  # one-way; no reply, no progress
        if op == "lease":
            reports, seconds = self._parse_reports(message)
            self._ends_by_worker[worker] = end
            return self._handle_lease(worker, reports, seconds, now)
        raise _ProtocolError(f"unknown op {op!r}")

    def _parse_reports(self, message: Dict):
        """The validated ``results`` and ``busy_s`` of a lease request."""
        results = message.get("results", [])
        seconds = message.get("busy_s", 0.0)
        if not isinstance(results, list):
            raise _ProtocolError("'results' must be a list")
        timed = isinstance(seconds, (int, float)) and not isinstance(seconds, bool)
        if not timed or not 0.0 <= seconds < float("inf"):  # NaN fails both comparisons
            raise _ProtocolError(f"'busy_s' must be a finite number >= 0, got {seconds!r}")
        reports = []
        for entry in results:
            if not isinstance(entry, dict) or ("outcome" in entry) == ("error" in entry):
                raise _ProtocolError("a result needs a 'key' and one of 'outcome' / 'error'")
            key, outcome, error = entry.get("key"), entry.get("outcome"), entry.get("error")
            if not isinstance(key, str) or key not in self.queue:
                raise _ProtocolError(f"unknown unit key {key!r}")
            if "outcome" in entry:
                if (not isinstance(outcome, dict) or "metrics" not in outcome
                        or outcome.keys() - OUTCOME_KEYS  # a task column, or worse
                        or not all(isinstance(value, dict) for value in outcome.values())):
                    raise _ProtocolError(f"'outcome' of {key} is not a run's outcome")
            elif not isinstance(error, str):
                raise _ProtocolError(f"'error' of {key} must be a string")
            reports.append((key, outcome, error))
        return reports, float(seconds)

    def _handle_lease(self, worker: str, reports, seconds: float, now: float) -> bool:
        progressed = False
        for key, outcome, error in reports:
            if outcome is not None:
                progressed = self._complete(key, worker, outcome, now) or progressed
            else:
                state = self.queue.fail(key, worker, now, error=error)
                self.metrics.inc("dist_errors")
                _LOG.warning("unit %s failed on %s (-> %s): %s", key, worker, state, error)
                progressed = True
        if reports:
            self._unit_seconds = seconds / len(reports)
        # The request joins the line (a re-sent one, in the place of the one
        # it repeats), which is served now and at the end of every poll round.
        self._parked[worker] = None
        return self._unpark(now) or progressed

    def _unpark(self, now: float) -> bool:
        """Answer the waiting ``lease`` requests, oldest first, for as long as
        there is something to answer with: ``stop``, or units to grant."""
        answered = False
        for worker in list(self._parked):
            end = self._ends_by_worker[worker]
            if self._stopping or self.queue.all_done():
                self._safe_reply(end, {"op": "stop"})
            else:
                units = self.queue.lease(worker, now, self._grant_limit())
                if not units:
                    break
                self.metrics.inc("dist_grants")
                self._safe_reply(end, grant_message((u.key, u.task) for u in units))
            del self._parked[worker]
            answered = True
        return answered

    def _grant_limit(self) -> int:
        """How many units the next grant may carry (guided self-scheduling).

        One until some worker has reported how long units take; then about
        one ``poll_interval`` of work, and at most an even share of half
        the units not yet leased, so the tail of a campaign stays balanced.
        The share counts the launched workers that have not asked yet.
        """
        if self._unit_seconds <= 0.0:
            return 1
        workers = max(len(self._ends_by_worker), self._launched)
        share = -(-self.queue.unleased() // (2 * workers))
        return max(1, min(share, int(self.config.poll_interval / self._unit_seconds)))

    def _complete(self, key: str, worker: str, outcome: Dict, now: float) -> bool:
        accepted = self.queue.complete(key, worker, now)
        if accepted:
            unit = self.queue.unit(key)
            record = self._records[unit.index] = unit_record(unit.task, key, outcome)
            self.metrics.inc("dist_acks")
            if self.progress is not None:
                # Same signature as the serial loop's progress callback.
                self.progress(len(self._records), len(self.queue), record)
        else:
            self.metrics.inc("dist_dedup_hits")
        return accepted

    def _safe_reply(self, end, message: Dict) -> None:
        try:
            reply_on(end, message)
        except ChannelClosed:
            pass  # the poll loop will surface the EOF and release leases

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self, workers: int) -> DistOutcome:
        """Execute the queue on ``min(workers, units to grant)`` launched workers.

        ``workers=0`` launches none and serves external workers only, which
        takes ``tcp`` (``campaign run --transport tcp --workers 0``).  Returns
        when every unit is done or terminally failed, or -- after an
        interrupt -- when in-flight units drained or the drain deadline passed.
        """
        config = self.config
        if workers < 0 or (workers == 0 and config.transport != "tcp"):
            raise SpecError(
                f"workers must be >= 1 on the {config.transport!r} transport, got "
                f"{workers}: only 'tcp' lets external workers join a coordinator "
                "that launches none"
            )
        transport = self._transport or make_transport(config.transport, config.bind)
        self._transport = None  # consumed; run() owns its lifetime now
        handles: List[WorkerHandle] = []
        self._ends_by_worker.clear()
        interrupted = False
        launched = self._launched = min(workers, self.queue.unleased())
        if config.transport == "tcp":
            _LOG.info("serving %d unit(s) on %s", self.queue.unleased(), transport.endpoint())
        try:
            for i in range(launched):
                options = {
                    "heartbeat_interval": config.heartbeat_interval,
                    "kill_after_leases": config.kill_after_leases.get(i, 0),
                }
                handles.append(transport.launch_worker(f"w{i}", options))
            try:
                self._serve(transport)
            except KeyboardInterrupt:
                interrupted = True
                self._stopping = True
                _LOG.warning("interrupted; draining in-flight units")
                self._drain(transport)
        finally:
            transport.close()
            for handle in handles:  # terminate all, then join: they exit side by side
                if handle.process is not None and handle.alive():
                    handle.process.terminate()
            for handle in handles:
                handle.join(timeout=2.0)
        stats = self.queue.snapshot()
        self.metrics.gauge("dist_workers", float(launched))
        records = [self._records[i] for i in sorted(self._records)]
        failed = {u.key: u.error for u in self.queue.failed_units()}
        return DistOutcome(
            records=records,
            stats=stats,
            failed=failed,
            interrupted=interrupted,
            workers=launched,
        )

    def _serve(self, transport) -> None:
        """Poll/dispatch until the queue drains."""
        config = self.config
        last_progress = time.monotonic()
        while not self.queue.all_done():
            progressed = self._step(transport)
            now = time.monotonic()
            if progressed:
                last_progress = now
            elif now - last_progress > config.idle_timeout:
                counts = self.queue.counts()
                raise RuntimeError(
                    f"distributed campaign stalled: no unit changed state for "
                    f"{config.idle_timeout:g}s (queue: {counts})"
                )

    def _step(self, transport) -> bool:
        """One poll round; returns True when any unit changed state.

        ``SIGINT``/``SIGTERM`` are held back until it is over: an interrupt
        landing between reading a worker's message and acting on it would
        lose the results it reports and leave the worker waiting for a reply,
        so the drain that follows would sit out its whole timeout.
        """
        with signals_held():
            return self._poll_round(transport)

    def _poll_round(self, transport) -> bool:
        progressed = False
        now = time.monotonic()
        dropped = set()
        for end, message in transport.poll(self.config.poll_interval):
            if end in dropped:
                continue
            if message is None:  # worker disconnected
                progressed = self._release(end) or progressed
                continue
            try:
                progressed = self._handle(end, message, now) or progressed
            except _ProtocolError as exc:
                fields = message if isinstance(message, dict) else {}
                _LOG.warning("dropping peer %r: bad %r message: %s",
                             fields.get("worker"), fields.get("op"), exc)
                self.metrics.inc("dist_protocol_errors")
                transport.drop(end)
                dropped.add(end)
                progressed = self._release(end) or progressed
        now = time.monotonic()
        for _key in self.queue.reclaim(now):
            self.metrics.inc("dist_reclaims")
            progressed = True
        return self._unpark(now) or progressed

    def _release(self, end) -> bool:
        """Reclaim the leases of every worker behind a connection that ended."""
        released = False
        for worker in [w for w, e in self._ends_by_worker.items() if e is end]:
            del self._ends_by_worker[worker]
            self._parked.pop(worker, None)
            for _key in self.queue.release_worker(worker, time.monotonic()):
                self.metrics.inc("dist_reclaims")
                released = True
        return released

    def _drain(self, transport) -> None:
        """After an interrupt: accept in-flight results, grant nothing new."""
        deadline = time.monotonic() + self.config.drain_timeout
        while self.queue.leased_units() and time.monotonic() < deadline:
            try:
                self._step(transport)
            except KeyboardInterrupt:  # second ^C: stop draining immediately
                _LOG.warning("second interrupt; abandoning drain")
                return
