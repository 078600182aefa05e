"""The distributed campaign worker loop.

A worker is a pull-based client of the coordinator: it leases a batch of
run units, executes each through the exact same
:func:`repro.campaign.runner._run_unit` path the serial loop uses, and
hands each run's *outcome* back with its request for the next batch.  It
builds no row: the coordinator does, from the task it granted, with the
serial loop's :func:`~repro.campaign.units.unit_record`.

Worker-side protocol (all messages are JSON objects; four kinds)::

    -> {"op": "lease", "worker": id, "busy_s": t,
        "results": [{"key": k, "outcome": {"metrics": {...}, ...}}
                    | {"key": k, "error": "..."}, ...]}
    <- {"op": "grant",
        "variants": [[scenario_text, base_scenario, collect_obs, trace_dir, slo_spec], ...],
        "units": [[key, variant, replicate, seed], ...]}
     | {"op": "stop"}
    -> {"op": "heartbeat", "worker": id}          # one-way, never replied

``lease`` is the only request: it reports every unit of the previous grant
(``results`` is empty on the first request) with the seconds they took
(``busy_s``, from which the coordinator sizes the next grant), and asks
for more.  An outcome is ``metrics`` plus whichever of ``provenance``,
``obs``, ``_phase_seconds`` and ``slo`` the run produced.  A grant carries
each distinct variant once, and its units name theirs by index
(:mod:`repro.campaign.units` encodes and reads that form; a unit whose task
does not rebuild fails on its own).  Any reply acknowledges those results,
and comes when there is something to say: with nothing leasable the worker
just stays blocked in ``recv``.  A request unanswered after
``reply_timeout`` is re-sent as it is (which is what notices a coordinator
host that vanished); the coordinator may then see the results twice, and
drops the second copy of each.

Heartbeats come from a daemon thread so a long-running simulation cannot
lose its lease; a dead worker stops heartbeating (and its connection
drops), which is exactly how the coordinator learns to reclaim its units.

``kill_after_leases`` is the chaos seam (the execution-tier analogue of the
``repro.faults`` crash events): a worker configured with it dies abruptly
-- ``os._exit``, no result, no goodbye -- on reaching that many granted
units, taking the unreported results of its current batch with it, which
the chaos tests and the CI smoke use to prove lease reclaim + idempotency
keys deliver exactly-once store rows.
"""
from __future__ import annotations

import os
import signal
import socket
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, Mapping, Optional

from ..campaign.runner import _run_unit
from ..campaign.units import grant_tasks
from ..obs.logsetup import get_logger
from .transport import HELD_SIGNALS, ChannelClosed, SocketChannel, connect_tcp, parse_endpoint

__all__ = [
    "worker_loop",
    "ipc_worker_entry",
    "tcp_worker_entry",
    "run_standalone_worker",
    "default_worker_id",
]

_LOG = get_logger("dist")

#: Process-wide execution lock for in-process (thread transport) workers:
#: the obs hooks and the provenance slot are one-element process globals,
#: so two simulations must never run concurrently in one process.
_EXECUTE_LOCK = threading.Lock()

#: Exit code of a chaos-killed worker (visible in the handle's exitcode).
CHAOS_EXIT_CODE = 17


def default_worker_id() -> str:
    """Self-assigned identity of an external worker: host + pid."""
    return f"{socket.gethostname()}-{os.getpid()}"


class _Heartbeat:
    """Daemon thread sending one-way heartbeats while the loop runs."""

    def __init__(self, send, worker_id: str, interval: float):
        self._send = send
        self._worker_id = worker_id
        self._interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:  # a second call does nothing
        if self._interval <= 0 or self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="dist-heartbeat", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._send({"op": "heartbeat", "worker": self._worker_id})
            except ChannelClosed:
                return

    def stop(self) -> None:
        self._stop.set()


def worker_loop(channel: SocketChannel, worker_id: str, options: Mapping) -> int:
    """Run the lease/execute/report loop until the coordinator says stop.

    Returns a process-style exit code: 0 on a clean stop (including "the
    coordinator went away", which after a finished campaign is the normal
    end of an external worker), nonzero on a local protocol error.
    """
    reply_timeout = float(options.get("reply_timeout", 30.0))
    heartbeat_interval = float(options.get("heartbeat_interval", 0.0))
    kill_after_leases = int(options.get("kill_after_leases", 0))
    in_process = bool(options.get("in_process", False))

    send_lock = threading.Lock()

    def send(message: Dict) -> None:
        with send_lock:
            channel.send(message)

    heartbeat = _Heartbeat(send, worker_id, heartbeat_interval)
    leases = 0
    results: List[Dict] = []  # of the previous grant, until a reply acknowledges them
    busy_s = 0.0
    try:
        while True:
            try:
                send({"op": "lease", "worker": worker_id, "results": results,
                      "busy_s": busy_s})
                heartbeat.start()  # after the request: a thread start waits on a busy CPU
                reply = channel.recv(reply_timeout)
            except ChannelClosed:
                _LOG.debug("%s: coordinator went away; exiting", worker_id)
                return 0
            if reply is None:
                continue  # parked or lost; ask again, results included
            results, busy_s = [], 0.0
            op = reply.get("op")
            if op == "stop":
                _LOG.debug("%s: received stop", worker_id)
                return 0
            if op != "grant":
                _LOG.warning("%s: unexpected reply %r", worker_id, op)
                return 2
            started = time.perf_counter()
            for key, task in grant_tasks(reply):
                leases += 1
                if kill_after_leases and leases >= kill_after_leases:
                    # Chaos: die mid-unit, silently.  In-process workers cannot
                    # os._exit (that would kill the coordinator too); closing
                    # the channel without completing the unit is the same
                    # failure as seen from the coordinator.
                    _LOG.debug("%s: chaos kill after %d lease(s)", worker_id, leases)
                    if in_process:
                        channel.close()
                        return CHAOS_EXIT_CODE
                    os._exit(CHAOS_EXIT_CODE)
                try:
                    if isinstance(task, Exception):
                        raise task
                    with _EXECUTE_LOCK if in_process else nullcontext():
                        outcome = _run_unit(task)
                except Exception as exc:  # noqa: BLE001 - reported, retried upstream
                    _LOG.warning("%s: unit %s failed: %s", worker_id, key, exc)
                    results.append({"key": key, "error": f"{type(exc).__name__}: {exc}"})
                else:
                    results.append({"key": key, "outcome": outcome})
            busy_s = time.perf_counter() - started
    finally:
        heartbeat.stop()
        channel.close()


# --------------------------------------------------------------------- #
# Process entry points (top-level functions so they survive fork/spawn)
# --------------------------------------------------------------------- #
def _reset_signals() -> None:
    """Launched workers must not inherit the coordinator's handlers.

    A terminal ^C goes to the whole process group; ignoring SIGINT here
    lets the coordinator drain in-flight units instead of every worker
    dying mid-run, and SIGTERM's default keeps deliberate termination quiet.
    The launch held both back until now (``transport.signals_held``).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, HELD_SIGNALS)


def ipc_worker_entry(sock: socket.socket, worker_id: str, options: Dict) -> None:
    _reset_signals()
    worker_loop(SocketChannel(sock), worker_id, options)


def tcp_worker_entry(host: str, port: int, worker_id: str, options: Dict) -> None:
    _reset_signals()
    channel = _connect_with_retry(host, port, float(options.get("connect_timeout", 10.0)))
    if channel is None:
        os._exit(3)
    worker_loop(channel, worker_id, options)


def _connect_with_retry(host: str, port: int, timeout: float):
    """Connect to a coordinator, retrying briefly while it binds/starts."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return connect_tcp(host, port, timeout=timeout)
        except OSError as exc:
            if time.monotonic() >= deadline:
                _LOG.warning("could not reach coordinator %s:%s: %s", host, port, exc)
                return None
            time.sleep(0.1)


def run_standalone_worker(endpoint: str, options: Optional[Dict] = None) -> int:
    """``python -m repro dist worker --connect host:port`` body."""
    host, port = parse_endpoint(endpoint)
    options = dict(options or {})
    options.setdefault("heartbeat_interval", 5.0)
    worker_id = str(options.get("worker_id") or default_worker_id())
    channel = _connect_with_retry(host, port, float(options.get("connect_timeout", 10.0)))
    if channel is None:
        return 3
    _LOG.info("worker %s connected to %s", worker_id, endpoint)
    return worker_loop(channel, worker_id, options)
