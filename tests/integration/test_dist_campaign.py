"""Campaign execution through ``repro.dist``: byte-identity, chaos, resume, CLI.

The acceptance bar of the execution tier: for the same campaign spec,
``runs.jsonl`` is byte-identical on every point of one axis -- the
in-process serial loop, then each transport at one and four workers -- and
a worker killed mid-campaign, a resumed store or a terminated process
changes nothing except the counters in ``meta.json``.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    RUNNERS,
    ResultStore,
    ScenarioSpec,
    resolve_scenarios,
)
from repro.__main__ import main as cli_main
from repro.campaign.runner import CampaignFailed, _run_unit, _sigterm_as_interrupt
from repro.campaign.units import grant_tasks, unit_key
from repro.core.errors import WorkloadError
from repro.dist import transport as transport_module
from repro.dist import ensure_noop_runner, run_standalone_worker
from repro.dist.coordinator import Coordinator, DistConfig
from repro.dist.transport import (
    TRANSPORT_NAMES,
    ChannelClosed,
    SocketChannel,
    TcpTransport,
    ThreadTransport,
    WorkerHandle,
    connect_tcp,
    encode_frame,
    parse_endpoint,
    recv_frame,
)

#: Cheap scenarios (single simulation per run at tiny scale).
FAST = ("baseline-dynamic", "strict-equipartition")

#: The one identity axis, as ``(transport, workers)``: the serial loop (no
#: transport named), then every transport at one and four workers.
COORDINATED = [
    pytest.param(transport, workers, id=f"{workers}-{transport}")
    for workers in (1, 4)
    for transport in TRANSPORT_NAMES
]
AXIS = [pytest.param(None, 1, id="serial")] + COORDINATED
#: Its points that survive losing a worker.
KILLABLE = [point for point in COORDINATED if point.values[1] > 1]


def make_spec(name, scenarios=FAST, seeds=2) -> CampaignSpec:
    return CampaignSpec(
        name=name, scenarios=tuple(resolve_scenarios(scenarios)), seeds=seeds
    )


def run_at(spec, store, transport, workers, resume=False, **dist_options):
    """Run *spec* at one point of the axis; returns the :class:`CampaignResult`."""
    dist = None if transport is None else DistConfig(transport=transport, **dist_options)
    return CampaignRunner(spec, store=store).run(workers=workers, dist=dist, resume=resume)


@pytest.fixture(scope="module")
def serial_rows(tmp_path_factory) -> bytes:
    store = ResultStore(tmp_path_factory.mktemp("serial"))
    run_at(make_spec("serial"), store, None, 1)
    return store.runs_path("serial").read_bytes()


class TestByteIdentityAcrossBackends:
    @pytest.mark.parametrize("transport, workers", AXIS)
    def test_dist_matches_serial(self, tmp_path, serial_rows, transport, workers):
        store = ResultStore(tmp_path)
        result = run_at(make_spec("serial"), store, transport, workers)
        assert store.runs_path("serial").read_bytes() == serial_rows
        assert result.transport == (transport or "serial")
        assert store.load_meta("serial")["transport"] == result.transport

    def test_workers_alone_means_ipc_and_meta_records_it(self, tmp_path):
        store = ResultStore(tmp_path)
        result = CampaignRunner(make_spec("serial"), store=store).run(workers=2)
        meta = store.load_meta("serial")
        assert meta["transport"] == result.transport == "ipc"
        assert meta["workers"] == result.workers == 2
        assert "backend" not in meta
        assert meta["dist"]["dist_completed"] == 4.0
        assert meta["dist"]["dist_failed"] == 0.0


class TestChaosAtTheExecutionTier:
    @pytest.mark.parametrize("transport, workers", KILLABLE)
    def test_killed_worker_reruns_units_with_identical_rows(
        self, tmp_path, serial_rows, transport, workers
    ):
        """Worker 0 dies abruptly after its first lease (``os._exit``, no
        goodbye; an in-thread worker cannot, and closes its channel instead,
        which must surface as the same disconnect).  Lease release + retry
        must rerun its unit elsewhere and the final rows must be
        byte-identical to the serial run -- exactly-once, not at-least-once."""
        store = ResultStore(tmp_path)
        result = run_at(
            make_spec("chaos"), store, transport, workers,
            lease_ttl=5.0, kill_after_leases={0: 1},
        )
        assert store.runs_path("chaos").read_bytes() == serial_rows
        assert result.dist_stats["dist_reclaims"] >= 1.0
        assert result.dist_stats["dist_completed"] == 4.0
        # Exactly once: four rows, four distinct unit keys.
        records = store.load_records("chaos")
        assert len({r["unit"] for r in records}) == 4

    def test_all_workers_killable_campaign_still_completes(self, tmp_path,
                                                           serial_rows):
        # Two of the three workers die holding a unit each; the survivor
        # must be granted both once their leases are released and backed off.
        store = ResultStore(tmp_path)
        run_at(
            make_spec("chaos"), store, "ipc", 3,
            lease_ttl=5.0, kill_after_leases={0: 1, 1: 1},
        )
        assert store.runs_path("chaos").read_bytes() == serial_rows


#: Enough no-op units that no worker can drain the queue before another
#: has connected (a worker clears some 20 000 of them per second).
NOOP_UNITS = 1000


def noop_spec(name, units=NOOP_UNITS) -> CampaignSpec:
    """*units* no-op runs: dispatch is all there is, so grants grow past one."""
    scenario = ScenarioSpec(name="noop", runner=ensure_noop_runner())
    return CampaignSpec(name=name, scenarios=(scenario,), seeds=units)


@pytest.fixture(scope="module")
def noop_rows(tmp_path_factory) -> bytes:
    store = ResultStore(tmp_path_factory.mktemp("noop-serial"))
    run_at(noop_spec("noop"), store, None, 1)
    return store.runs_path("noop").read_bytes()


class TestBatchedGrants:
    @pytest.mark.parametrize("transport, workers", COORDINATED)
    def test_fast_units_travel_in_batches_and_match_serial(
        self, tmp_path, noop_rows, transport, workers
    ):
        store = ResultStore(tmp_path)
        result = run_at(noop_spec("noop"), store, transport, workers)
        assert store.runs_path("noop").read_bytes() == noop_rows
        stats = result.dist_stats
        assert stats["dist_leases"] == stats["dist_completed"] == NOOP_UNITS
        # One request and one reply per batch, not per unit.
        assert stats["dist_grants"] < 100.0

    @pytest.mark.parametrize("transport, workers", KILLABLE)
    def test_worker_killed_holding_a_batch_has_all_of_it_reclaimed(
        self, tmp_path, noop_rows, transport, workers
    ):
        """Worker 0 runs its first (one-unit) grant, then dies on the second
        unit of its next, multi-unit grant: the finished-but-unreported
        unit and every unit it never started are all re-granted."""
        store = ResultStore(tmp_path)
        result = run_at(
            noop_spec("noop"), store, transport, workers,
            lease_ttl=5.0, kill_after_leases={0: 3},
        )
        assert store.runs_path("noop").read_bytes() == noop_rows
        stats = result.dist_stats
        assert stats["dist_reclaims"] >= 2.0
        assert stats["dist_leases"] == NOOP_UNITS + stats["dist_reclaims"]
        assert stats["dist_completed"] == NOOP_UNITS
        assert len({r["unit"] for r in store.load_records("noop")}) == NOOP_UNITS

    def test_units_slower_than_the_poll_interval_travel_one_per_grant(
        self, tmp_path, serial_rows
    ):
        store = ResultStore(tmp_path)
        result = run_at(make_spec("serial"), store, "ipc", 2, poll_interval=0.002)
        assert store.runs_path("serial").read_bytes() == serial_rows
        assert result.dist_stats["dist_grants"] == result.dist_stats["dist_leases"] == 4.0


class _LiveCoordinator:
    """A TCP coordinator serving external peers from a background thread."""

    def __init__(self, spec):
        self.coordinator = Coordinator(CampaignRunner(spec).tasks(), DistConfig(transport="tcp"))
        self.endpoint = self.coordinator.bind()
        self.outcome = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        self.outcome = self.coordinator.run(workers=0)

    def finish(self):
        self._thread.join(timeout=60.0)
        assert not self._thread.is_alive(), "the coordinator never finished"
        return self.outcome

    def rows(self):
        return [json.dumps(r, sort_keys=True) for r in self.finish().records]


def run_grant(reply):
    """Execute every unit of a ``grant``: the ``results`` of the next lease."""
    return [{"key": key, "outcome": _run_unit(task)} for key, task in grant_tasks(reply)]


def serial_record_rows(spec):
    return [json.dumps(r, sort_keys=True) for r in CampaignRunner(spec).run(workers=1).records]


class TestProtocolRobustness:
    def test_a_resent_request_is_deduplicated(self):
        """A worker whose reply timed out sends its request again, results
        included; the coordinator must keep the first copy of each result
        and drop the second."""
        spec = noop_spec("resend", 6)
        live = _LiveCoordinator(spec)
        channel = connect_tcp(*parse_endpoint(live.endpoint))
        request = {"op": "lease", "worker": "resender", "results": [], "busy_s": 0.0}
        resent = 0
        while True:
            channel.send(request)
            replies = [channel.recv(10.0)]
            if request["results"] and not resent:
                channel.send(request)  # the reply "timed out": same request again
                resent = len(request["results"])
                replies.append(channel.recv(10.0))
            reply = replies[-1]
            if reply["op"] != "grant":
                break
            results = [result for granted in replies for result in run_grant(granted)]
            request = {"op": "lease", "worker": "resender", "results": results, "busy_s": 1.0}
        assert reply["op"] == "stop"
        channel.close()
        outcome = live.finish()
        assert [json.dumps(r, sort_keys=True) for r in outcome.records] == serial_record_rows(spec)
        assert outcome.stats["dist_completed"] == 6.0
        assert outcome.stats["dist_dedup_hits"] == float(resent) >= 1.0

    def test_hostile_frames_cost_the_peer_its_connection_not_the_campaign(
        self, caplog, propagating_logs
    ):
        spec = make_spec("hostile")
        live = _LiveCoordinator(spec)
        host, port = parse_endpoint(live.endpoint)

        def framed(payload: bytes) -> bytes:
            return struct.pack(">I", len(payload)) + payload

        def lease(**fields) -> bytes:
            return encode_frame({"op": "lease", "worker": "evil", **fields})

        def dropped(sock) -> bool:
            sock.settimeout(10.0)
            return sock.recv(65536) == b""

        # A peer that holds a lease when it breaks the protocol loses it.
        sock = socket.create_connection((host, port))
        sock.sendall(lease(results=[], busy_s=0.0))
        ((key, *_row),) = recv_frame(sock, 10.0)["units"]
        sock.sendall(lease(results=[{"key": "no-such-unit", "outcome": {"metrics": {}}}]))
        assert dropped(sock)
        sock.close()

        hostile = [
            framed(b"\xff\xfe this is not JSON"),
            framed(b"[1, 2, 3]"),
            framed(b'{"op": "lease", "worker": "evil", "busy_s": NaN}'),
            # The retired message kinds, one of which crashed the old loop.
            encode_frame({"op": "result", "worker": "evil", "key": "nope", "record": {}}),
            encode_frame({"op": "error", "worker": "evil", "key": "nope", "error": "x"}),
            encode_frame({"op": "lease"}),
            encode_frame({"op": "lease", "worker": 7}),
            lease(results="all of them"),
            lease(results=["k0"]),
            lease(results=[{"key": key}]),
            lease(results=[{"key": key, "outcome": {"metrics": {}}, "error": "both"}]),
            lease(results=[{"key": key, "outcome": ["not", "a", "dict"]}]),
            # A worker sends what its run computed, never a row.
            lease(results=[{"key": key, "record": {"unit": key, "metrics": {}}}]),
            lease(results=[{"key": key, "outcome": {"metrics": {}, "scenario": {"name": "x"}}}]),
            lease(results=[{"key": key, "outcome": {"metrics": {}, "seed": 1}}]),
            lease(results=[{"key": key, "outcome": {"metrics": {}, "unit": "another"}}]),
            lease(results=[{"key": key, "outcome": {"obs": {}}}]),
            lease(results=[{"key": key, "outcome": {"metrics": [1.0]}}]),
            lease(results=[{"key": key, "outcome": {"metrics": {}, "slo": "passed"}}]),
            lease(results=[{"key": key, "error": 5}]),
            lease(results=[], busy_s=-1.0),
            lease(results=[], busy_s="long"),
        ]
        for frame in hostile:
            sock = socket.create_connection((host, port))
            sock.sendall(frame)
            assert dropped(sock), frame
            sock.close()

        # Every hostile peer is gone; an honest worker finishes the campaign.
        assert run_standalone_worker(live.endpoint, {"worker_id": "honest"}) == 0
        assert live.rows() == serial_record_rows(spec)
        coordinator = live.coordinator
        assert coordinator.metrics.counter("dist_protocol_errors") == len(hostile) + 1
        assert live.outcome.stats["dist_reclaims"] == 1.0
        assert live.outcome.stats["dist_failed"] == 0.0
        warnings = [r.getMessage() for r in caplog.records if "dropping peer" in r.getMessage()]
        assert len(warnings) == len(hostile) + 1
        assert any("'evil'" in w and "'lease'" in w and "no-such-unit" in w for w in warnings)


class TestResume:
    @pytest.mark.parametrize("transport, workers", AXIS)
    def test_resume_completes_a_partial_store_then_skips_everything(
        self, tmp_path, transport, workers
    ):
        store = ResultStore(tmp_path)
        spec = make_spec("resume")
        # Persist only the first half of the grid, as an interrupt would.
        full = CampaignRunner(spec).run(workers=1).records
        store.save_campaign(spec, full[:2])
        result = run_at(spec, store, transport, workers, resume=True)
        assert result.skipped == 2
        assert len(result.records) == 2
        rows = store.runs_path("resume").read_bytes()
        assert sorted(rows.decode().splitlines()) == sorted(
            json.dumps(r, sort_keys=True) for r in full
        )
        # A second resume finds nothing to do and leaves the rows alone.
        again = run_at(spec, store, transport, workers, resume=True)
        assert again.skipped == 4
        assert again.records == []
        assert store.load_meta("resume")["skipped"] == 4
        assert store.runs_path("resume").read_bytes() == rows
        if transport is not None:
            assert again.dist_stats["dist_leases"] == 0.0

    @pytest.mark.parametrize("transport", ["ipc", "tcp"])
    @pytest.mark.parametrize("done, launched", [(4, 0), (3, 1), (1, 2)])
    def test_launches_as_many_workers_as_asked_or_as_units_are_open(
        self, tmp_path, monkeypatch, transport, done, launched
    ):
        """Two workers asked for, four units: a worker that would find nothing
        to lease is never spawned -- none at all for a fully resumed store."""
        store = ResultStore(tmp_path)
        spec = make_spec("resume")
        store.save_campaign(spec, CampaignRunner(spec).run(workers=1).records[:done])
        spawned = []
        process = multiprocessing.Process

        def counting(*args, **kwargs):
            spawned.append(kwargs["name"])
            return process(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Process", counting)
        result = run_at(spec, store, transport, 2, resume=True)
        assert spawned == [f"dist-w{i}" for i in range(launched)]
        assert result.workers == store.load_meta("resume")["workers"] == launched
        assert result.skipped == done
        assert len(store.load_records("resume")) == 4


class TestCoordinatorDirectly:
    def test_failing_units_fail_terminally(self):
        # Break a unit at the execution level -- its scenario names a
        # runner no worker process has registered -- and assert it retries
        # up to max_attempts, then fails terminally instead of hanging.
        (scenario,) = resolve_scenarios(("baseline-dynamic",))
        spec = CampaignSpec(
            name="fails", scenarios=(replace(scenario, runner="no-such-runner"),), seeds=1
        )
        coordinator = Coordinator(
            CampaignRunner(spec).tasks(),
            DistConfig(transport="thread", max_attempts=2, backoff_base=0.0),
        )
        outcome = coordinator.run(workers=2)
        assert outcome.records == []
        assert outcome.workers == 1  # one open unit: the second worker is never launched
        ((key, error),) = outcome.failed.items()
        assert key.startswith("baseline-dynamic:r0:") and "no-such-runner" in error
        assert outcome.stats["dist_failed"] == 1.0
        assert outcome.stats["dist_retries"] == 1.0

    @pytest.mark.parametrize("transport", ["thread", "ipc"])
    def test_zero_workers_is_rejected_where_no_worker_can_join(self, transport):
        coordinator = Coordinator(
            CampaignRunner(make_spec("nobody")).tasks(), DistConfig(transport=transport)
        )
        with pytest.raises(ValueError, match=f"'{transport}' transport, got 0"):
            coordinator.run(workers=0)

    def test_stall_message_keeps_a_sub_second_timeout_readable(self):
        coordinator = Coordinator(
            CampaignRunner(make_spec("nobody")).tasks(),
            DistConfig(transport="tcp", idle_timeout=0.2),
        )
        with pytest.raises(RuntimeError, match=r"no unit changed state for 0\.2s"):
            coordinator.run(workers=0)


class _Peer:
    """A scripted worker on a socket pair of the transport: what it is sent,
    it keeps."""

    def __init__(self, transport, worker: str):
        self.channel, self.worker, self._replies = SocketChannel(transport.pair()), worker, []

    @property
    def replies(self):
        """Every reply the coordinator has sent so far, in order."""
        try:
            while (reply := self.channel.recv(0.001)) is not None:
                self._replies.append(reply)
        except ChannelClosed:
            pass  # hung up: nothing more comes
        return self._replies

    def lease(self, results=(), busy_s=0.0):
        self.channel.send({"op": "lease", "worker": self.worker,
                           "results": list(results), "busy_s": busy_s})

    def hang_up(self):
        self.channel.close()


class TestParkedLease:
    def test_an_idle_worker_is_parked_then_granted_stopped_or_forgotten(self):
        """One unit, three workers: the holder, and two with nothing to lease."""
        coordinator = Coordinator(
            CampaignRunner(noop_spec("parked", units=1)).tasks(),
            DistConfig(transport="thread", backoff_base=0.0, poll_interval=0.001),
        )
        transport = ThreadTransport()
        holder, idle, leaver = (_Peer(transport, name) for name in ("holder", "idle", "leaver"))

        holder.lease()
        coordinator._step(transport)
        (grant,) = holder.replies
        assert grant["op"] == "grant"

        # Nothing leasable: no reply at all (the retired ``wait``), however
        # often the request is repeated; a disconnect forgets the request.
        idle.lease()
        leaver.lease()
        idle.lease()
        coordinator._step(transport)
        assert idle.replies == leaver.replies == []
        assert list(coordinator._parked) == ["idle", "leaver"]
        leaver.hang_up()
        coordinator._step(transport)
        assert list(coordinator._parked) == ["idle"]

        # The holder's lease expires: the poll round that reclaims the unit
        # grants it to the parked worker.
        (unit,) = coordinator.queue.leased_units()
        unit.lease_deadline = 0.0
        coordinator._step(transport)
        assert [r["op"] for r in idle.replies] == ["grant"]
        assert idle.replies[0]["units"] == grant["units"]
        assert not coordinator._parked

        # Parked again behind the new holder, then stopped when it finishes.
        holder.lease()
        coordinator._step(transport)
        assert holder.replies == [grant] and list(coordinator._parked) == ["holder"]
        idle.lease(run_grant(grant))
        coordinator._step(transport)
        assert coordinator.queue.all_done()
        assert idle.replies[-1] == holder.replies[-1] == {"op": "stop"}
        assert leaver.replies == []


    def test_a_parked_worker_sends_nothing_but_heartbeats(self):
        """A real worker loop behind a scripted holder of the only unit."""
        coordinator = Coordinator(
            CampaignRunner(noop_spec("quiet", units=1)).tasks(),
            DistConfig(transport="thread", poll_interval=0.001),
        )
        transport = ThreadTransport()
        holder = _Peer(transport, "holder")
        holder.lease()
        coordinator._step(transport)
        (grant,) = holder.replies

        heard = []
        handle = coordinator._handle

        def listening(end, message, now):
            if message["worker"] == "idle":
                heard.append(message["op"])
            return handle(end, message, now)

        coordinator._handle = listening
        idle = transport.launch_worker("idle", {"heartbeat_interval": 0.01})
        deadline = time.monotonic() + 0.2
        while time.monotonic() < deadline:
            coordinator._step(transport)
        assert heard[0] == "lease" and len(heard) > 3
        assert set(heard[1:]) == {"heartbeat"}

        # The holder finishes: the parked worker is told to stop, and does.
        holder.lease(run_grant(grant))
        coordinator._step(transport)
        idle.join(timeout=5.0)
        assert not idle.alive()


class _ScriptedRun:
    """``Coordinator.run`` in a thread, on a thread transport whose launched
    workers are scripted :class:`_Peer` objects that act only when told."""

    def __init__(self, monkeypatch, units, workers, transport="thread"):
        self.transport = ThreadTransport()
        self.peers = {}

        def launch(worker_id, options):
            self.peers[worker_id] = _Peer(self.transport, worker_id)
            return WorkerHandle(worker_id)

        monkeypatch.setattr(self.transport, "launch_worker", launch)
        monkeypatch.setattr(transport_module, "make_transport", lambda *args: self.transport)
        self.coordinator = Coordinator(
            CampaignRunner(noop_spec("scripted", units)).tasks(),
            DistConfig(transport=transport, backoff_base=0.0),
        )
        self.outcome = None
        self._thread = threading.Thread(target=self._run, args=(workers,), daemon=True)
        self._thread.start()

    def _run(self, workers):
        self.outcome = self.coordinator.run(workers)

    def launched(self, count):
        deadline = time.monotonic() + 10.0
        while len(self.peers) < count:
            assert time.monotonic() < deadline, "the workers were never launched"
            time.sleep(0.001)
        return [self.peers[f"w{i}"] for i in range(count)]

    def ask(self, peer, results=(), busy_s=0.0):
        """*peer* sends a lease; returns the reply it gets."""
        seen = len(peer.replies)
        peer.lease(results, busy_s)
        deadline = time.monotonic() + 10.0
        while len(peer.replies) == seen:
            assert time.monotonic() < deadline, "the lease was never answered"
            time.sleep(0.001)
        return peer.replies[-1]

    def finish(self, peer, reply):
        """*peer* works off *reply* and every grant after it, alone."""
        while reply["op"] == "grant":
            reply = self.ask(peer, run_grant(reply), busy_s=1e-6)
        self._thread.join(timeout=10.0)
        assert not self._thread.is_alive(), "the coordinator never finished"
        return self.outcome


def granted_twice(units):
    """The tasks of *units* no-op runs, and the first timed grant of them."""
    tasks = CampaignRunner(noop_spec("batch", units)).tasks()
    coordinator = Coordinator(tasks, DistConfig(transport="thread"))
    transport = ThreadTransport()
    peer = _Peer(transport, "peer")
    peer.lease()
    coordinator._step(transport)
    peer.lease(run_grant(peer.replies[-1]), busy_s=1e-6)
    coordinator._step(transport)
    return tasks, peer.replies[-1]


class TestGrants:
    def test_a_launched_worker_not_yet_heard_from_keeps_its_share(self, monkeypatch):
        """Two workers launched, one heard from: its first timed grant is
        half an even share of the unleased units over both, not over one."""
        run = _ScriptedRun(monkeypatch, units=200, workers=2)
        first, _silent = run.launched(2)
        grant = run.ask(first)
        assert len(grant["units"]) == 1  # untimed
        timed = run.ask(first, run_grant(grant), busy_s=1e-6)
        assert 1 < len(timed["units"]) <= -(-199 // 4)
        outcome = run.finish(first, timed)
        assert outcome.workers == 2 and len(outcome.records) == 200

    def test_with_no_launched_worker_grants_are_shared_over_those_heard_from(
        self, monkeypatch
    ):
        run = _ScriptedRun(monkeypatch, units=200, workers=0, transport="tcp")
        alone, joining = _Peer(run.transport, "alone"), _Peer(run.transport, "joining")
        timed = run.ask(alone, run_grant(run.ask(alone)), busy_s=1e-6)
        assert len(timed["units"]) == -(-199 // 2)
        joined = run.ask(joining)
        assert len(joined["units"]) == -(-(199 - 100) // 4)
        alone.hang_up()  # its units go back to the queue
        outcome = run.finish(joining, joined)
        assert outcome.workers == 0 and len(outcome.records) == 200

    def test_a_grant_carries_its_scenario_text_once(self):
        tasks, grant = granted_twice(50)
        text = json.dumps(tasks[0].scenario.canonical_json)[1:-1].encode()
        assert len(grant["units"]) == 25
        assert encode_frame(grant).count(text) == 1

    def test_the_rebuilt_tasks_are_the_originals_on_one_scenario(self):
        tasks, grant = granted_twice(50)
        rebuilt = grant_tasks(json.loads(encode_frame(grant)[4:]))
        by_key = {unit_key(task): task for task in tasks}
        assert len(rebuilt) == 25
        assert [task for _key, task in rebuilt] == [by_key[key] for key, _task in rebuilt]
        assert len({id(task.scenario) for _key, task in rebuilt}) == 1

    def test_a_unit_that_does_not_rebuild_fails_alone(self, monkeypatch):
        coordinator = Coordinator(
            CampaignRunner(noop_spec("broken", 20)).tasks(),
            DistConfig(transport="thread", max_attempts=1),
        )
        reply, broken = coordinator._safe_reply, []

        def breaking(end, message):
            if message["op"] == "grant" and len(message["units"]) > 1 and not broken:
                unit = message["units"][1]
                unit[1] = len(message["variants"])  # names no variant
                broken.append(unit[0])
            reply(end, message)

        monkeypatch.setattr(coordinator, "_safe_reply", breaking)
        outcome = coordinator.run(workers=1)
        (key,) = broken
        assert list(outcome.failed) == [key]
        assert outcome.failed[key].startswith("IndexError")
        assert len(outcome.records) == 19


ODD_RUNNER = "test-fails-while-told-to"


@RUNNERS.register(ODD_RUNNER)
def _fails_while_told_to(spec, seed):
    if os.environ.get("REPRO_TEST_FAIL"):
        raise WorkloadError(f"no such trace for seed {seed}")
    return {"seed": float(seed)}


class TestTerminalFailure:
    @pytest.mark.parametrize("workers", ["1", "2"], ids=["serial", "2-ipc"])
    def test_failed_units_are_one_error_line_and_the_rest_is_kept(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        spec = CampaignSpec(
            name="half",
            scenarios=(
                ScenarioSpec(name="fine", runner=ensure_noop_runner()),
                ScenarioSpec(name="odd", runner=ODD_RUNNER),
            ),
            seeds=3,
        )
        spec.save(tmp_path / "half.json")
        argv = ["campaign", "run", "--spec", str(tmp_path / "half.json"), "--workers", workers,
                "--results-dir", str(tmp_path), "--quiet"]
        store = ResultStore(tmp_path)

        monkeypatch.setenv("REPRO_TEST_FAIL", "1")
        assert cli_main(argv) == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        (error,) = errors
        assert "3 unit(s) failed" in error and "odd:r0:" in error
        assert "WorkloadError: no such trace for seed" in error
        assert "3 completed run(s) kept" in error
        assert [r["scenario"] for r in store.load_records("half")] == ["fine"] * 3

        # --resume re-runs only what failed.
        monkeypatch.delenv("REPRO_TEST_FAIL")
        assert cli_main(argv + ["--resume"]) == 0
        assert "3 runs (3 resumed)" in capsys.readouterr().out
        reference = ResultStore(tmp_path / "reference")
        CampaignRunner(spec, store=reference).run(workers=1)
        assert sorted(store.runs_path("half").read_text().splitlines()) == sorted(
            reference.runs_path("half").read_text().splitlines()
        )

    def test_the_library_raises_a_typed_error_carrying_the_partial_result(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FAIL", "1")
        spec = CampaignSpec(
            name="all-fail", scenarios=(ScenarioSpec(name="odd", runner=ODD_RUNNER),), seeds=2
        )
        with pytest.raises(CampaignFailed) as excinfo:
            CampaignRunner(spec).run(workers=1)
        partial = excinfo.value.result
        assert partial.records == []
        assert [key.split(":")[:2] for key in partial.failed] == [["odd", "r0"], ["odd", "r1"]]
        assert all(error.startswith("WorkloadError: ") for error in partial.failed.values())


class TestDistCli:
    def test_campaign_run_backend_dist_round_trip(self, tmp_path, capsys):
        """Every spelling of a local run writes the same bytes."""
        results = str(tmp_path)
        base = [
            "campaign", "run", "--scenarios", "baseline-dynamic", "--seeds", "2",
            "--results-dir", results, "--quiet",
        ]
        spellings = {
            "one": ["--workers", "1"],
            "four": ["--workers", "4"],
            "tcp": ["--transport", "tcp", "--workers", "2"],
        }
        for name, flags in spellings.items():
            assert cli_main(base + ["--name", name] + flags) == 0
        out = capsys.readouterr().out
        assert "with 1 serial worker(s)" in out and "with 2 ipc worker(s)" in out
        assert "with 2 tcp worker(s)" in out
        store = ResultStore(results)
        assert len({store.runs_path(name).read_bytes() for name in spellings}) == 1
        assert cli_main(["campaign", "report", "tcp",
                         "--results-dir", results]) == 0
        out = capsys.readouterr().out
        assert "distributed execution" in out
        assert "dist_completed" in out

    def test_retired_and_moved_flags(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["campaign", "run", "--help"])
        text = capsys.readouterr().out
        assert "--bind" in text and "--transport" in text
        assert "--backend" not in text and "--dist-workers" not in text
        for retired in (["--backend", "dist"], ["--dist-workers", "2"]):
            with pytest.raises(SystemExit):
                cli_main(["campaign", "run", "--scenarios", "baseline-dynamic", *retired])
            assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli_main(["dist", "coordinator", "--scenarios", "fig9"])
        assert "invalid choice: 'coordinator'" in capsys.readouterr().err

    def test_bad_kill_spec_is_an_error(self, tmp_path, capsys):
        code = cli_main(
            ["campaign", "run", "--scenarios", "baseline-dynamic",
             "--results-dir", str(tmp_path), "--dist-kill-after", "bogus", "--quiet"]
        )
        assert code == 2
        assert "IDX:N" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, complaint",
        [
            (["--transport", "tcp", "--bind", "nowhere"], "host:port"),
            (["--workers", "0"], "'ipc' transport, got 0"),
        ],
        ids=["bind", "zero-workers"],
    )
    def test_bad_bind_and_zero_local_workers_are_errors(self, tmp_path, capsys, flags, complaint):
        code = cli_main(
            ["campaign", "run", "--scenarios", "baseline-dynamic",
             "--results-dir", str(tmp_path), "--quiet"] + flags
        )
        assert code == 2
        assert complaint in capsys.readouterr().err
        assert not ResultStore(tmp_path).list_campaigns()


class TestRealSignal:
    def test_sigterm_drains_a_two_worker_run_and_resume_finishes_it(self, tmp_path):
        """No in-process shortcut: a real ``python -m repro`` process with two
        ``ipc`` workers gets a real SIGTERM after its first progress line."""
        argv = [
            sys.executable, "-m", "repro", "campaign", "run",
            "--scenarios", ",".join(FAST), "--seeds", "20", "--name", "sig",
            "--results-dir", str(tmp_path),
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        process = subprocess.Popen(
            argv + ["--workers", "2"], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert process.stderr.readline().startswith("[1/40]")
            process.send_signal(signal.SIGTERM)
            signalled = time.monotonic()
            _out, err = process.communicate(timeout=60.0)
        finally:
            process.kill()
        assert process.returncode == 130
        # In-flight units drain in one unit's time; only a worker left without
        # a reply (an interrupt that cut a poll round short) sits out 10 s.
        assert time.monotonic() - signalled < 5.0
        assert "interrupted:" in err and "Traceback" not in err
        store = ResultStore(tmp_path)
        partial = len(store.load_records("sig"))
        assert 1 <= partial < 40
        assert store.load_meta("sig")["interrupted"] is True

        done = subprocess.run(
            argv + ["--workers", "2", "--resume", "--quiet"], env=env,
            capture_output=True, text=True, timeout=60.0,
        )
        assert done.returncode == 0 and f"({partial} resumed)" in done.stdout
        reference = ResultStore(tmp_path / "reference")
        CampaignRunner(make_spec("sig", seeds=20), store=reference).run(workers=1)
        assert sorted(store.runs_path("sig").read_text().splitlines()) == sorted(
            reference.runs_path("sig").read_text().splitlines()
        )

    def test_a_worker_terminated_before_its_own_handlers_dies(self, capfd):
        """A SIGTERM that lands between the fork and the worker's signal reset
        gets the default action.  The coordinator's handler raises
        ``KeyboardInterrupt``; run in the child, inside logging's at-fork
        hook, it was printed as ``Exception ignored`` and the signal was lost,
        so the worker outlived ``join`` and kept retrying its connect."""
        for _trial in range(10):
            with _sigterm_as_interrupt():
                transport = TcpTransport("127.0.0.1:0")
                handle = transport.launch_worker("w0", {})
                transport.close()
                handle.process.terminate()
                handle.join(timeout=2.0)
            survived = handle.alive()
            if survived:
                handle.process.kill()
                handle.join()
            assert not survived
        assert "Exception ignored" not in capfd.readouterr().err
