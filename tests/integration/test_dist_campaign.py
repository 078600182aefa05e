"""Distributed campaign execution: byte-identity, chaos, resume, CLI.

The acceptance bar of the distributed tier: for the same campaign spec,
``runs.jsonl`` is byte-identical across the serial pool, a multi-process
pool and the dist backend at one and four workers on every transport --
and a worker killed mid-campaign changes nothing except the retry
counters in ``meta.json``.
"""
from __future__ import annotations

import json
import multiprocessing
import socket
import struct
import threading
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    ScenarioSpec,
    resolve_scenarios,
)
from repro.campaign.cli import main as cli_main
from repro.campaign.runner import _execute_task
from repro.campaign.units import task_from_dict
from repro.dist import ensure_noop_runner, run_standalone_worker
from repro.dist.coordinator import Coordinator, DistConfig
from repro.dist.transport import (
    TRANSPORT_NAMES,
    connect_tcp,
    encode_frame,
    parse_endpoint,
    recv_frame,
)

#: Cheap scenarios (single simulation per run at tiny scale).
FAST = ("baseline-dynamic", "strict-equipartition")


def make_spec(name, scenarios=FAST, seeds=2) -> CampaignSpec:
    return CampaignSpec(
        name=name, scenarios=tuple(resolve_scenarios(scenarios)), seeds=seeds
    )


def run_bytes(store, name, **kwargs) -> bytes:
    CampaignRunner(make_spec(name), store=store).run(**kwargs)
    return store.runs_path(name).read_bytes()


@pytest.fixture(scope="module")
def serial_rows(tmp_path_factory) -> bytes:
    store = ResultStore(tmp_path_factory.mktemp("serial"))
    return run_bytes(store, "serial", workers=1)


class TestByteIdentityAcrossBackends:
    def test_pool_four_workers_matches_serial(self, tmp_path, serial_rows):
        assert run_bytes(ResultStore(tmp_path), "serial", workers=4) == serial_rows

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_dist_matches_serial(self, tmp_path, serial_rows, transport, workers):
        rows = run_bytes(
            ResultStore(tmp_path),
            "serial",
            workers=workers,
            backend="dist",
            dist=DistConfig(transport=transport),
        )
        assert rows == serial_rows

    def test_dist_meta_records_backend_and_counters(self, tmp_path):
        store = ResultStore(tmp_path)
        run_bytes(store, "serial", workers=2, backend="dist")
        meta = store.load_meta("serial")
        assert meta["backend"] == "dist"
        assert meta["dist"]["dist_completed"] == 4.0
        assert meta["dist"]["dist_failed"] == 0.0


class TestChaosAtTheExecutionTier:
    @pytest.mark.parametrize("transport", ["ipc", "tcp"])
    def test_killed_worker_reruns_units_with_identical_rows(
        self, tmp_path, serial_rows, transport
    ):
        """Worker 0 dies abruptly after its first lease (``os._exit``, no
        goodbye).  Lease release + retry must rerun its unit elsewhere and
        the final rows must be byte-identical to the serial run --
        exactly-once, not at-least-once."""
        store = ResultStore(tmp_path)
        spec = make_spec("chaos")
        result = CampaignRunner(spec, store=store).run(
            workers=2,
            backend="dist",
            dist=DistConfig(transport=transport, lease_ttl=5.0,
                            kill_after_leases={0: 1}),
        )
        assert store.runs_path("chaos").read_bytes() == serial_rows
        assert result.dist_stats["dist_reclaims"] >= 1.0
        assert result.dist_stats["dist_completed"] == 4.0
        # Exactly once: four rows, four distinct unit keys.
        records = store.load_records("chaos")
        assert len({r["unit"] for r in records}) == 4

    def test_in_thread_chaos_reclaims_via_channel_close(self, tmp_path, serial_rows):
        # The thread transport cannot os._exit; the chaos seam closes the
        # channel instead, which must surface as the same disconnect path.
        store = ResultStore(tmp_path)
        CampaignRunner(make_spec("chaos"), store=store).run(
            workers=2,
            backend="dist",
            dist=DistConfig(transport="thread", lease_ttl=5.0,
                            kill_after_leases={0: 1}),
        )
        assert store.runs_path("chaos").read_bytes() == serial_rows

    def test_all_workers_killable_campaign_still_completes(self, tmp_path,
                                                           serial_rows):
        # Both initial workers die; retries must still finish the campaign
        # before max_attempts runs out (fresh leases go to... nobody, so
        # this relies on lease reclaim making units available again when a
        # replacement connects -- here the second worker's own next lease).
        store = ResultStore(tmp_path)
        CampaignRunner(make_spec("chaos"), store=store).run(
            workers=3,
            backend="dist",
            dist=DistConfig(transport="ipc", lease_ttl=5.0,
                            kill_after_leases={0: 1, 1: 1}),
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
    CampaignRunner(noop_spec("noop"), store=store).run(workers=1)
    return store.runs_path("noop").read_bytes()


class TestBatchedGrants:
    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_fast_units_travel_in_batches_and_match_serial(
        self, tmp_path, noop_rows, transport, workers
    ):
        store = ResultStore(tmp_path)
        result = CampaignRunner(noop_spec("noop"), store=store).run(
            workers=workers, backend="dist", dist=DistConfig(transport=transport)
        )
        assert store.runs_path("noop").read_bytes() == noop_rows
        stats = result.dist_stats
        assert stats["dist_leases"] == stats["dist_completed"] == NOOP_UNITS
        # One request and one reply per batch, not per unit.
        assert stats["dist_grants"] < 100.0

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_worker_killed_holding_a_batch_has_all_of_it_reclaimed(
        self, tmp_path, noop_rows, transport
    ):
        """Worker 0 runs its first (one-unit) grant, then dies on the second
        unit of its next, multi-unit grant: the finished-but-unreported
        unit and every unit it never started are all re-granted."""
        store = ResultStore(tmp_path)
        result = CampaignRunner(noop_spec("noop"), store=store).run(
            workers=2,
            backend="dist",
            dist=DistConfig(transport=transport, lease_ttl=5.0, kill_after_leases={0: 3}),
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
        result = CampaignRunner(make_spec("serial"), store=store).run(
            workers=2, backend="dist", dist=DistConfig(transport="ipc", poll_interval=0.002)
        )
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
            results = [
                {"key": u["key"], "record": _execute_task(task_from_dict(u["task"]))}
                for granted in replies
                for u in granted.get("units", [])
            ]
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
        (unit,) = recv_frame(sock, 10.0)["units"]
        sock.sendall(lease(results=[{"key": "no-such-unit", "record": {}}]))
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
            lease(results=[{"key": unit["key"]}]),
            lease(results=[{"key": unit["key"], "record": {}, "error": "both"}]),
            lease(results=[{"key": unit["key"], "record": ["not", "a", "dict"]}]),
            lease(results=[{"key": unit["key"], "record": {"unit": "another"}}]),
            lease(results=[{"key": unit["key"], "error": 5}]),
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


class TestDistResume:
    def test_resume_skips_completed_units(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec("resume")
        CampaignRunner(spec, store=store).run(workers=1)
        result = CampaignRunner(spec, store=store).run(
            workers=2, backend="dist", resume=True
        )
        assert result.skipped == 4
        assert result.records == []
        assert result.dist_stats["dist_leases"] == 0.0

    @pytest.mark.parametrize("transport", ["ipc", "tcp"])
    def test_full_resume_spawns_no_worker_process(self, tmp_path, monkeypatch, transport):
        store = ResultStore(tmp_path)
        spec = make_spec("resume")
        CampaignRunner(spec, store=store).run(workers=1)
        rows = store.runs_path("resume").read_bytes()

        def spawned(*args, **kwargs):
            raise AssertionError("a fully resumed run must not launch workers")

        monkeypatch.setattr(multiprocessing, "Process", spawned)
        result = CampaignRunner(spec, store=store).run(
            workers=2, backend="dist", dist=DistConfig(transport=transport), resume=True
        )
        assert result.skipped == len(CampaignRunner(spec).tasks()) == 4
        assert result.records == []
        assert store.load_meta("resume")["skipped"] == 4
        assert store.runs_path("resume").read_bytes() == rows

    def test_resume_completes_a_partial_store(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec("resume")
        # Persist only the first half of the grid, as an interrupt would.
        runner = CampaignRunner(spec, store=store)
        tasks = runner.tasks()
        full = CampaignRunner(spec).run(workers=1).records
        store.save_campaign(spec, full[:2])
        result = CampaignRunner(spec, store=store).run(
            workers=2, backend="dist", resume=True
        )
        assert result.skipped == 2
        assert len(result.records) == len(tasks) - 2
        rows = store.load_records("resume")
        assert sorted(json.dumps(r, sort_keys=True) for r in rows) == sorted(
            json.dumps(r, sort_keys=True) for r in full
        )


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
        assert len(outcome.failed) == 1
        assert outcome.stats["dist_failed"] == 1.0
        assert outcome.stats["dist_retries"] == 1.0


class TestDistCli:
    def test_campaign_run_backend_dist_round_trip(self, tmp_path, capsys):
        results = str(tmp_path)
        base = [
            "campaign", "run", "--scenarios", "baseline-dynamic", "--seeds", "2",
            "--results-dir", results, "--quiet",
        ]
        assert cli_main(base + ["--name", "pool"]) == 0
        assert cli_main(
            base + ["--name", "dist", "--backend", "dist",
                    "--transport", "tcp", "--dist-workers", "2"]
        ) == 0
        store = ResultStore(results)
        assert (
            store.runs_path("pool").read_bytes()
            == store.runs_path("dist").read_bytes()
        )
        capsys.readouterr()
        assert cli_main(["campaign", "report", "dist",
                         "--results-dir", results]) == 0
        out = capsys.readouterr().out
        assert "distributed execution" in out
        assert "dist_completed" in out

    def test_bad_kill_spec_is_an_error(self, tmp_path, capsys):
        code = cli_main(
            ["campaign", "run", "--scenarios", "baseline-dynamic",
             "--results-dir", str(tmp_path), "--backend", "dist",
             "--dist-kill-after", "bogus", "--quiet"]
        )
        assert code == 2
        assert "IDX:N" in capsys.readouterr().err
