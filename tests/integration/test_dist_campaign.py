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

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, ResultStore, resolve_scenarios
from repro.campaign.cli import main as cli_main
from repro.dist.coordinator import Coordinator, DistConfig
from repro.dist.transport import TRANSPORT_NAMES

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
        spec = make_spec("fails", scenarios=("baseline-dynamic",), seeds=1)
        tasks = CampaignRunner(spec).tasks()
        coordinator = Coordinator(
            tasks, DistConfig(transport="thread", max_attempts=2,
                              backoff_base=0.0)
        )
        for unit in coordinator.queue._units.values():
            unit.task["scenario"]["runner"] = "no-such-runner"
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
