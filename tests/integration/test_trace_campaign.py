"""Integration tests: SWF traces flowing through the campaign layer.

Covers the subsystem's acceptance path end to end: a real-format SWF
fixture loads, converts to a mixed adaptive workload, replays through
:class:`~repro.campaign.runner.CampaignRunner` byte-identically at 1 and 4
workers, and leaves its provenance in the result store and the CLI report.
"""
from __future__ import annotations

import json
from pathlib import Path


from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    PlatformSpec,
    ResultStore,
    ScenarioSpec,
    TraceSource,
    WorkloadSpec,
    resolve_scenarios,
)
from repro.__main__ import main as cli_main
from repro.campaign.store import provenance
from repro.traces import load_swf

FIXTURE = Path(__file__).parent.parent / "data" / "tiny.swf"


def fixture_scenario(name: str = "fixture-replay", mix=None) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        runner="amr_psa",
        description="replay the checked-in SWF fixture",
        platform=PlatformSpec(cluster_nodes=64),
        workload=WorkloadSpec(
            include_amr=False,
            trace=TraceSource(
                path=str(FIXTURE),
                transforms=(
                    {"kind": "filter", "statuses": [1]},
                    {"kind": "shift_to_zero"},
                ),
                mix=mix,
            ),
        ),
    )


def record_bytes(records) -> bytes:
    return "".join(
        json.dumps(r, sort_keys=True) + "\n" for r in records
    ).encode()


class TestFixtureReplay:
    def test_fixture_converts_and_replays_to_completion(self):
        spec = CampaignSpec(
            name="fixture",
            scenarios=(
                fixture_scenario(
                    mix={"rigid": 0.4, "moldable": 0.2, "malleable": 0.2, "evolving": 0.2}
                ),
            ),
        )
        result = CampaignRunner(spec).run(workers=1)
        metrics = result.metrics_of("fixture-replay")
        assert metrics["trace_jobs"] == 10  # 12 records - cancelled - unrunnable
        assert metrics["trace_finished"] == metrics["trace_jobs"]

    def test_byte_identical_at_1_and_4_workers(self):
        mix = {"rigid": 0.4, "moldable": 0.2, "malleable": 0.2, "evolving": 0.2}
        spec = CampaignSpec(
            name="fixture",
            scenarios=(fixture_scenario(mix=mix),),
            seeds=2,
        )
        serial = CampaignRunner(spec).run(workers=1)
        parallel = CampaignRunner(spec).run(workers=4)
        assert record_bytes(serial.records) == record_bytes(parallel.records)

    def test_builtin_trace_scenarios_byte_identical_across_workers(self):
        spec = CampaignSpec(
            name="synthetic",
            scenarios=tuple(resolve_scenarios(["trace-adaptive"])),
            seeds=2,
        )
        serial = CampaignRunner(spec).run(workers=1)
        parallel = CampaignRunner(spec).run(workers=2)
        assert record_bytes(serial.records) == record_bytes(parallel.records)

    def test_adaptive_mix_improves_or_matches_rigid_utilisation(self):
        # Sanity: converting to adaptive kinds still finishes every job.
        spec = CampaignSpec(
            name="mix",
            scenarios=(
                fixture_scenario(name="rigid-only"),
                fixture_scenario(name="all-malleable", mix={"malleable": 1.0}),
            ),
        )
        result = CampaignRunner(spec).run(workers=1)
        for scenario in ("rigid-only", "all-malleable"):
            metrics = result.metrics_of(scenario)
            assert metrics["trace_finished"] == metrics["trace_jobs"] == 10


class TestProvenance:
    def test_records_carry_provenance(self, tmp_path):
        spec = CampaignSpec(name="prov", scenarios=(fixture_scenario(),))
        store = ResultStore(tmp_path)
        CampaignRunner(spec, store=store).run(workers=1)
        origin = provenance(store.load_records("prov"))["fixture-replay"]
        assert origin["source"]["path"] == str(FIXTURE)
        assert [s["kind"] for s in origin["steps"]][:2] == ["load", "fingerprint"]
        assert origin["kind_counts"]["rigid"] == origin["job_count"] == 10

    def test_provenance_fingerprint_tracks_content(self, tmp_path):
        copy = tmp_path / "copy.swf"
        copy.write_text(FIXTURE.read_text())
        spec = CampaignSpec(
            name="prov2",
            scenarios=(
                ScenarioSpec(
                    name="copy-replay",
                    platform=PlatformSpec(cluster_nodes=64),
                    workload=WorkloadSpec(
                        include_amr=False, trace=TraceSource(path=str(copy))
                    ),
                ),
            ),
        )
        store = ResultStore(tmp_path / "results")
        CampaignRunner(spec, store=store).run(workers=1)
        steps = provenance(store.load_records("prov2"))["copy-replay"]["steps"]
        fingerprint = next(s for s in steps if s["kind"] == "fingerprint")
        original = load_swf(FIXTURE)
        assert fingerprint["sha256_16"]  # content hash, not path-derived
        assert original.job_count == 12


class TestCli:
    def test_trace_info(self, capsys):
        assert cli_main(["trace", "info", str(FIXTURE)]) == 0
        out = capsys.readouterr().out
        assert "MaxNodes" in out and "64" in out

    def test_trace_info_json(self, capsys):
        assert cli_main(["trace", "info", str(FIXTURE), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["directives"]["MaxNodes"] == "64"
        assert payload["summary"]["jobs"] == 12

    def test_trace_synth_convert_info_round_trip(self, tmp_path, capsys):
        synth = tmp_path / "synth.swf.gz"
        out = tmp_path / "out.swf"
        assert cli_main(
            ["trace", "synth", str(synth), "--jobs", "25", "--seed", "3"]
        ) == 0
        assert cli_main(
            [
                "trace", "convert", str(synth), str(out),
                "--clamp-nodes", "16", "--load-factor", "2",
                "--shift-to-zero", "--mix", "rigid=0.5,malleable=0.5",
            ]
        ) == 0
        trace = load_swf(out)
        assert trace.job_count == 25
        assert trace.max_nodes <= 16

    def test_trace_error_reporting(self, tmp_path, capsys):
        bad = tmp_path / "bad.swf"
        bad.write_text("1 2 3\n")
        assert cli_main(["trace", "info", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.swf:1" in err

    def test_campaign_run_and_report_show_provenance(self, tmp_path, capsys):
        spec_path = tmp_path / "campaign.json"
        CampaignSpec(
            name="cli-prov",
            scenarios=(
                fixture_scenario(mix={"rigid": 0.5, "malleable": 0.5}),
            ),
        ).save(spec_path)
        assert cli_main(
            [
                "campaign", "run", "--spec", str(spec_path),
                "--results-dir", str(tmp_path / "results"), "--quiet",
            ]
        ) == 0
        capsys.readouterr()
        assert cli_main(
            [
                "campaign", "report", "cli-prov",
                "--results-dir", str(tmp_path / "results"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "workload: trace file" in out
        assert "tiny.swf" in out
        assert "mix:" in out


class TestThroughputFloor:
    def test_ingest_and_convert_meets_floor(self):
        """The acceptance floor: >= 10k jobs/s ingested + converted."""
        import time

        from repro.traces import AdaptiveMix, TraceModel, convert_trace, dumps_swf, loads_swf

        text = dumps_swf(TraceModel().synthesize(5000, seed=1))
        mix = AdaptiveMix(rigid=0.5, malleable=0.5)
        started = time.perf_counter()
        trace = loads_swf(text)
        jobs = convert_trace(trace, mix=mix, seed=0)
        elapsed = time.perf_counter() - started
        assert len(jobs) == 5000
        assert 5000 / elapsed > 10_000, f"only {5000 / elapsed:.0f} jobs/s"
