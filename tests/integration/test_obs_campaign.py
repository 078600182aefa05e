"""Observability layer end-to-end: determinism, neutrality, CLI.

The two load-bearing properties of ``repro.obs`` (ISSUE 6 satellite c):

* identical ``(scenario, seed)`` campaigns produce **byte-identical** trace
  exports, run records (including SLO verdict rows) and derived analytics
  (timelines, job audits) at 1 vs 4 workers -- instrumentation must never
  observe anything process-dependent;
* a *disabled* tracer is invisible: every simulation metric is identical
  with and without live instruments, so the golden fig1--fig11 fixtures
  (exercised by the regression suite) cannot be perturbed by this layer.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, ResultStore, resolve_scenarios
from repro.campaign.registry import run_sweep
from repro.campaign.runner import trace_filename
from repro.obs import EventTracer, MetricsRegistry, PhaseProfiler, observe
from repro.__main__ import main as repro_main

#: Cheap scenarios (single tiny simulation per run).
FAST = ("baseline-dynamic", "strict-equipartition")


def make_spec(name: str) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        scenarios=tuple(resolve_scenarios(FAST)),
        seeds=2,
        root_seed=0,
    )


def run_observed_campaign(root: Path, workers: int) -> Path:
    store = ResultStore(root / f"w{workers}")
    trace_dir = root / f"traces_w{workers}"
    spec = make_spec("obs-itest")
    CampaignRunner(
        spec, store=store, collect_obs=True, trace_dir=trace_dir, slo_spec="default"
    ).run(workers=workers)
    return store.runs_path(spec.name), trace_dir


class TestWorkerCountInvariance:
    def test_records_and_traces_byte_identical_at_1_and_4_workers(self, tmp_path):
        runs_1, traces_1 = run_observed_campaign(tmp_path, workers=1)
        runs_4, traces_4 = run_observed_campaign(tmp_path, workers=4)

        assert runs_1.read_bytes() == runs_4.read_bytes()
        # The records carry SLO verdicts (the runner above evaluates the
        # default spec), so the byte equality just proven covers them; spot
        # check they are actually there.
        slo_rows = [
            json.loads(line)["slo"]
            for line in runs_1.read_text(encoding="utf-8").splitlines()
        ]
        assert slo_rows and all("slo.passed" in row for row in slo_rows)

        files_1 = sorted(p.name for p in traces_1.iterdir())
        files_4 = sorted(p.name for p in traces_4.iterdir())
        assert files_1 == files_4 and files_1, "trace files missing or mismatched"
        for name in files_1:
            assert (traces_1 / name).read_bytes() == (traces_4 / name).read_bytes(), (
                f"trace {name} differs between 1 and 4 workers"
            )

    def test_timelines_and_audits_byte_identical_at_1_and_4_workers(self, tmp_path):
        from repro.obs import TimelineBuilder, build_audits, load_jsonl
        from repro.obs.lifecycle import audits_to_json

        _runs_1, traces_1 = run_observed_campaign(tmp_path, workers=1)
        _runs_4, traces_4 = run_observed_campaign(tmp_path, workers=4)

        compared = 0
        for path_1 in sorted(traces_1.iterdir()):
            path_4 = traces_4 / path_1.name
            events_1 = load_jsonl(path_1.read_text(encoding="utf-8"))
            events_4 = load_jsonl(path_4.read_text(encoding="utf-8"))
            timeline_1 = TimelineBuilder().build(events_1).to_json()
            timeline_4 = TimelineBuilder().build(events_4).to_json()
            assert timeline_1 == timeline_4, f"timeline of {path_1.name} differs"
            audits_1 = audits_to_json(build_audits(events_1))
            audits_4 = audits_to_json(build_audits(events_4))
            assert audits_1 == audits_4, f"audits of {path_1.name} differ"
            compared += 1
        assert compared == len(FAST) * 2

    def test_trace_files_cover_every_run(self, tmp_path):
        _runs, traces = run_observed_campaign(tmp_path, workers=2)
        expected = {
            trace_filename(scenario, replicate)
            for scenario in FAST
            for replicate in range(2)
        }
        assert {p.name for p in traces.iterdir()} == expected


class TestObsRecords:
    def test_obs_snapshot_persisted_and_phase_timings_not(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec("obs-records")
        CampaignRunner(spec, store=store, collect_obs=True).run(workers=1)
        records = store.load_records(spec.name)
        assert records
        for record in records:
            obs = record["obs"]
            assert obs["engine.events_dispatched"] > 0
            assert obs["scheduler.passes"] > 0
            # Wall-clock phase data is non-deterministic and must never
            # land in runs.jsonl; it travels to meta.json instead.
            assert "_phase_seconds" not in record
        meta = json.loads(
            (store.campaign_dir(spec.name) / "meta.json").read_text(encoding="utf-8")
        )
        phases = meta["phase_seconds"]
        assert "campaign.execute" in phases
        assert "store.write" in phases

    def test_plain_campaign_records_carry_no_obs(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec("obs-off")
        CampaignRunner(spec, store=store).run(workers=1)
        for record in store.load_records(spec.name):
            assert "obs" not in record


class TestObservationNeutrality:
    @pytest.mark.parametrize("scenario_name", ["fig9", "fig10"])
    def test_live_instruments_change_no_simulation_metric(self, scenario_name):
        (spec,) = resolve_scenarios([scenario_name])

        plain = run_sweep(spec, 7)
        with observe(
            tracer=EventTracer(), metrics=MetricsRegistry(), profiler=PhaseProfiler()
        ):
            observed = run_sweep(spec, 7)

        assert plain == observed


class TestObsCli:
    def export(self, tmp_path, fmt: str, seed: int = 1, name: str = "t") -> Path:
        out = tmp_path / f"{name}.{fmt}"
        code = repro_main([
            "obs", "export",
            "--scenario", "baseline-dynamic",
            "--seed", str(seed),
            "--format", fmt,
            "--out", str(out),
        ])
        assert code == 0
        return out

    def test_export_writes_valid_chrome_trace(self, tmp_path):
        out = self.export(tmp_path, "chrome")
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["traceEvents"], "empty trace"
        assert doc["otherData"]["event_count"] > 0
        assert doc["otherData"]["dropped_events"] == 0

    def test_export_repeats_byte_identically(self, tmp_path):
        first = self.export(tmp_path, "jsonl", name="a")
        second = self.export(tmp_path, "jsonl", name="b")
        assert first.read_bytes() == second.read_bytes()

    def test_diff_exit_codes(self, tmp_path, capsys):
        same_a = self.export(tmp_path, "jsonl", seed=1, name="a")
        same_b = self.export(tmp_path, "jsonl", seed=1, name="b")
        other = self.export(tmp_path, "jsonl", seed=2, name="c")

        assert repro_main(["obs", "diff", str(same_a), str(same_b)]) == 0
        assert "identical" in capsys.readouterr().out

        assert repro_main(["obs", "diff", str(same_a), str(other)]) == 1
        assert "diverge" in capsys.readouterr().out

        assert repro_main(["obs", "diff", str(same_a), str(tmp_path / "nope")]) == 2

    def test_summarize_prints_event_breakdown(self, capsys):
        assert repro_main(
            ["obs", "summarize", "--scenario", "baseline-dynamic", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "trace events" in out
        assert "engine" in out and "dispatch" in out

    def test_export_unknown_scenario_fails_cleanly(self, capsys):
        assert repro_main(["obs", "export", "--scenario", "figZZ"]) == 2
        assert "error" in capsys.readouterr().err

    def test_help_lists_exactly_the_analysis_actions(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(["obs", "--help"])
        assert exit_info.value.code == 0
        listed = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1)
        assert listed.split(",") == [
            "export", "summarize", "timeline", "audit", "slo", "report", "diff",
        ]


class TestAnalyticsCli:
    def run_cli(self, *argv: str) -> int:
        return repro_main(list(argv))

    def test_timeline_json_is_deterministic(self, tmp_path, capsys):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            code = self.run_cli(
                "obs", "timeline",
                "--scenario", "baseline-dynamic", "--seed", "3",
                "--json", "--out", str(out),
            )
            assert code == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]
        parsed = json.loads(outputs[0])
        assert "util.pct" in parsed["series"]

    def test_audit_text_and_json(self, capsys):
        assert self.run_cli(
            "obs", "audit", "--scenario", "baseline-dynamic", "--seed", "1"
        ) == 0
        out = capsys.readouterr().out
        assert "wait s" in out and "slowdown" in out

        assert self.run_cli(
            "obs", "audit", "--scenario", "baseline-dynamic", "--seed", "1", "--json"
        ) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed and all("queue_wait" in audit for audit in parsed)

    def test_slo_exit_codes(self, tmp_path, capsys):
        assert self.run_cli(
            "obs", "slo", "--scenario", "baseline-dynamic", "--seed", "1"
        ) == 0
        assert "PASS" in capsys.readouterr().out

        strict = tmp_path / "strict.json"
        strict.write_text(
            json.dumps({
                "name": "impossible",
                "objectives": [
                    {"kind": "mean_bounded_slowdown", "max": 0.5},
                ],
            }),
            encoding="utf-8",
        )
        assert self.run_cli(
            "obs", "slo",
            "--scenario", "baseline-dynamic", "--seed", "1",
            "--spec", str(strict),
        ) == 1
        assert "FAIL" in capsys.readouterr().out

        assert self.run_cli(
            "obs", "slo", "--scenario", "baseline-dynamic",
            "--spec", str(tmp_path / "missing.json"),
        ) == 2

    def test_report_renders_dashboard(self, capsys):
        assert self.run_cli(
            "obs", "report", "--scenario", "baseline-dynamic", "--seed", "1"
        ) == 0
        out = capsys.readouterr().out
        assert "obs report" in out
        assert "timeline" in out and "job lifecycle" in out and "SLO spec" in out

    def test_campaign_slo_flag_end_to_end(self, tmp_path, capsys):
        results = tmp_path / "results"
        assert self.run_cli(
            "campaign", "run",
            "--scenarios", "baseline-dynamic",
            "--seeds", "2",
            "--name", "slo-cli",
            "--results-dir", str(results),
            "--slo", "default",
            "--quiet",
        ) == 0
        capsys.readouterr()
        assert self.run_cli(
            "campaign", "report", "slo-cli", "--results-dir", str(results)
        ) == 0
        out = capsys.readouterr().out
        assert "SLO (PASS" in out and "slo.passed" in out

    def test_campaign_slo_flag_rejects_bad_spec(self, tmp_path, capsys):
        assert self.run_cli(
            "campaign", "run",
            "--scenarios", "baseline-dynamic",
            "--name", "slo-bad",
            "--results-dir", str(tmp_path),
            "--slo", str(tmp_path / "missing.json"),
            "--quiet",
        ) == 2
        assert "error" in capsys.readouterr().err

