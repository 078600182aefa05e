"""Campaign runner: deterministic parallelism, registry, CLI round-trips.

The central guarantee under test: the same campaign spec produces
byte-identical run records whether it executes serially or across worker
processes, because per-run seeds are derived from the spec and records are
canonically re-ordered before persisting.  (``test_dist_campaign.py`` holds
the full serial / transport x workers identity axis.)
"""
from __future__ import annotations

import json

import pytest

from repro.campaign import (
    RUNNERS,
    CampaignRunner,
    CampaignSpec,
    PlatformSpec,
    ResultStore,
    ScenarioSpec,
    WorkloadSpec,
    builtin_scenarios,
    get_runner,
    resolve_scenarios,
)
from repro.__main__ import main as cli_main
from repro.sim.randomness import derive_seed

#: Cheap scenarios (single simulation per run at tiny scale).
FAST = ("baseline-dynamic", "strict-equipartition")


def make_spec(scenarios=FAST, seeds=2, name="itest", root_seed=0) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        scenarios=tuple(resolve_scenarios(scenarios)),
        seeds=seeds,
        root_seed=root_seed,
    )


class TestRegistry:
    def test_builtin_scenarios_cover_every_figure(self):
        names = set(builtin_scenarios())
        assert {"fig1", "fig2", "fig3", "fig4", "fig9", "fig10", "fig11"} <= names

    def test_every_builtin_scenario_has_a_registered_runner(self):
        registered = set(RUNNERS.names())
        for spec in builtin_scenarios().values():
            assert spec.runner in registered
            assert callable(get_runner(spec.runner))

    def test_unknown_scenario_has_helpful_error(self):
        with pytest.raises(KeyError, match="unknown scenario .*known: "):
            resolve_scenarios(["figZZ"])

    def test_scale_override(self):
        (spec,) = resolve_scenarios(["fig9"], scale="reduced")
        assert spec.scale == "reduced"


class TestRunnerDeterminism:
    def test_task_seeds_are_derived_from_the_spec(self):
        spec = make_spec(seeds=3, root_seed=11)
        tasks = CampaignRunner(spec).tasks()
        assert len(tasks) == 6
        for task in tasks:
            assert task.seed == derive_seed(11, task.scenario.name, task.replicate)

    def test_serial_and_parallel_records_are_identical(self, tmp_path):
        spec = make_spec()
        store_a = ResultStore(tmp_path / "serial")
        store_b = ResultStore(tmp_path / "parallel")
        CampaignRunner(spec, store=store_a).run(workers=1)
        CampaignRunner(spec, store=store_b).run(workers=3)
        serial = store_a.runs_path(spec.name).read_bytes()
        parallel = store_b.runs_path(spec.name).read_bytes()
        assert serial == parallel

    def test_different_root_seed_changes_metrics(self):
        base = CampaignRunner(make_spec(("baseline-dynamic",), seeds=1)).run()
        other = CampaignRunner(
            make_spec(("baseline-dynamic",), seeds=1, root_seed=99)
        ).run()
        assert (
            base.records[0]["metrics"]["amr_used_node_seconds"]
            != other.records[0]["metrics"]["amr_used_node_seconds"]
        )

    def test_replicates_differ_from_each_other(self):
        result = CampaignRunner(make_spec(("baseline-dynamic",), seeds=2)).run()
        first, second = (r["metrics"]["amr_used_node_seconds"] for r in result.records)
        assert first != second

    def test_progress_streams_every_run(self):
        seen = []
        spec = make_spec(("baseline-dynamic",), seeds=2)
        CampaignRunner(spec, progress=lambda done, total, rec: seen.append((done, total))).run()
        assert seen == [(1, 2), (2, 2)]

    def test_records_are_canonically_ordered(self):
        result = CampaignRunner(make_spec(seeds=2)).run(workers=2)
        keys = [(r["scenario"], r["replicate"]) for r in result.records]
        assert keys == [
            ("baseline-dynamic", 0),
            ("baseline-dynamic", 1),
            ("strict-equipartition", 0),
            ("strict-equipartition", 1),
        ]

    def test_metrics_of_lookup(self):
        result = CampaignRunner(make_spec(seeds=1)).run()
        metrics = result.metrics_of("baseline-dynamic")
        assert "psa_waste_percent" in metrics
        with pytest.raises(KeyError):
            result.metrics_of("nonexistent")


class TestMixedWorkloadScenario:
    def test_mixed_rigid_runs_and_reports_rigid_jobs(self):
        result = CampaignRunner(make_spec(("mixed-rigid",), seeds=1)).run()
        metrics = result.records[0]["metrics"]
        assert metrics["rigid_jobs"] == 8
        assert 0 <= metrics["rigid_finished"] <= 8

    def test_rigid_only_scenario_has_no_implicit_psa(self):
        # With the AMR dropped and no PSA durations listed, nothing may
        # inject the scale's default PSA1 behind the spec's back.
        scenario = ScenarioSpec(
            name="rigid-only",
            workload=WorkloadSpec(
                include_amr=False,
                rigid_job_count=3,
                rigid_mean_interarrival=30.0,
                rigid_runtime_median=120.0,
            ),
            platform=PlatformSpec(cluster_nodes=32),
        )
        spec = CampaignSpec(name="rigid-only", scenarios=(scenario,))
        metrics = CampaignRunner(spec).run().records[0]["metrics"]
        assert metrics["rigid_jobs"] == 3
        assert metrics["psa_completed_node_seconds"] == 0.0
        assert metrics["psa_waste_node_seconds"] == 0.0


class TestCli:
    def test_run_list_report_round_trip(self, tmp_path, capsys):
        results = str(tmp_path / "results")
        code = cli_main(
            [
                "campaign", "run",
                "--scenarios", "baseline-dynamic",
                "--seeds", "2",
                "--workers", "2",
                "--results-dir", results,
                "--name", "cli-demo",
                "--quiet",
            ]
        )
        assert code == 0
        assert "cli-demo" in capsys.readouterr().out

        assert cli_main(["campaign", "list", "--results-dir", results]) == 0
        out = capsys.readouterr().out
        assert "cli-demo" in out and "baseline-dynamic" in out

        assert cli_main(["campaign", "report", "cli-demo", "--results-dir", results]) == 0
        assert "psa_waste_percent" in capsys.readouterr().out

    def test_report_compare(self, tmp_path, capsys):
        results = str(tmp_path / "results")
        for name, root_seed in (("first", "0"), ("second", "5")):
            cli_main(
                [
                    "campaign", "run",
                    "--scenarios", "baseline-dynamic",
                    "--results-dir", results,
                    "--name", name,
                    "--root-seed", root_seed,
                    "--quiet",
                ]
            )
        capsys.readouterr()
        code = cli_main(
            ["campaign", "report", "first", "--compare", "second", "--results-dir", results]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delta" in out and "baseline-dynamic" in out

    def test_run_from_spec_file(self, tmp_path, capsys):
        results = str(tmp_path / "results")
        spec = make_spec(("baseline-dynamic",), seeds=1, name="from-file")
        spec_path = tmp_path / "campaign.json"
        spec.save(spec_path)
        code = cli_main(
            ["campaign", "run", "--spec", str(spec_path), "--results-dir", results, "--quiet"]
        )
        assert code == 0
        records = ResultStore(results).load_records("from-file")
        assert len(records) == 1
        capsys.readouterr()

    def test_missing_trace_file_is_one_error_line_not_a_traceback(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.swf"
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(
            json.dumps({
                "name": "bad-trace",
                "scenarios": [{
                    "name": "replay",
                    "workload": {"include_amr": False, "trace": {"path": str(missing)}},
                }],
            }),
            encoding="utf-8",
        )
        code = cli_main([
            "campaign", "run", "--spec", str(spec_path),
            "--results-dir", str(tmp_path / "results"), "--quiet",
        ])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and str(missing) in err
        assert len(err.splitlines()) == 1

    def test_spec_file_flags_override(self, tmp_path, capsys):
        # --seeds / --root-seed given next to --spec must win, not be
        # silently swallowed.
        results = str(tmp_path / "results")
        spec = make_spec(("baseline-dynamic",), seeds=1, name="from-file")
        spec_path = tmp_path / "campaign.json"
        spec.save(spec_path)
        code = cli_main(
            [
                "campaign", "run",
                "--spec", str(spec_path),
                "--seeds", "2",
                "--root-seed", "9",
                "--results-dir", results,
                "--quiet",
            ]
        )
        assert code == 0
        records = ResultStore(results).load_records("from-file")
        assert len(records) == 2
        assert records[0]["seed"] == derive_seed(9, "baseline-dynamic", 0)
        capsys.readouterr()

    def test_scenarios_listing(self, capsys):
        assert cli_main(["campaign", "scenarios"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "mixed-rigid" in out

    def test_unknown_scenario_is_an_error(self, tmp_path, capsys):
        code = cli_main(
            [
                "campaign", "run",
                "--scenarios", "not-a-scenario",
                "--results-dir", str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_report_missing_campaign_is_an_error(self, tmp_path, capsys):
        code = cli_main(["campaign", "report", "ghost", "--results-dir", str(tmp_path)])
        assert code == 2
        capsys.readouterr()


class TestStoredRecordShape:
    def test_record_schema_and_strict_json(self, tmp_path):
        spec = make_spec(("baseline-dynamic",), seeds=1)
        store = ResultStore(tmp_path)
        CampaignRunner(spec, store=store).run()
        (line,) = store.runs_path(spec.name).read_text().strip().splitlines()
        record = json.loads(line)
        assert set(record) == {
            "scenario",
            "base_scenario",
            "policy",
            "routing",
            "topology",
            "replicate",
            "seed",
            "runner",
            "scale",
            "metrics",
            "unit",
        }
        assert record["scenario"] == "baseline-dynamic"
        assert record["base_scenario"] == "baseline-dynamic"
        assert record["policy"] == "coorm"
        assert record["routing"] == ""
        assert record["topology"] == ""
        assert record["replicate"] == 0
        assert record["runner"] == "amr_psa"
        assert record["scale"] == "tiny"
        assert record["unit"].startswith("baseline-dynamic:r0:")


class TestGracefulShutdown:
    def test_interrupt_flushes_partial_results(self, tmp_path):
        """^C mid-campaign drains, persists the completed prefix and raises."""
        from repro.campaign.runner import CampaignInterrupted

        spec = make_spec(seeds=2)
        store = ResultStore(tmp_path)

        def interrupt_after_two(done, _total, _record):
            if done == 2:
                raise KeyboardInterrupt

        runner = CampaignRunner(spec, store=store, progress=interrupt_after_two)
        with pytest.raises(CampaignInterrupted) as excinfo:
            runner.run(workers=1)
        partial = excinfo.value.result
        assert partial.interrupted
        assert len(partial.records) == 2
        # The completed prefix reached the store, and meta records the abort.
        lines = store.runs_path(spec.name).read_text().strip().splitlines()
        assert len(lines) == 2
        assert store.load_meta(spec.name)["interrupted"] is True

    def test_resume_completes_an_interrupted_campaign(self, tmp_path):
        from repro.campaign.runner import CampaignInterrupted

        spec = make_spec(seeds=2)
        store = ResultStore(tmp_path)

        def interrupt_after_two(done, _total, _record):
            if done == 2:
                raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted):
            CampaignRunner(spec, store=store, progress=interrupt_after_two).run(
                workers=1
            )
        result = CampaignRunner(spec, store=store).run(workers=1, resume=True)
        assert result.skipped == 2
        assert len(result.records) == 2
        # The final store holds the full grid exactly once, rows matching a
        # clean serial run line-for-line (resume appends, so order may not).
        reference = make_spec(seeds=2, name="reference")
        CampaignRunner(reference, store=store).run(workers=1)
        resumed = store.runs_path(spec.name).read_text().strip().splitlines()
        clean = store.runs_path("reference").read_text().strip().splitlines()
        assert sorted(resumed) == sorted(clean)


class TestResume:
    def test_resume_without_prior_rows_runs_everything(self, tmp_path):
        spec = make_spec(seeds=1)
        store = ResultStore(tmp_path)
        result = CampaignRunner(spec, store=store).run(workers=1, resume=True)
        assert result.skipped == 0
        assert len(result.records) == 2

    def test_cli_resume_flag(self, tmp_path, capsys):
        argv = [
            "campaign", "run", "--scenarios", "baseline-dynamic", "--seeds", "1",
            "--results-dir", str(tmp_path), "--name", "r", "--quiet",
        ]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 runs (1 resumed)" in out


class TestLegacyBackendKeyword:
    def test_legacy_backend_names_are_accepted_and_change_nothing(self, tmp_path):
        spec = make_spec(seeds=1)
        rows = set()
        for backend in (None, "pool", "dist"):
            store = ResultStore(tmp_path / str(backend))
            result = CampaignRunner(spec, store=store).run(workers=1, backend=backend)
            assert result.transport == store.load_meta(spec.name)["transport"] == "serial"
            rows.add(store.runs_path(spec.name).read_bytes())
        assert len(rows) == 1
        with pytest.raises(ValueError, match="retired keyword"):
            CampaignRunner(spec).run(workers=1, backend="slurm")
