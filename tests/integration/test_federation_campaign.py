"""Integration tests of routing x topology federation campaigns.

The ISSUE-5 acceptance bar: a routing x topology campaign matrix must be
byte-identical at 1 vs 4 workers, every routing variant of one scenario
must fan in the exact same workload (same derived seed), and the records
must carry the federation columns the result store groups by.
"""
from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    ScenarioSpec,
    WorkloadSpec,
    builtin_scenarios,
    get_runner,
)
from repro.__main__ import main as cli_main
from repro.campaign.store import by_routing, comparisons
from repro.core.errors import SpecError
from repro.federation import ClusterSpec, FederationSpec

ROUTINGS = ("round-robin", "least-loaded")

#: A short, contended synthetic trace so routing decisions actually matter.
TRACE = {
    "model": {
        "arrivals": {"kind": "poisson", "rate": 1.0 / 15.0},
        "durations": {
            "kind": "log_normal_duration",
            "log_mean": 4.5,
            "log_sigma": 0.5,
            "min_seconds": 30.0,
            "max_seconds": 600.0,
        },
        "nodes": {
            "kind": "log_uniform_nodes",
            "min_nodes": 1,
            "max_nodes": 8,
            "power_of_two": True,
        },
    },
    "job_count": 30,
    "transforms": [{"kind": "clamp_nodes", "max_nodes": 8}],
}

TOPOLOGY = FederationSpec(
    clusters=(ClusterSpec(name="east", nodes=8), ClusterSpec(name="west", nodes=16)),
    routing="any",
)


def federated_campaign(workers: int) -> CampaignSpec:
    scenario = ScenarioSpec(
        name="mini-fed",
        runner="amr_psa",
        workload=WorkloadSpec(include_amr=False, trace=TRACE),
        federation=TOPOLOGY,
    )
    return CampaignSpec(
        name="routing-matrix",
        scenarios=(scenario,),
        seeds=2,
        root_seed=11,
        workers=workers,
        routings=ROUTINGS,
    )


class TestRoutingMatrixDeterminism:
    def test_byte_identical_store_rows_at_1_and_4_workers(self, tmp_path):
        blobs = {}
        for workers in (1, 4):
            store = ResultStore(tmp_path / f"w{workers}")
            result = CampaignRunner(federated_campaign(workers), store=store).run()
            assert result.workers == min(workers, result.spec.run_count)
            blobs[workers] = store.runs_path("routing-matrix").read_bytes()
        assert blobs[1] == blobs[4]

    def test_matrix_shape_and_seed_sharing(self):
        spec = federated_campaign(1)
        assert spec.run_count == len(ROUTINGS) * 2
        tasks = CampaignRunner(spec).tasks()
        assert len(tasks) == spec.run_count
        # Every routing variant of one replicate shares its seed: identical
        # workload fanned into the same topology, directly comparable.
        by_replicate = {}
        for task in tasks:
            by_replicate.setdefault(task.replicate, set()).add(task.seed)
        for replicate, seeds in by_replicate.items():
            assert len(seeds) == 1, (replicate, seeds)
        assert {t.scenario.name for t in tasks} == {
            f"mini-fed+{r}" for r in ROUTINGS
        }
        assert {t.base_scenario for t in tasks} == {"mini-fed"}

    def test_records_carry_federation_columns(self, tmp_path):
        store = ResultStore(tmp_path)
        result = CampaignRunner(federated_campaign(1), store=store).run()
        for record in result.records:
            assert record["base_scenario"] == "mini-fed"
            assert record["routing"] in ROUTINGS
            assert record["topology"] == "2x[east:8+west:16]"
            assert record["scenario"] == f"mini-fed+{record['routing']}"
            metrics = record["metrics"]
            assert metrics["fed_clusters"] == 2.0
            assert metrics["fed_routed[east]"] + metrics["fed_routed[west]"] == 30
        matrix = comparisons(store.load_records("routing-matrix"), by_routing)
        assert set(matrix) == {"mini-fed"}
        assert set(matrix["mini-fed"]) == set(ROUTINGS)
        for medians in matrix["mini-fed"].values():
            assert medians

    def test_routing_matrix_requires_federated_scenarios(self):
        with pytest.raises(ValueError, match="requires federated scenarios"):
            CampaignSpec(
                name="bad",
                scenarios=(ScenarioSpec(name="plain"),),
                routings=ROUTINGS,
            )


class TestChaosSeedRegression:
    def test_member_shrunk_below_a_moldable_job_does_not_abort_the_run(self):
        """fed-hetero3 x flaky-nodes, 200 jobs, seed 5 (lead from PR 11).

        A waiting moldable job saw its member crash to 0 nodes, found that
        nothing fits and submitted its smallest candidate anyway; the RMS's
        ``RequestError`` then aborted the whole simulation.
        """
        base = builtin_scenarios()["fed-hetero3"]
        trace = replace(base.workload.trace, job_count=200)
        spec = replace(
            base, workload=replace(base.workload, trace=trace), faults="flaky-nodes"
        )
        metrics = get_runner(spec.runner)(spec, 5)
        accounted = (
            metrics["trace_finished"]
            + metrics["fault_jobs_lost"]
            + metrics["fault_jobs_rejected"]
        )
        assert accounted == 200
        assert metrics["fault_crashes"] > 0


class TestFaultsOnOneCluster:
    """A plan whose members fit one cluster runs on a scenario without a
    federation: its one member is the ``single`` topology's ``cluster0``."""

    @staticmethod
    def campaign(workers: int) -> CampaignSpec:
        scenario = replace(builtin_scenarios()["baseline-dynamic"], faults="elastic-tide")
        return CampaignSpec(name="tide", scenarios=(scenario,), seeds=2, workers=workers)

    def test_elastic_tide_on_baseline_dynamic_is_byte_identical_at_1_and_2_workers(
        self, tmp_path
    ):
        blobs = {}
        for workers in (1, 2):
            store = ResultStore(tmp_path / f"w{workers}")
            result = CampaignRunner(self.campaign(workers), store=store).run()
            blobs[workers] = store.runs_path("tide").read_bytes()
        assert result.transport == "ipc"
        for record in result.records:
            metrics = record["metrics"]
            assert metrics["fault_elastic_shrinks"] > 0
            assert metrics["fault_sla_attainment_pct"] == 100.0
            assert not any(key.startswith("fed_") for key in metrics)
        assert blobs[1] == blobs[2]

    def test_a_plan_naming_a_second_member_is_refused_at_load(self):
        base = builtin_scenarios()["baseline-dynamic"]
        with pytest.raises(
            SpecError, match=r"^faults: fault plan 'flaky-nodes' references member '#1'"
        ):
            replace(base, faults="flaky-nodes")


class TestFederationCli:
    def test_campaign_run_with_routings_flag(self, tmp_path, capsys):
        code = cli_main(
            [
                "campaign", "run",
                "--scenarios", "fed-dual-trace",
                "--routings", "round-robin,least-loaded",
                "--results-dir", str(tmp_path),
                "--name", "fed-cli",
                "--quiet",
            ]
        )
        assert code == 0
        capsys.readouterr()
        store = ResultStore(tmp_path)
        records = store.load_records("fed-cli")
        assert {r["routing"] for r in records} == {"round-robin", "least-loaded"}
        code = cli_main(
            ["campaign", "report", "fed-cli", "--results-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "routing comparison" in out
        assert "per-cluster breakdown" in out

    def test_routings_flag_rejects_unfederated_scenarios(self, tmp_path, capsys):
        code = cli_main(
            [
                "campaign", "run",
                "--scenarios", "baseline-dynamic",
                "--routings", "round-robin",
                "--results-dir", str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 2
        assert "requires federated scenarios" in capsys.readouterr().err

    def test_routings_flag_rejects_unknown_routing(self, tmp_path, capsys):
        code = cli_main(
            [
                "campaign", "run",
                "--scenarios", "fed-dual-trace",
                "--routings", "teleport",
                "--results-dir", str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 2
        assert "unknown routing policy" in capsys.readouterr().err

    def test_federation_list_and_describe(self, capsys):
        assert cli_main(["federation", "list"]) == 0
        out = capsys.readouterr().out
        for routing in ("any", "round-robin", "least-loaded", "best-fit",
                        "random", "affinity"):
            assert routing in out
        assert "hetero3" in out
        assert cli_main(["federation", "describe", "least-loaded"]) == 0
        assert "least committed work" in capsys.readouterr().out
        assert cli_main(["federation", "describe", "dual", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in blob["clusters"]] == ["east", "west"]
        assert cli_main(["federation", "describe", "nope"]) == 2
        assert "unknown routing policy or topology" in capsys.readouterr().err

    def test_federation_run_prints_breakdown(self, capsys):
        code = cli_main(
            [
                "federation", "run",
                "--scenario", "trace-replay",
                "--topology", "dual",
                "--routing", "round-robin",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fed_util_pct[east]" in out
        assert "fed_util_pct[west]" in out

    def test_federation_run_rejects_unknown_scenario(self, capsys):
        assert cli_main(["federation", "run", "--scenario", "ghost"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
