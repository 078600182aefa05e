"""Integration tests of policy x scenario campaign matrices.

The ISSUE-4 acceptance bar: a policy matrix must compare >= 3 policies on
the same replayed trace with byte-identical result-store rows at any
worker count, and every policy variant of one scenario must replay the
exact same workload (same derived seed).
"""
from __future__ import annotations

import json

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    PlatformSpec,
    ResultStore,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.campaign.store import by_policy, comparisons

POLICIES = ("coorm", "easy", "sjf")

#: A small, contended synthetic trace (mean offered load above one node per
#: second on a 16-node cluster) so policies can actually diverge.
TRACE = {
    "model": {
        "arrivals": {"kind": "poisson", "rate": 1.0 / 20.0},
        "durations": {
            "kind": "log_normal_duration",
            "log_mean": 5.0,
            "log_sigma": 0.6,
            "min_seconds": 30.0,
            "max_seconds": 900.0,
        },
        "nodes": {
            "kind": "log_uniform_nodes",
            "min_nodes": 1,
            "max_nodes": 16,
            "power_of_two": True,
        },
    },
    "job_count": 25,
    "transforms": [{"kind": "clamp_nodes", "max_nodes": 16}],
}


def tiny_trace_campaign(workers: int) -> CampaignSpec:
    scenario = ScenarioSpec(
        name="mini-trace",
        runner="amr_psa",
        platform=PlatformSpec(cluster_nodes=16),
        workload=WorkloadSpec(include_amr=False, trace=TRACE),
    )
    return CampaignSpec(
        name="policy-matrix",
        scenarios=(scenario,),
        seeds=2,
        root_seed=7,
        workers=workers,
        policies=POLICIES,
    )


class TestPolicyMatrixDeterminism:
    def test_byte_identical_store_rows_at_1_and_4_workers(self, tmp_path):
        blobs = {}
        for workers in (1, 4):
            store = ResultStore(tmp_path / f"w{workers}")
            runner = CampaignRunner(tiny_trace_campaign(workers), store=store)
            result = runner.run()
            assert result.workers == min(workers, result.spec.run_count)
            blobs[workers] = store.runs_path("policy-matrix").read_bytes()
        assert blobs[1] == blobs[4]

    def test_matrix_shape_and_seed_sharing(self):
        spec = tiny_trace_campaign(1)
        assert spec.run_count == len(POLICIES) * 2
        runner = CampaignRunner(spec)
        tasks = runner.tasks()
        assert len(tasks) == spec.run_count
        # Every policy variant of one (scenario, replicate) shares its seed:
        # identical workload, directly comparable metrics.
        by_replicate = {}
        for task in tasks:
            by_replicate.setdefault(task.replicate, set()).add(task.seed)
        for replicate, seeds in by_replicate.items():
            assert len(seeds) == 1, (replicate, seeds)
        # ... and the variants are suffix-named after their policy.
        names = {t.scenario.name for t in tasks}
        assert names == {f"mini-trace@{p}" for p in POLICIES}
        assert {t.base_scenario for t in tasks} == {"mini-trace"}

    def test_records_carry_policy_and_base_scenario(self, tmp_path):
        store = ResultStore(tmp_path)
        result = CampaignRunner(tiny_trace_campaign(1), store=store).run()
        for record in result.records:
            assert record["base_scenario"] == "mini-trace"
            assert record["policy"] in POLICIES
            assert record["scenario"] == f"mini-trace@{record['policy']}"
        # The policy matrix view groups them back together.
        matrix = comparisons(store.load_records("policy-matrix"), by_policy)
        assert set(matrix) == {"mini-trace"}
        assert set(matrix["mini-trace"]) == set(POLICIES)
        for medians in matrix["mini-trace"].values():
            assert medians  # every policy produced metrics


class TestPoliciesDivergeUnderContention:
    def test_at_least_one_metric_differs_across_policies(self, tmp_path):
        store = ResultStore(tmp_path)
        CampaignRunner(tiny_trace_campaign(1), store=store).run()
        matrix = comparisons(store.load_records("policy-matrix"), by_policy)["mini-trace"]
        fingerprints = {
            policy: json.dumps(medians, sort_keys=True)
            for policy, medians in matrix.items()
        }
        assert len(set(fingerprints.values())) > 1, (
            "all policies produced identical metrics on a contended trace; "
            "the policy plumbing is probably not reaching the RMS"
        )
