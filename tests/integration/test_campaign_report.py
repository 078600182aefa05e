"""``campaign report`` prints what it printed before the store read its rows once.

One small serial campaign (two federated trace scenarios, one of them swept,
under two policies and two routings, with ``--obs`` and ``--slo``) covers
every section of the report: a workload provenance line, the per-cluster
breakdown, the observability and SLO tables, a sweep table, and the policy
and routing comparisons.  Its report, and a ``--compare`` against the
campaign's replicate-0 rows, are pinned byte for byte under
``tests/data/cli_snapshots/``.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from repro.__main__ import main
from repro.campaign import CampaignRunner, CampaignSpec, ResultStore, ScenarioSpec, WorkloadSpec
from repro.federation import ClusterSpec, FederationSpec

SNAPSHOTS = Path(__file__).resolve().parent.parent / "data" / "cli_snapshots"

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
    "job_count": 12,
}

TOPOLOGY = FederationSpec(
    clusters=(ClusterSpec(name="east", nodes=8), ClusterSpec(name="west", nodes=16)),
    routing="any",
)


def report_campaign() -> CampaignSpec:
    workload = WorkloadSpec(include_amr=False, trace=TRACE)
    return CampaignSpec(
        name="report",
        scenarios=(
            ScenarioSpec(name="mini-fed", workload=workload, federation=TOPOLOGY),
            ScenarioSpec(
                name="mini-sweep",
                workload=workload,
                federation=TOPOLOGY,
                params={"axes": [["workload.trace.job_count", [8, 16]]]},
                metrics=("horizon", "used_resources_percent"),
            ),
        ),
        seeds=2,
        root_seed=3,
        policies=("coorm", "sjf"),
        routings=("round-robin", "least-loaded"),
    )


def write_store(root: Path) -> None:
    """Run the campaign serially into *root*, plus ``report-r0``: its
    replicate-0 rows stored as a second campaign to compare against."""
    store = ResultStore(root)
    spec = report_campaign()
    result = CampaignRunner(spec, store=store, collect_obs=True, slo_spec="default").run(
        workers=1
    )
    first = CampaignSpec.from_dict({**spec.to_dict(), "name": "report-r0", "seeds": 1})
    store.save_campaign(first, [r for r in result.records if r["replicate"] == 0])


#: snapshot file -> the ``campaign report`` arguments that print it.
REPORTS = {
    "campaign_report.txt": ["report"],
    "campaign_report_compare.txt": ["report-r0", "--compare", "report"],
}


@pytest.fixture(scope="module")
def results_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("report-store")
    write_store(root)
    return root


@pytest.mark.parametrize("snapshot", sorted(REPORTS))
def test_report_is_pinned_byte_for_byte(snapshot, results_dir, capsys):
    argv = ["campaign", "report", *REPORTS[snapshot], "--results-dir", str(results_dir)]
    assert main(argv) == 0
    assert capsys.readouterr().out == (SNAPSHOTS / snapshot).read_text(encoding="utf-8")
