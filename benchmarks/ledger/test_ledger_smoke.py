"""Tier-1 smoke test of the perf ledger (ISSUE 11).

Runs all six workloads plus their traced pass at ``--scale smoke`` (about
1/20 of the measured sizes, no timing assertions) in one child process and
checks the ledger's own contract: every metric BENCHMARK.json declares is
printed, every output check passes, ``sim_digest`` is stable, every span
target still exists, and ``compare`` trips on what it must trip on.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = str(HERE / "run.py")
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Span targets known to be gone.  Empty on the commit that added the
#: ledger; a refactor that renames a wrapped callable lists it here (or,
#: better, a benchmark PR re-points spans.TARGETS at the new name).
EXPECTED_MISSING: set = set()


#: Every ledger workload, and a span of the layer it was chosen for: the
#: workload must reach it.
LAYER_REACHED = {
    "paper-evolving": "core.request_set_prune",
    "swf-replay-rms": "core.scheduler_schedule",
    "swf-pipeline-cbf": "core.cbf_submit",
    "fed-chaos-adaptive": "federation.place",
    "campaign-matrix": "obs.evaluate_slo",
    "dist-noop-tcp": "dist.queue_lease",
}


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *argv], capture_output=True, text=True, timeout=300
    )


def test_smoke_ledger_prints_every_declared_metric(tmp_path):
    out = tmp_path / "ledger.json"
    proc = _run("--scale", "smoke", "--seed", "7", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    document = json.loads(out.read_text(encoding="utf-8"))
    assert document["scale"] == "smoke"
    assert len(document["calibration_s"]) == 2

    # The ledger runs all six; BENCHMARK.json names the ones the driver gates.
    declared = set(LAYER_REACHED)
    assert set(document["workloads"]) == declared
    assert {w["name"] for w in BENCHMARK["workloads"]} <= declared
    printed = set(line.rsplit(" ", 2)[0] for line in proc.stdout.splitlines())
    for name in sorted(declared):
        result = document["workloads"][name]
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            assert f"{name} {metric['name']}" in printed, (name, metric["name"])
        assert f"{name} fail_ratio" in printed
        # Warm-up, two timed repeats and the traced pass were all checked,
        # and a repeat whose digest differs from the first counts as failed.
        assert result["repeats"] == 2
        assert result["attempted"] == 4 * result["work"]
        assert result["failed"] == 0 and result["fail_ratio"] == 0.0, name
        assert len(result["sim_digest"]) == 64
        assert set(result["missing_spans"]) == EXPECTED_MISSING, name
        assert result["per_layer"]["bench.unattributed_pct"]["value"] < 100.0
        spans = Path(f"{out}.{name}.spans.jsonl").read_text(encoding="utf-8").splitlines()
        first = json.loads(spans[0])
        assert first["name"] == "bench.root" and first["parent"] is None

    for name, span in LAYER_REACHED.items():
        assert document["workloads"][name]["per_layer"][f"{span}.calls"]["value"] > 0, name

    # A smoke file is not a measurement; compare must refuse it.
    refused = _run("compare", str(out), str(out))
    assert refused.returncode != 0
    assert "not comparable" in refused.stdout + refused.stderr


def test_compare_self_test_trips_on_regression_and_failures():
    proc = _run("compare", "--self-test")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
