#!/usr/bin/env python
"""Replay a real-format SWF workload trace through a campaign.

The walk-through every trace-driven evaluation follows:

1. **load** a Standard Workload Format file (here the tiny 18-field fixture
   checked into ``tests/data/``; any Parallel Workloads Archive download,
   ``.gz`` included, works the same way);
2. **transform** it -- drop non-completed jobs, clamp node counts into the
   simulated cluster, re-base submit times;
3. **convert** the rigid records into a mix of rigid/moldable/malleable/
   evolving applications so the CooRMv2 protocol has something to adapt;
4. **replay** the converted workload through a deterministic campaign and
   report the stored metrics next to their workload provenance.

Run with::

    PYTHONPATH=src python examples/replay_swf_trace.py
"""
from __future__ import annotations

import tempfile
from pathlib import Path

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    PlatformSpec,
    ResultStore,
    ScenarioSpec,
    TraceSource,
    WorkloadSpec,
)
from repro.campaign.store import medians, provenance
from repro.metrics import format_table
from repro.traces import AdaptiveMix, convert_trace, load_swf, mix_counts

TRACE_PATH = Path(__file__).parent.parent / "tests" / "data" / "tiny.swf"
CLUSTER_NODES = 64


def main() -> None:
    # --- 1. load ---------------------------------------------------------
    trace = load_swf(TRACE_PATH, strict=False)  # tolerate archive quirks
    print(f"loaded {trace.job_count} jobs from {TRACE_PATH.name}")
    print(f"  MaxNodes={trace.header.max_nodes}  span={trace.span:.0f}s")

    # --- 2/3. transform + convert (preview) ------------------------------
    # The campaign will do this declaratively below; doing it once by hand
    # shows what the scenario's trace source expands to.
    mix = AdaptiveMix(rigid=0.4, moldable=0.2, malleable=0.2, evolving=0.2)
    preview = convert_trace(trace, mix=mix, seed=0, max_nodes=CLUSTER_NODES)
    print("\nadaptive conversion preview:")
    print(format_table(["kind", "jobs"], sorted(mix_counts(preview).items())))

    # --- 4. replay through a campaign ------------------------------------
    scenario = ScenarioSpec(
        name="swf-replay",
        runner="amr_psa",
        description="tiny.swf converted to an adaptive mix",
        platform=PlatformSpec(cluster_nodes=CLUSTER_NODES),
        workload=WorkloadSpec(
            include_amr=False,
            trace=TraceSource(
                path=str(TRACE_PATH),
                transforms=(
                    {"kind": "filter", "statuses": [1]},
                    {"kind": "clamp_nodes", "max_nodes": CLUSTER_NODES},
                    {"kind": "shift_to_zero"},
                ),
                mix=mix.to_dict(),
            ),
        ),
    )
    spec = CampaignSpec(name="swf-replay-demo", scenarios=(scenario,), seeds=2)

    with tempfile.TemporaryDirectory() as results_dir:
        store = ResultStore(results_dir)
        result = CampaignRunner(spec, store=store).run()
        print(
            f"\nreplayed {spec.run_count} runs in {result.elapsed_seconds:.2f}s "
            f"-> {result.store_path}"
        )

        records = store.load_records("swf-replay-demo")  # one read, two tables
        summary = medians(records)["swf-replay"]
        rows = [(k, v) for k, v in summary.items() if not k.startswith("psa")]
        print(format_table(["metric (median over seeds)", "value"], rows))

        origin = provenance(records)["swf-replay"]
        print(f"\nworkload provenance: {origin['source']['path']}")
        print(f"  transform chain: "
              f"{' -> '.join(s['kind'] for s in origin['steps'])}")
        print(f"  realised mix:    {origin['kind_counts']}")


if __name__ == "__main__":
    main()
