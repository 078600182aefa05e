#!/usr/bin/env python
"""Compare scheduling policies on one replayed SWF workload trace.

The core question of the paper is comparative -- does a smarter scheduling
policy beat a rigid batch RMS on the *same* workload?  The policy subsystem
makes that a one-campaign experiment:

1. **declare** a scenario that replays an SWF trace (here the tiny 18-field
   fixture from ``tests/data/``, clamped into a small cluster so the jobs
   actually contend);
2. **sweep** it over several registered policies with a policy x scenario
   campaign -- every policy variant derives the same seed, so all policies
   schedule byte-for-byte the same jobs;
3. **report** the per-policy metrics side by side from the result store.

Run with::

    PYTHONPATH=src python examples/compare_policies_on_trace.py

See ``python -m repro policy list`` for every registered policy, and
``python -m repro campaign run --scenarios trace-replay --policies ...``
for the equivalent CLI invocation.
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
    WorkloadSpec,
)
from repro.campaign.store import by_policy, comparisons
from repro.metrics import format_table
from repro.policies import registry

TRACE_PATH = Path(__file__).parent.parent / "tests" / "data" / "tiny.swf"

#: Deliberately smaller than the trace's 64-node jobs so the clamped jobs
#: queue up and the policies have decisions to disagree about.
CLUSTER_NODES = 16

POLICIES = ("coorm", "easy", "sjf", "largest-area")

#: The headline metrics worth comparing across policies.
METRICS = (
    "used_resources_percent",
    "total_allocated_node_seconds",
    "horizon",
    "trace_finished",
)


def main() -> None:
    print("policies under comparison:")
    for name in POLICIES:
        entry = registry.POLICIES.get(name)
        stages = f"{entry.ordering}/{entry.backfill}/{entry.sharing}"
        print(f"  {name:13s} {stages:40s} {entry.description}")

    scenario = ScenarioSpec(
        name="swf-policy-compare",
        runner="amr_psa",
        description="tiny.swf replayed rigidly on a deliberately small cluster",
        platform=PlatformSpec(cluster_nodes=CLUSTER_NODES),
        workload=WorkloadSpec(
            include_amr=False,
            trace={
                "path": str(TRACE_PATH),
                "strict": False,  # the fixture contains archive quirks
                "transforms": [
                    {"kind": "filter"},  # drop records that cannot run
                    {"kind": "clamp_nodes", "max_nodes": CLUSTER_NODES},
                    {"kind": "shift_to_zero"},
                ],
            },
        ),
    )
    spec = CampaignSpec(
        name="swf-policy-compare",
        scenarios=(scenario,),
        seeds=1,
        policies=POLICIES,
    )

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        result = CampaignRunner(spec, store=store).run()
        print(
            f"\nran {len(result.records)} runs "
            f"({len(POLICIES)} policies x {spec.seeds} seed) "
            f"in {result.elapsed_seconds:.2f}s"
        )
        matrix = comparisons(store.load_records(spec.name), by_policy)["swf-policy-compare"]

    rows = []
    for metric in METRICS:
        rows.append(
            tuple(
                [metric]
                + [
                    f"{matrix[p].get(metric, float('nan')):g}"
                    for p in POLICIES
                ]
            )
        )
    print()
    print(format_table(["metric"] + list(POLICIES), rows))
    print(
        "\nSame trace, same seed, different policies -- any metric spread in"
        "\nthe table above is pure scheduling-policy effect."
    )


if __name__ == "__main__":
    main()
