#!/usr/bin/env python
"""Replay one SWF trace across three heterogeneous clusters, two routings.

The federation subsystem multiplies every existing scenario across
multi-cluster topologies without touching the per-cluster semantics.  This
example shows the full loop on real(istic) input:

1. **declare** a scenario that replays the tiny 18-field SWF fixture from
   ``tests/data/`` onto the built-in ``hetero3`` topology (16/32/64-node
   clusters, each running its own CooRMv2 scheduler on one shared event
   engine);
2. **sweep** it over two routing policies with a routing x topology
   campaign -- every routing variant derives the same seed, so both
   routings fan in byte-for-byte the same jobs;
3. **report** the per-routing metrics and the per-cluster utilisation
   breakdown side by side from the result store.

Run with::

    PYTHONPATH=src python examples/federated_trace_campaign.py

See ``python -m repro federation list`` for every registered routing policy
and topology, and ``python -m repro campaign run --scenarios fed-dual-trace
--routings round-robin,least-loaded`` for the equivalent CLI invocation.
"""
from __future__ import annotations

import tempfile
from pathlib import Path

from repro import federation
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.campaign.store import by_routing, comparisons
from repro.metrics import format_table

TRACE_PATH = Path(__file__).parent.parent / "tests" / "data" / "tiny.swf"

ROUTINGS = ("round-robin", "least-loaded")

#: Headline metrics worth comparing across routings.
METRICS = (
    "used_resources_percent",
    "total_allocated_node_seconds",
    "horizon",
    "trace_finished",
)

TOPOLOGY = federation.TOPOLOGIES.get("hetero3")


def main() -> None:
    print("topology:", TOPOLOGY.label())
    print("routings under comparison:")
    for name in ROUTINGS:
        print(f"  {name:13s} {federation.ROUTINGS.describe(name)}")

    scenario = ScenarioSpec(
        name="swf-federated",
        runner="amr_psa",
        description="tiny.swf fanned into three heterogeneous clusters",
        workload=WorkloadSpec(
            include_amr=False,
            trace={
                "path": str(TRACE_PATH),
                "strict": False,  # the fixture contains archive quirks
                "transforms": [
                    {"kind": "filter"},  # drop records that cannot run
                    # The largest member has 64 nodes; the 64-node job in the
                    # trace only ever fits there, which is exactly the kind of
                    # decision the routing policies must get right.
                    {"kind": "clamp_nodes", "max_nodes": 64},
                    {"kind": "shift_to_zero"},
                ],
            },
        ),
        federation=TOPOLOGY,
    )
    spec = CampaignSpec(
        name="swf-federated",
        scenarios=(scenario,),
        seeds=1,
        routings=ROUTINGS,
    )

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        result = CampaignRunner(spec, store=store).run()
        print(
            f"\nran {len(result.records)} runs "
            f"({len(ROUTINGS)} routings x {spec.seeds} seed) "
            f"in {result.elapsed_seconds:.2f}s"
        )
        matrix = comparisons(store.load_records(spec.name), by_routing)["swf-federated"]

    rows = []
    for metric in METRICS:
        rows.append(
            tuple(
                [metric]
                + [f"{matrix[r].get(metric, float('nan')):g}" for r in ROUTINGS]
            )
        )
    print()
    print(format_table(["metric"] + list(ROUTINGS), rows))

    print()
    header = ["cluster"] + [f"util % ({r})" for r in ROUTINGS]
    cluster_rows = []
    for cluster in TOPOLOGY.cluster_names:
        cluster_rows.append(
            tuple(
                [f"{cluster} ({next(c.nodes for c in TOPOLOGY.clusters if c.name == cluster)}n)"]
                + [
                    f"{matrix[r].get(f'fed_util_pct[{cluster}]', float('nan')):.1f}"
                    for r in ROUTINGS
                ]
            )
        )
    print(format_table(header, cluster_rows))
    print(
        "\nSame trace, same seed, different routing -- any spread above is"
        "\npure meta-scheduling effect across the federated clusters."
    )


if __name__ == "__main__":
    main()
