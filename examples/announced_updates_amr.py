#!/usr/bin/env python
"""Announced vs spontaneous updates for an AMR application (paper Section 5.3).

A non-predictably evolving AMR application shares a cluster with a
Parameter-Sweep Application whose tasks take 10 minutes.  When the AMR grows
*spontaneously*, the PSA has to kill tasks and the work done on them is lost;
when the AMR *announces* its growth some time in advance, the PSA can let
tasks finish and release the nodes gracefully.

This example runs Figure 10's sweep over a few announce intervals and
prints the trade-off the figure shows: the longer the announce interval, the
lower the PSA waste -- and the later the AMR receives its new nodes, so its
end time grows.

Run with::

    python examples/announced_updates_amr.py
"""
from __future__ import annotations

from dataclasses import replace

from repro.campaign import resolve_scenarios
from repro.campaign.registry import run_sweep
from repro.experiments import EvaluationScale
from repro.metrics import format_table


def main() -> None:
    # The tiny scale so the example finishes in a few seconds; `python -m
    # repro campaign run --scenarios fig10 --scale paper` is the experiment.
    task = EvaluationScale.tiny().psa1_task_duration
    (fig10,) = resolve_scenarios(["fig10"])
    intervals = [0.0, task / 2, task]
    spec = replace(
        fig10, params={"axes": [["workload.announce_interval", intervals]]}, metrics=()
    )
    points = run_sweep(spec, seed=7)

    baseline_end = points[0][1]["amr_end_time"]
    rows = [
        (
            f"{variant.workload.announce_interval:.0f} s",
            f"{metrics['amr_end_time']:.0f} s",
            f"{100 * (metrics['amr_end_time'] / baseline_end - 1):+.1f}%",
            f"{metrics['psa_waste_node_seconds']:.0f}",
            f"{metrics['used_resources_percent']:.1f}%",
        )
        for variant, metrics in points
    ]

    print("Announced updates: the waste / end-time trade-off")
    print(f"(PSA task duration: {task:.0f} s)")
    print()
    print(
        format_table(
            [
                "announce interval",
                "AMR end time",
                "end-time increase",
                "PSA waste (node*s)",
                "used resources",
            ],
            rows,
        )
    )
    print()
    print(
        "Reading: with spontaneous updates (interval 0) the PSA loses work;\n"
        "once the announce interval reaches the task duration the waste\n"
        "vanishes, at the price of a slower AMR."
    )


if __name__ == "__main__":
    main()
