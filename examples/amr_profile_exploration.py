#!/usr/bin/env python
"""Exploring the AMR models of Section 2 without running any simulation.

This example uses the analytical half of the library:

* draw a few random working-set evolutions (the acceleration--deceleration
  model of Section 2.1) and print their shape statistics;
* evaluate the speed-up model of Section 2.2 for the mesh sizes of Figure 2;
* compute, for one evolution, the dynamic allocation at 75 % efficiency, its
  equivalent static allocation and the end-time increase (Section 2.3) --
  i.e. the numbers that motivate RMS support for evolving applications.

Run with::

    python examples/amr_profile_exploration.py
"""
from __future__ import annotations

from repro.metrics import format_table
from repro.models import (
    PAPER_SPEEDUP_MODEL,
    WorkingSetEvolution,
    dynamic_allocation,
    equivalent_static_allocation,
    static_allocation_range,
)
from repro.models.amr_evolution import AmrEvolutionParameters, normalized_profile
from repro.models.speedup import GIB_IN_MIB, TIB_IN_MIB


def describe_profiles() -> None:
    print("1. Random working-set evolutions (normalised, 1000 steps)")
    rows = []
    for seed in range(4):
        profile = normalized_profile(seed=seed)
        diffs = [b - a for a, b in zip(profile, profile[1:])]
        rows.append(
            (
                seed,
                round(profile[0], 1),
                round(profile[-1], 1),
                f"{100 * sum(d > 0 for d in diffs) / len(diffs):.0f}%",
                round(max(diffs), 1),
            )
        )
    print(format_table(["seed", "start", "end", "increasing steps", "largest jump"], rows))
    print()


def describe_speedup() -> None:
    print("2. Step duration (s) from the fitted speed-up model")
    model = PAPER_SPEEDUP_MODEL
    node_counts = [1, 16, 256, 4096]
    rows = []
    for size_gib in (12, 196, 3136):
        size = size_gib * GIB_IN_MIB
        rows.append(
            [f"{size_gib} GiB"] + [round(model.step_duration(n, size), 2) for n in node_counts]
        )
    print(format_table(["mesh size"] + [f"{n} nodes" for n in node_counts], rows))
    print()


def describe_static_vs_dynamic() -> None:
    print("3. Dynamic vs equivalent static allocation at 75% efficiency")
    evolution = WorkingSetEvolution.generate(
        3.16 * TIB_IN_MIB, seed=0, params=AmrEvolutionParameters()
    )
    dyn = dynamic_allocation(evolution, 0.75)
    static = equivalent_static_allocation(evolution, 0.75)
    choice_range = static_allocation_range(evolution, 0.75)
    rows = [
        ("peak working set", f"{evolution.peak_size_mib / TIB_IN_MIB:.2f} TiB"),
        ("dynamic allocation (min..peak nodes)", f"{int(min(dyn.node_counts))}..{dyn.peak_nodes}"),
        ("dynamic consumed area A(0.75)", f"{dyn.consumed_area / 1e6:.1f} M node*s"),
        ("equivalent static allocation n_eq", f"{static.n_eq:.0f} nodes"),
        ("end-time increase if static", f"{100 * static.end_time_increase:.2f}%"),
        (
            "defensible static range (no OOM, <= +10% area)",
            "none" if choice_range is None else f"{choice_range[0]}..{choice_range[1]} nodes",
        ),
    ]
    print(format_table(["quantity", "value"], rows))
    print()
    print(
        "Reading: a user who knew the whole evolution could pick n_eq and lose\n"
        "under 3% of end time -- but without that knowledge the defensible\n"
        "range is narrow, which is why the RMS should manage the evolution."
    )


def main() -> None:
    describe_profiles()
    describe_speedup()
    describe_static_vs_dynamic()


if __name__ == "__main__":
    main()
