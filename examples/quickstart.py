#!/usr/bin/env python
"""Quickstart: a non-predictably evolving application next to a malleable one.

This is the smallest end-to-end use of the library's public API:

1. build a discrete-event simulator, a platform and a CooRMv2 RMS;
2. create a non-predictably evolving AMR application (it targets 75 %
   efficiency and adapts its allocation inside a pre-allocation) and a
   malleable Parameter-Sweep Application that fills whatever is left;
3. run the simulation and print what happened.

Run with::

    python examples/quickstart.py
"""
from __future__ import annotations

from repro import CooRMv2, Platform, Simulator
from repro.apps import AmrApplication, ParameterSweepApplication
from repro.metrics import SimulationMetrics, format_table
from repro.models import WorkingSetEvolution
from repro.testing import linspace


def main() -> None:
    # --- substrate -------------------------------------------------------
    simulator = Simulator()
    platform = Platform.single_cluster(64)
    rms = CooRMv2(platform, simulator, rescheduling_interval=1.0)

    # --- applications ----------------------------------------------------
    # A deterministic working set that grows from ~5 GiB to ~100 GiB over 25
    # steps (use WorkingSetEvolution.generate(...) for the paper's random
    # acceleration-deceleration profiles).
    evolution = WorkingSetEvolution(linspace(5_000.0, 100_000.0, 25))
    amr = AmrApplication(
        name="amr",
        evolution=evolution,
        preallocation_nodes=40,     # the user's guess of the peak requirement
        target_efficiency=0.75,
    )
    psa = ParameterSweepApplication(name="psa", task_duration=60.0)

    # Stop the (infinite) PSA once the evolving application completes.
    amr.on_finished = lambda _app: psa.shutdown()

    amr.connect(rms)
    psa.connect(rms)

    # --- run ---------------------------------------------------------------
    simulator.run()

    # --- report ------------------------------------------------------------
    metrics = SimulationMetrics.collect(rms, amr=amr, psas=[psa])
    print("CooRMv2 quickstart")
    print(
        format_table(
            ["metric", "value"],
            [
                ("cluster size (nodes)", platform.total_nodes()),
                ("AMR steps executed", amr.current_step),
                ("AMR end time (s)", round(metrics.amr_end_time, 1)),
                ("AMR used resources (node*s)", round(metrics.amr_used_node_seconds)),
                ("PSA tasks completed", psa.stats.completed_tasks),
                ("PSA waste (node*s)", round(metrics.psa_waste_node_seconds, 1)),
                ("used resources", f"{metrics.used_resources_percent:.1f}%"),
            ],
        )
    )
    print()
    print("AMR allocation per step (first 10 steps):")
    for record in amr.step_records[:10]:
        print(
            f"  step {record.step:2d}: {record.node_count:3d} nodes, "
            f"{record.duration:7.1f} s, {record.data_size_mib:9.0f} MiB"
        )


if __name__ == "__main__":
    main()
