#!/usr/bin/env python
"""A mixed HPC workload under CooRMv2: rigid, moldable, malleable and evolving.

CooRMv2 is not only for evolving applications -- Section 4 of the paper shows
how every classical application type maps onto its request types.  This
example builds a small mixed workload:

* a stream of rigid batch jobs (generated with the workload generator),
* a moldable job that picks its node count from its non-preemptive view,
* a malleable job with a fixed minimum and an elastic preemptible part,
* a fully-predictably evolving workflow (grow then shrink),

runs it through the RMS, and compares the rigid jobs' waiting times with the
classical FCFS + Conservative Back-Filling baseline.

Run with::

    python examples/mixed_batch_workload.py
"""
from __future__ import annotations

from repro import CooRMv2, Platform, Simulator
from repro.apps import (
    EvolutionPhase,
    FullyPredictableEvolvingApplication,
    MalleableApplication,
    MoldableApplication,
    RigidApplication,
)
from repro.baselines import BatchSchedulerBaseline
from repro.metrics import format_table
from repro.workloads import WorkloadParameters, generate_rigid_workload


def main() -> None:
    cluster_nodes = 64
    rigid_jobs = generate_rigid_workload(
        WorkloadParameters(
            job_count=10, max_nodes=32, mean_interarrival=400.0, runtime_log_sigma=0.6
        ),
        seed=42,
    )

    # ---------------- CooRMv2 run ----------------------------------------
    simulator = Simulator()
    platform = Platform.single_cluster(cluster_nodes)
    rms = CooRMv2(platform, simulator, rescheduling_interval=1.0)

    rigid_apps = []
    for job in rigid_jobs:
        app = RigidApplication(job.job_id, node_count=job.node_count, duration=job.duration)
        simulator.schedule_at(job.submit_time, app.connect, rms)
        rigid_apps.append(app)

    moldable = MoldableApplication(
        "moldable",
        candidate_node_counts=[4, 8, 16, 32],
        walltime_model=lambda n: 14_400.0 / n,  # a 4 node-hour job
    )
    malleable = MalleableApplication("malleable", min_nodes=2, duration=3_000.0)
    workflow = FullyPredictableEvolvingApplication(
        "workflow",
        phases=[EvolutionPhase(4, 1_200.0), EvolutionPhase(16, 900.0), EvolutionPhase(2, 600.0)],
    )
    for app in (moldable, malleable, workflow):
        app.connect(rms)

    simulator.run()

    # ---------------- classical baseline ---------------------------------
    baseline = BatchSchedulerBaseline(cluster_nodes)
    baseline.run(rigid_jobs)
    baseline_by_id = {job.job_id: job for job in baseline.queue.jobs}

    # ---------------- report ---------------------------------------------
    rows = []
    for app, job in zip(rigid_apps, rigid_jobs):
        rows.append(
            (
                job.job_id,
                job.node_count,
                round(job.duration),
                round(app.wait_time()),
                round(baseline_by_id[job.job_id].wait_time()),
            )
        )
    print("Rigid jobs: CooRMv2 vs classical FCFS + Conservative Back-Filling")
    print(
        format_table(
            ["job", "nodes", "runtime (s)", "wait under CooRMv2 (s)", "wait under CBF (s)"],
            rows,
        )
    )
    print()
    print(
        format_table(
            ["application", "finished", "makespan (s)"],
            [
                ("moldable (picked %d nodes)" % moldable.chosen_nodes, moldable.finished(), round(moldable.makespan())),
                ("malleable (min 2 nodes)", malleable.finished(), round(malleable.makespan())),
                ("workflow (4 -> 16 -> 2 nodes)", workflow.finished(), round(workflow.makespan())),
            ],
        )
    )
    print()
    print(
        "Reading: rigid jobs see CBF-like waiting times under CooRMv2, while\n"
        "the moldable, malleable and evolving applications coexist with them\n"
        "on the same cluster."
    )


if __name__ == "__main__":
    main()
