"""End-to-end million-job replay benchmark (issue 7 acceptance).

Synthesizes an SWF trace with :class:`~repro.traces.TraceModel`, round-trips
it through the text serializer (so the measured path is the same
synthesize -> dump -> parse -> replay pipeline a real trace study uses),
then replays every job through the discrete-event engine driving a
conservative back-filling queue.  The whole pipeline must finish inside a
wall-clock budget; on the overhauled kernel the full million-job run takes
well under a minute on a dev container, versus a budget of five CI minutes.

By default the benchmark runs a 100,000-job smoke (the CI benchmarks job
uses this mode); set ``BENCH_MILLION_JOBS=1`` for the full million:

    BENCH_MILLION_JOBS=1 PYTHONPATH=src python benchmarks/bench_million_jobs.py
"""
from __future__ import annotations

import math
import os
import time
from typing import Dict

from repro.core.cbf import CbfJob, ConservativeBackfillQueue
from repro.sim.engine import Simulator
from repro.traces import TraceModel, dumps_swf, loads_swf

FULL_RUN = os.environ.get("BENCH_MILLION_JOBS", "") not in ("", "0")
JOB_COUNT = 1_000_000 if FULL_RUN else 100_000
#: Issue 7 acceptance: the full million must replay within five CI minutes.
BUDGET_SECONDS = 300.0 if FULL_RUN else 90.0
SEED = 7


def size_cluster(jobs) -> int:
    """Capacity from offered load: ~40% headroom keeps the queue balanced.

    A starved cluster would measure backlog growth instead of kernel speed;
    an infinite one would never exercise backfilling.
    """
    horizon = max(job.submit_time for job in jobs) or 1.0
    node_seconds = sum(job.node_count * max(job.run_time, 1.0) for job in jobs)
    widest = max(job.node_count for job in jobs)
    return max(widest, math.ceil(1.4 * node_seconds / horizon))


def replay(jobs, node_count: int) -> ConservativeBackfillQueue:
    """Feed every job through the engine into a CBF queue at its submit time."""
    sim = Simulator()
    queue = ConservativeBackfillQueue(node_count)
    submit = queue.submit
    for job in jobs:
        sim.schedule_at(
            job.submit_time,
            submit,
            CbfJob(str(job.job_number), job.node_count, max(job.run_time, 1.0), job.submit_time),
        )
    sim.run()
    return queue


def run_pipeline(job_count: int = JOB_COUNT, seed: int = SEED) -> Dict[str, float]:
    phases: Dict[str, float] = {}
    started = time.perf_counter()

    trace = TraceModel().synthesize(job_count, seed=seed)
    phases["synthesize_seconds"] = time.perf_counter() - started

    mark = time.perf_counter()
    text = dumps_swf(trace)
    phases["serialize_seconds"] = time.perf_counter() - mark

    mark = time.perf_counter()
    parsed = loads_swf(text)
    phases["ingest_seconds"] = time.perf_counter() - mark
    assert parsed.job_count == job_count

    node_count = size_cluster(parsed.jobs)
    mark = time.perf_counter()
    queue = replay(parsed.jobs, node_count)
    phases["replay_seconds"] = time.perf_counter() - mark

    phases["total_seconds"] = time.perf_counter() - started
    phases["jobs"] = float(job_count)
    phases["node_count"] = float(node_count)
    phases["jobs_per_second"] = job_count / phases["total_seconds"]

    assert len(queue.jobs) == job_count, "every job must receive a reservation"
    assert queue.makespan() > 0.0
    return phases


def test_trace_replay_within_budget():
    phases = run_pipeline()
    print(f"\n{JOB_COUNT:,}-job replay on {phases['node_count']:,.0f} nodes:")
    for phase in ("synthesize", "serialize", "ingest", "replay", "total"):
        print(f"  {phase:>10}: {phases[f'{phase}_seconds']:8.2f} s")
    print(f"  overall: {phases['jobs_per_second']:,.0f} jobs/s "
          f"(budget {BUDGET_SECONDS:.0f} s, full run: {FULL_RUN})")
    assert phases["total_seconds"] <= BUDGET_SECONDS, (
        f"{JOB_COUNT:,}-job pipeline took {phases['total_seconds']:.1f}s, "
        f"budget is {BUDGET_SECONDS:.0f}s"
    )


if __name__ == "__main__":
    test_trace_replay_within_budget()
