"""Micro-benchmarks of the simulation kernel, one floor per optimization.

The kernel speed overhaul (issue 7) touched four hot paths; each gets its
own throughput floor here so a regression in any single optimization fails
CI even when the others hide it in an end-to-end number:

* **Indexed ``StepFunction`` lookups** -- ``value_at``/``min_over`` are
  bisect-indexed instead of linear scans.
* **Single-pass merges** -- ``_combine``, the one kernel behind ``+``/``-``
  and ``maximum``/``minimum``, walks both breakpoint lists once.
* **Incremental CBF availability** -- ``ConservativeBackfillQueue.submit``
  updates its profile in place instead of rebuilding it per job.
* **Batched engine dispatch** -- same-timestamp events fire as one calendar
  bucket, one heap operation per distinct time.

Two more floors hold the scheduling primitives of an RMS pass: ``fit()``
over a pass's worth of requests, and ``to_view()`` on the two-request
``NEXT`` chain an update leaves in a preemptible set (one walk of the set, no
copy), against a view that limits its ``n_alloc``.

Every measurement uses plain ``time.perf_counter`` so the suite runs under
the bare pytest of the CI benchmarks job (no pytest-benchmark plugin) and
standalone via ``PYTHONPATH=src python benchmarks/bench_kernel_micro.py``.

Floors are set 3-8x below the throughput of a 2024-era dev container, so
they only trip on genuine algorithmic regressions, not machine jitter.
"""
from __future__ import annotations

import math
import statistics
import time
from typing import Callable

from repro.core.cbf import CbfJob, ConservativeBackfillQueue
from repro.core.fit import fit
from repro.core.profile import StepFunction
from repro.core.request import Request
from repro.core.request_set import RequestSet
from repro.core.toview import to_view
from repro.core.types import RelatedHow, RequestType
from repro.core.view import View
from repro.sim.engine import Simulator

#: Floors, one per optimization (events per second unless noted).
STEPFN_LOOKUP_FLOOR = 500_000  # value_at calls/s on a ~1.6k-breakpoint profile
STEPFN_MIN_OVER_FLOOR = 150_000  # min_over windows/s on the same profile
STEPFN_COMBINE_FLOOR = 300  # full profile merges/s (~3k breakpoints total)
CBF_SUBMIT_FLOOR = 25_000  # jobs/s through the incremental CBF queue
FIT_FLOOR = 50_000  # requests/s through one fit() pass
TO_VIEW_FLOOR = 30_000  # to_view() calls/s on a 2-request NEXT chain against a view
DISPATCH_FLOOR = 1_000_000  # events/s through Simulator.run (issue 7 target)


def _median_rate(units: int, body: Callable[[], None], repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        body()
        samples.append(time.perf_counter() - started)
    return units / statistics.median(samples)


def _report(name: str, rate: float, floor: float, unit: str) -> None:
    print(f"\n{name}: {rate:,.0f} {unit} (floor {floor:,})")


# --------------------------------------------------------------------- #
# Workloads (deterministic, no RNG: modular patterns are enough here)
# --------------------------------------------------------------------- #
def busy_profile(rectangles: int = 1000, capacity: int = 4096) -> StepFunction:
    """An availability-like profile with O(1000) surviving breakpoints."""
    profile = StepFunction.constant(capacity)
    for i in range(rectangles):
        profile.subtract_rectangle_in_place(
            float(i * 7 % 5000), 13.0 + (i % 9), 1 + i % 32
        )
    return profile


def occupation_profile(rectangles: int = 1000) -> StepFunction:
    profile = StepFunction.constant(0)
    for i in range(rectangles):
        profile.add_rectangle_in_place(float(i * 11 % 5000), 17.0, 1 + i % 16)
    return profile


def cbf_workload(jobs: int):
    """A balanced rigid-job stream: the queue stays busy but never drowns."""
    return [
        CbfJob(f"j{i}", 1 + (i * 7) % 64, 60.0 + (i % 13) * 30.0, submit_time=i * 16.0)
        for i in range(jobs)
    ]


def fit_requests(count: int):
    return [
        Request("c0", 4 + (j % 8), 600.0 + 60.0 * (j % 16), RequestType.NON_PREEMPTIBLE)
        for j in range(count)
    ]


# --------------------------------------------------------------------- #
# 1. Indexed StepFunction lookups
# --------------------------------------------------------------------- #
def test_stepfn_lookup_floor():
    profile = busy_profile()
    probes = [float((i * 37) % 6000) + 0.5 for i in range(1000)]
    value_at = profile.value_at

    def lookups():
        for _ in range(100):
            for t in probes:
                value_at(t)

    rate = _median_rate(100 * len(probes), lookups)
    _report("stepfn_value_at_per_second", rate, STEPFN_LOOKUP_FLOOR, "lookups/s")
    assert rate >= STEPFN_LOOKUP_FLOOR

    min_over = profile.min_over

    def windows():
        for _ in range(20):
            for t in probes:
                min_over(t, t + 50.0)

    rate = _median_rate(20 * len(probes), windows)
    _report("stepfn_min_over_per_second", rate, STEPFN_MIN_OVER_FLOOR, "windows/s")
    assert rate >= STEPFN_MIN_OVER_FLOOR


# --------------------------------------------------------------------- #
# 2. Single-pass profile merges
# --------------------------------------------------------------------- #
def test_stepfn_combine_floor():
    available = busy_profile()
    occupied = occupation_profile()
    repeats = 200

    def merges():
        for _ in range(repeats):
            available - occupied

    rate = _median_rate(repeats, merges)
    _report("stepfn_combines_per_second", rate, STEPFN_COMBINE_FLOOR, "merges/s")
    assert rate >= STEPFN_COMBINE_FLOOR


# --------------------------------------------------------------------- #
# 3. Incremental CBF availability
# --------------------------------------------------------------------- #
def test_cbf_submit_floor():
    jobs = 20_000
    samples = []
    for _ in range(3):
        workload = cbf_workload(jobs)
        queue = ConservativeBackfillQueue(512)
        started = time.perf_counter()
        for job in workload:
            queue.submit(job)
        samples.append(time.perf_counter() - started)
        assert len(queue.jobs) == jobs
    rate = jobs / statistics.median(samples)
    _report("cbf_submit_jobs_per_second", rate, CBF_SUBMIT_FLOOR, "jobs/s")
    assert rate >= CBF_SUBMIT_FLOOR


# --------------------------------------------------------------------- #
# 4. fit() and to_view() throughput
# --------------------------------------------------------------------- #
def test_fit_pass_floor():
    count = 2000
    available = View.constant({"c0": 4096})
    samples = []
    for _ in range(3):
        requests = fit_requests(count)  # fit() mutates: fresh set per run
        started = time.perf_counter()
        occupied = fit(requests, available, 0.0)
        samples.append(time.perf_counter() - started)
        assert occupied["c0"].value_at(0.0) > 0
    rate = count / statistics.median(samples)
    _report("fit_requests_per_second", rate, FIT_FLOOR, "requests/s")
    assert rate >= FIT_FLOOR


def test_to_view_floor():
    running = Request("c0", 8, 600.0, RequestType.PREEMPTIBLE)
    running.mark_started(0.0)
    update = Request("c0", 6, math.inf, RequestType.PREEMPTIBLE, RelatedHow.NEXT, running)
    chain = RequestSet(RequestType.PREEMPTIBLE, [running, update])
    available = View({"c0": StepFunction([0.0, 300.0, 900.0], [64.0, 7.0, 64.0])})
    calls = 20_000

    def walks():
        for _ in range(calls):
            to_view(chain, available)

    rate = _median_rate(calls, walks)
    assert (running.n_alloc, update.n_alloc, update.scheduled_at) == (7, 6, 600.0)
    _report("to_view_calls_per_second", rate, TO_VIEW_FLOOR, "calls/s")
    assert rate >= TO_VIEW_FLOOR


# --------------------------------------------------------------------- #
# 5. Batched engine dispatch
# --------------------------------------------------------------------- #
def test_engine_dispatch_floor():
    events = 300_000
    per_timestamp = 100  # realistic traces coalesce on integer seconds

    def _noop() -> None:
        pass

    samples = []
    for _ in range(3):
        sim = Simulator()
        for i in range(events):
            sim.schedule_at(float(i // per_timestamp), _noop)
        started = time.perf_counter()
        sim.run()
        samples.append(time.perf_counter() - started)
        assert sim.processed_events == events
    rate = events / statistics.median(samples)
    _report("engine_dispatch_events_per_second", rate, DISPATCH_FLOOR, "events/s")
    assert rate >= DISPATCH_FLOOR


if __name__ == "__main__":
    for case in (
        test_stepfn_lookup_floor,
        test_stepfn_combine_floor,
        test_cbf_submit_floor,
        test_fit_pass_floor,
        test_to_view_floor,
        test_engine_dispatch_floor,
    ):
        case()
    print("\nall kernel micro floors hold")
