"""Scheduler throughput benchmark (paper Section 3.2).

The paper reports that its Python implementation "is able to handle
approximately 500 requests/second" on a 2011-era CPU and that the scheduling
algorithm is linear in the number of requests.  This benchmark measures one
scheduling pass over a growing number of requests and prints the resulting
requests-per-second figure, so the linear-complexity claim can be checked on
today's hardware.

Two regimes.  The first two tests rebuild their request sets inside the timed
callable, so every pass they time is a *cold* one: nothing is memoised, the
scheduler folds every application anew.  Their floor guards that path against
the overhead of the incremental machinery.  ``test_steady_state_pass_throughput``
is the regime a simulation spends its life in: one scheduler, many running
applications, and between two passes exactly one of them changed.
"""
from __future__ import annotations

import math

import pytest

from repro.core import ApplicationRequests, Request, RequestType, Scheduler
from repro.metrics import format_table
from repro.policies import POLICIES


def build_workload(num_apps: int, requests_per_app: int):
    """Applications with a pre-allocation, non-preemptible and preemptible mix."""
    applications = {}
    for i in range(num_apps):
        app = ApplicationRequests(f"app{i}")
        app.add(Request("c0", 32, math.inf, RequestType.PREALLOCATION))
        for j in range(requests_per_app):
            app.add(Request("c0", 4 + (j % 8), 600.0 + 60.0 * j, RequestType.NON_PREEMPTIBLE))
        app.add(Request("c0", 16, math.inf, RequestType.PREEMPTIBLE))
        applications[f"app{i}"] = app
    return applications


def report_throughput(label, value, applications, seconds) -> float:
    """Print one table row for a timed pass; returns its requests per second."""
    total_requests = sum(len(app.all_requests()) for app in applications.values())
    throughput = total_requests / seconds if seconds > 0 else float("inf")
    print()
    print(
        format_table(
            [label, "requests", "pass time (s)", "requests/s"],
            [(value, total_requests, f"{seconds:.6f}", f"{throughput:,.0f}")],
        )
    )
    return throughput


@pytest.mark.parametrize("num_apps,requests_per_app", [(4, 4), (8, 8), (16, 8)])
def test_scheduling_pass_throughput(benchmark, num_apps, requests_per_app):
    """Time one full scheduling pass and report requests per second."""
    scheduler = Scheduler({"c0": 4096})

    def one_pass():
        applications = build_workload(num_apps, requests_per_app)
        return scheduler.schedule(applications, now=0.0), applications

    (result, applications) = benchmark(one_pass)
    throughput = report_throughput(
        "applications", num_apps, applications, benchmark.stats.stats.mean
    )
    assert result.non_preemptive_views
    # Even the largest configuration must beat 10x the paper's 500 req/s
    # figure; the issue-7 kernel overhaul runs well clear of this floor.
    assert throughput > 5_000


@pytest.mark.parametrize("policy", POLICIES.names())
def test_policy_pass_throughput(benchmark, policy):
    """One scheduling pass per registered policy, with a throughput floor.

    Every policy swaps at most one stage of the default composition, so no
    policy may cost more than a small constant factor over Algorithm 4; the
    floor is 10x the paper's 500 req/s figure, which even 2011 hardware beat.
    """
    scheduler = Scheduler({"c0": 4096}, policy=policy)
    usage = {f"app{i}": float(i) * 1e4 for i in range(8)}

    def one_pass():
        applications = build_workload(8, 8)
        return scheduler.schedule(applications, now=0.0, usage=usage), applications

    (result, applications) = benchmark(one_pass)
    throughput = report_throughput("policy", policy, applications, benchmark.stats.stats.mean)
    assert result.non_preemptive_views
    assert throughput > 5_000, f"policy {policy} fell below the 5,000 req/s floor"


#: Requests per second through a steady-state pass (64 running rigid
#: applications, one submit or one finish since the previous pass): a third
#: of the ~125k a 2-core shared VM measures.  The pass that folded all 64
#: applications from scratch every time measured ~13k there.
STEADY_STATE_FLOOR = 40_000


def test_steady_state_pass_throughput(benchmark):
    """Time the pass that follows a single change among 64 running applications."""
    scheduler = Scheduler({"c0": 4096})
    applications = {}
    for i in range(64):
        app = ApplicationRequests(f"app{i}")
        running = Request("c0", 4 + (i % 8), 600.0 + 60.0 * i, RequestType.NON_PREEMPTIBLE)
        running.mark_started(0.0)
        app.add(running)
        applications[f"app{i}"] = app
    scheduler.schedule(applications, now=0.0)
    now = 0.0

    def one_change():
        """Alternate: a rigid job is submitted / the one before it finishes."""
        nonlocal now
        now += 1.0
        job = applications.pop("job", None)
        if job is None:
            job = applications["job"] = ApplicationRequests("job")
            job.add(Request("c0", 8, 300.0, RequestType.NON_PREEMPTIBLE))
        else:
            for request in job.all_requests():
                request.mark_finished(now)

    def one_pass():
        result = scheduler.schedule(applications, now=now)
        for request in result.to_start:
            request.mark_started(now)
        return result

    result = benchmark.pedantic(one_pass, setup=one_change, rounds=400, warmup_rounds=4)
    throughput = report_throughput(
        "running applications", 64, applications, benchmark.stats.stats.median
    )
    assert len(result.non_preemptive_views) == len(applications)
    assert throughput > STEADY_STATE_FLOOR
