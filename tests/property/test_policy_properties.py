"""Cross-policy property tests: safety invariants hold for EVERY policy.

Whatever queue ordering, backfilling discipline and sharing rule a
registered policy composes, one scheduling pass must preserve the same
safety invariants the default algorithm guarantees:

* planned non-preemptible usage never exceeds the cluster (no double
  booking of capacity);
* non-preemptible requests and pre-allocations are never shrunk -- a
  request is either placed at full size or not placed at all;
* started requests stay started, keep their start time and keep their
  allocated node count;
* preemptive views stay within the platform and never go negative.

An RMS-level test additionally runs random submissions end-to-end per
policy, and ``repro.obs.invariants`` finds nothing in its event log: no
physical node is ever bound to two live requests at once.
"""
from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.core import Request, RequestType, Scheduler, to_view
from repro.obs.invariants import violations
from repro.policies import POLICIES
from repro.testing import RecordingApp, app_with, make_env, np_, p_, pa

CLUSTER_NODES = 32

ALL_POLICIES = tuple(POLICIES.names())


@st.composite
def application_specs(draw):
    """A few applications, each with a random mix of requests."""
    n_apps = draw(st.integers(min_value=1, max_value=4))
    specs = []
    for _ in range(n_apps):
        has_pa = draw(st.booleans())
        pa_nodes = draw(st.integers(min_value=1, max_value=CLUSTER_NODES)) if has_pa else 0
        np_nodes = draw(st.integers(min_value=0, max_value=CLUSTER_NODES))
        p_nodes = draw(st.integers(min_value=0, max_value=CLUSTER_NODES))
        np_duration = draw(st.floats(min_value=10.0, max_value=1000.0, allow_nan=False))
        started = draw(st.booleans())
        specs.append((pa_nodes, np_nodes, p_nodes, np_duration, started))
    return specs


def build_applications(specs, start_some=False):
    applications = {}
    started_requests = []
    for i, (pa_nodes, np_nodes, p_nodes, np_duration, started) in enumerate(specs):
        requests = []
        if pa_nodes:
            requests.append(pa(pa_nodes))
        if np_nodes:
            r = np_(np_nodes, duration=np_duration)
            if start_some and started:
                r.n_alloc = r.node_count
                r.mark_started(0.0)
                started_requests.append(r)
            requests.append(r)
        if p_nodes:
            requests.append(p_(p_nodes))
        applications[f"app{i}"] = app_with(*requests, app_id=f"app{i}")
    return applications, started_requests


def make_started_copy(request: Request) -> Request:
    clone = request.clone_spec()
    clone.n_alloc = request.n_alloc
    clone.mark_started(request.scheduled_at)
    return clone


def planned_footprint(applications):
    """Combined occupation of every placed pre-allocation/non-preemptible
    request (per-app max of PA and non-P, summed across applications)."""
    total = None
    for app in applications.values():
        footprint = None
        for request_set in (app.preallocations, app.non_preemptible):
            occ = None
            for r in request_set:
                if math.isinf(r.scheduled_at) or r.n_alloc <= 0:
                    continue
                rect = to_view([make_started_copy(r)])
                occ = rect if occ is None else occ + rect
            if occ is not None:
                footprint = occ if footprint is None else footprint.union(occ)
        if footprint is not None:
            total = footprint if total is None else total + footprint
    return total


class TestEveryPolicyKeepsTheInvariants:
    @given(
        specs=application_specs(),
        policy=st.sampled_from(ALL_POLICIES),
    )
    @settings(max_examples=120, deadline=None)
    def test_planned_usage_never_exceeds_capacity(self, specs, policy):
        applications, _ = build_applications(specs)
        scheduler = Scheduler({"c0": CLUSTER_NODES}, policy=policy)
        scheduler.schedule(applications, now=0.0, usage={"app0": 100.0})
        total = planned_footprint(applications)
        if total is not None:
            assert total["c0"].max_value() <= CLUSTER_NODES + 1e-9

    @given(
        specs=application_specs(),
        policy=st.sampled_from(ALL_POLICIES),
    )
    @settings(max_examples=120, deadline=None)
    def test_non_preemptible_requests_are_never_shrunk(self, specs, policy):
        applications, _ = build_applications(specs)
        scheduler = Scheduler({"c0": CLUSTER_NODES}, policy=policy)
        scheduler.schedule(applications, now=0.0)
        for app in applications.values():
            for r in list(app.preallocations) + list(app.non_preemptible):
                if not math.isinf(r.scheduled_at):
                    # Placed at full size -- the CooRMv2 spec only lets the
                    # RMS shrink *preemptible* requests.
                    assert r.n_alloc == r.node_count, (policy, r)

    @given(
        specs=application_specs(),
        policy=st.sampled_from(ALL_POLICIES),
    )
    @settings(max_examples=120, deadline=None)
    def test_started_requests_are_never_unstarted(self, specs, policy):
        applications, started = build_applications(specs, start_some=True)
        before = {
            r.request_id: (r.started_at, r.n_alloc, r.node_count) for r in started
        }
        scheduler = Scheduler({"c0": CLUSTER_NODES}, policy=policy)
        result = scheduler.schedule(applications, now=1.0)
        started_ids = {r.request_id for r in started}
        for app in applications.values():
            for r in app.all_requests():
                if r.request_id in started_ids:
                    assert r.started(), (policy, r)
                    assert (r.started_at, r.n_alloc, r.node_count) == before[
                        r.request_id
                    ], (policy, r)
        # The pass never asks the RMS to re-start something already started.
        assert not (started_ids & {r.request_id for r in result.to_start})

    @given(
        specs=application_specs(),
        policy=st.sampled_from(ALL_POLICIES),
    )
    @settings(max_examples=120, deadline=None)
    def test_preemptive_views_stay_within_the_platform(self, specs, policy):
        applications, _ = build_applications(specs)
        scheduler = Scheduler({"c0": CLUSTER_NODES}, policy=policy)
        result = scheduler.schedule(applications, now=0.0)
        assert set(result.preemptive_views) == set(applications)
        for view in result.preemptive_views.values():
            assert view["c0"].max_value() <= CLUSTER_NODES + 1e-9
            assert view["c0"].min_value() >= -1e-9

    @given(
        specs=application_specs(),
        policy=st.sampled_from(ALL_POLICIES),
    )
    @settings(max_examples=60, deadline=None)
    def test_passes_are_deterministic_per_policy(self, specs, policy):
        a, _ = build_applications(specs)
        b, _ = build_applications(specs)
        result_a = Scheduler({"c0": CLUSTER_NODES}, policy=policy).schedule(a, now=0.0)
        result_b = Scheduler({"c0": CLUSTER_NODES}, policy=policy).schedule(b, now=0.0)
        assert sorted(r.node_count for r in result_a.to_start) == sorted(
            r.node_count for r in result_b.to_start
        )


@st.composite
def rms_workloads(draw):
    """A stream of (delay, nodes, duration, type) submissions."""
    n = draw(st.integers(min_value=1, max_value=6))
    jobs = []
    for _ in range(n):
        delay = draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
        nodes = draw(st.integers(min_value=1, max_value=12))
        duration = draw(st.floats(min_value=5.0, max_value=120.0, allow_nan=False))
        preemptible = draw(st.booleans())
        jobs.append((delay, nodes, duration, preemptible))
    return jobs


class TestNoNodeIsDoubleBooked:
    @given(jobs=rms_workloads(), policy=st.sampled_from(ALL_POLICIES))
    @settings(max_examples=40, deadline=None)
    def test_rms_never_binds_a_node_twice(self, jobs, policy):
        simulator, _platform, rms = make_env(nodes=12, policy=policy)
        for i, (delay, nodes, duration, preemptible) in enumerate(jobs):
            rtype = (
                RequestType.PREEMPTIBLE if preemptible else RequestType.NON_PREEMPTIBLE
            )

            def submit(i=i, nodes=nodes, duration=duration, rtype=rtype):
                app_id = f"w{i}"
                rms.connect(RecordingApp(app_id), app_id)
                rms.submit(app_id, Request("cluster0", nodes, duration, rtype))

            simulator.schedule(delay, submit)
        simulator.run()
        assert not list(violations(rms.event_log)), policy
