"""Property tests: the work-proportional Algorithm-4 pass vs the old one.

``Scheduler.schedule`` used to run two fits and about a dozen full-profile
merges for every connected application, and ``partition_schedule`` a
``toView`` + two fits + one validated profile per application, whether or
not the application had anything to place.  The pass now skips the fits of a
request set with nothing pending, hands applications without started
pre-allocations one shared clipped availability, and builds one preemptive
profile per distinct column of partition values.  It is also incremental
(memoised started-occupation views, the two availabilities maintained as a
delta over the previous pass), so the reference is the only *stateless* pass.

``reference_schedule`` / ``reference_partition_schedule`` keep the previous
loops verbatim (and ``_reference_easy_fit_pending`` the previous EASY stage)
as the oracle, on the previous view algebra (``_previous_algebra``: every
operator builds a new object).  ``SchedulerMachine`` drives ``CooRMv2`` and
``ReferencePassRMS`` -- the same RMS with ``reference_schedule`` as its pass
-- through the steps of the protocol machine (``tests/support/protocol.py``)
under every registered policy: equal views, ``to_start`` orders and
scheduling attributes, and in ``TestTracedSchedulerMachine`` equal trace
streams.  Sessions leaving and returning under their old id (a mapping in
another order, fresh request sets), ``set_capacity`` between passes and
cancels exercise the kept state.  One scheduler alternating between two
mappings under the same ids is pinned below: no RMS verb produces it.
"""
from __future__ import annotations

import contextlib
import math
from typing import Dict, List
from unittest import mock

import pytest
from hypothesis import settings
from support.protocol import NP, P, ProtocolMachine, weighted

import repro.core.eqschedule as eqschedule
from repro.core import CooRMv2
from repro.core.eqschedule import _interval_breakpoints, _partition_interval
from repro.core.fit import fit
from repro.core.profile import StepFunction
from repro.core.scheduler import (
    ScheduleResult,
    Scheduler,
    _classify_placements,
    _view_total_at,
)
from repro.core.toview import to_view
from repro.core.view import View
from repro.obs import hooks as obs_hooks
from repro.policies.base import SchedulingContext
from repro.testing import app_with, np_, p_

_EPS = 1e-9


# --------------------------------------------------------------------- #
# The oracle: the loops as they were before the optimisation
# --------------------------------------------------------------------- #
def reference_partition_schedule(
    preemptible_sets, available, not_before, horizon=None, partition=None
):
    if partition is None:
        def partition(demands, capacity):
            return _partition_interval(demands, capacity, False)

    app_ids = list(preemptible_sets.keys())

    occupation: Dict[str, View] = {}
    for app_id in app_ids:
        requests = preemptible_sets[app_id]
        fixed_occ = to_view(requests, available)
        pending_occ = fit(requests, available - fixed_occ, not_before)
        occupation[app_id] = fixed_occ + pending_occ

    clusters = set(available.clusters())
    for occ in occupation.values():
        clusters.update(occ.clusters())

    if horizon is None:
        last = 0.0
        for profile in [available[c] for c in clusters] + [
            occ[c] for occ in occupation.values() for c in clusters
        ]:
            if profile.times:
                last = max(last, profile.times[-1])
        horizon = last + 86_400.0

    per_app_caps = {a: {} for a in app_ids}
    for cid in sorted(clusters):
        avail_profile = available[cid]
        occ_profiles = [occupation[a][cid] for a in app_ids]
        profiles = [avail_profile] + occ_profiles
        breakpoints = _interval_breakpoints(profiles, horizon)
        per_app_values: Dict[str, List[float]] = {a: [] for a in app_ids}
        for t in breakpoints:
            capacity = int(math.floor(avail_profile.value_at(t) + 1e-9))
            capacity = max(capacity, 0)
            demands = [int(math.ceil(p.value_at(t) - 1e-9)) for p in occ_profiles]
            values = partition(demands, capacity)
            for a, v in zip(app_ids, values):
                per_app_values[a].append(float(v))
        for a in app_ids:
            if per_app_values[a]:
                per_app_caps[a][cid] = StepFunction(breakpoints, per_app_values[a])

    result: Dict[str, View] = {}
    for app_id in app_ids:
        result[app_id] = View(per_app_caps[app_id])

    for app_id in app_ids:
        requests = preemptible_sets[app_id]
        own_view = result[app_id]
        fixed_occ = to_view(requests, own_view)
        fit(requests, own_view - fixed_occ, not_before)

    return result


def _reference_easy_fit_pending(requests, space, now, head_app):
    occupied = fit(requests, space, now)
    if head_app:
        return occupied
    removed = View.empty()
    for r in requests:
        if r.finished() or r.fixed or r.started():
            continue
        if math.isinf(r.scheduled_at) or r.scheduled_at <= now + _EPS:
            continue
        if r.n_alloc > 0 and r.duration > 0:
            removed = removed.add_rectangle(r.cluster_id, r.scheduled_at, r.duration, r.n_alloc)
        r.scheduled_at = math.inf
        r.n_alloc = 0
    if removed.is_zero():
        return occupied
    return (occupied - removed).clip_low(0.0)


@contextlib.contextmanager
def _previous_algebra():
    """``+``, ``-`` and ``clip_low`` without the identity shortcuts."""

    def profile_clip_low(self, floor=0.0):
        return StepFunction(list(self._times), [max(v, floor) for v in self._values])

    def view_clip_low(self, floor=0.0):
        return View({cid: cap.clip_low(floor) for cid, cap in self._caps.items()})

    previous = [
        (StepFunction, "__add__", lambda a, b: a._combine(b, lambda x, y: x + y)),
        (StepFunction, "__sub__", lambda a, b: a._combine(b, lambda x, y: x - y)),
        (StepFunction, "clip_low", profile_clip_low),
        (View, "__add__", lambda a, b: a._combine(b, lambda x, y: x + y)),
        (View, "__sub__", lambda a, b: a._combine(b, lambda x, y: x - y)),
        (View, "clip_low", view_clip_low),
    ]
    with contextlib.ExitStack() as stack:
        for owner, name, method in previous:
            stack.enter_context(mock.patch.object(owner, name, method))
        yield


def reference_schedule(scheduler: Scheduler, applications, now, usage=None) -> ScheduleResult:
    with _previous_algebra():
        return _reference_schedule(scheduler, applications, now, usage)


def _reference_schedule(scheduler: Scheduler, applications, now, usage) -> ScheduleResult:
    policy = scheduler.policy
    result = ScheduleResult(now=now)
    ctx = SchedulingContext(now=now, capacity=scheduler.capacity, usage=usage or {})
    order = policy.ordering.order(applications, ctx)

    tracer = obs_hooks.TRACER[0]
    observing = tracer is not None
    if observing:
        pending_total = sum(
            len(requests.preallocations.pending()) + len(requests.non_preemptible.pending())
            for requests in applications.values()
        )
        tracer.counter(
            now, "scheduler", "queue_depth", {"apps": len(applications), "pending": pending_total}
        )
        tracer.emit(
            now,
            "scheduler",
            "order",
            {
                "ordering": policy.ordering.name,
                "policy": policy.name,
                "order": list(order),
                "reordered": list(order) != list(applications),
            },
        )

    available_non_preemptible = scheduler.full_view()
    available_preemptible = scheduler.full_view()
    started_pa_occ: Dict[str, View] = {}
    started_np_occ: Dict[str, View] = {}

    for app_id, requests in applications.items():
        pa_occ = to_view(requests.preallocations)
        np_occ = to_view(requests.non_preemptible)
        started_pa_occ[app_id] = pa_occ
        started_np_occ[app_id] = np_occ
        available_non_preemptible = available_non_preemptible - pa_occ
        available_preemptible = available_preemptible - np_occ
        overflow_started = (np_occ - pa_occ).clip_low(0.0)
        if not overflow_started.is_zero():
            available_non_preemptible = available_non_preemptible - overflow_started

    backfill = policy.backfill
    fit_pending = _reference_easy_fit_pending if backfill.name == "easy" else backfill.fit_pending
    head_seen = False
    for app_id in order:
        requests = applications[app_id]
        pa_occ = started_pa_occ[app_id]
        np_occ = started_np_occ[app_id]

        has_pending = bool(requests.preallocations.pending()) or bool(
            requests.non_preemptible.pending()
        )
        is_head = has_pending and not head_seen
        head_seen = head_seen or has_pending

        if observing:
            pending_before = list(requests.preallocations.pending()) + list(
                requests.non_preemptible.pending()
            )

        view_np = (pa_occ + available_non_preemptible).clip_low(0.0)
        result.non_preemptive_views[app_id] = view_np

        occ_pending_pa = fit_pending(requests.preallocations, view_np, now, head_app=is_head)

        pa_space = pa_occ + occ_pending_pa
        inside_pa = (pa_space - np_occ).clip_low(0.0)
        has_preallocations = bool(requests.preallocations.active_or_pending())
        if has_preallocations:
            fit_space = inside_pa
        else:
            free_space = (available_non_preemptible - occ_pending_pa).clip_low(0.0)
            fit_space = inside_pa + free_space
        occ_pending_np = fit_pending(requests.non_preemptible, fit_space, now, head_app=is_head)

        overflow_pending = (occ_pending_np - inside_pa).clip_low(0.0)
        available_non_preemptible = available_non_preemptible - occ_pending_pa - overflow_pending
        available_preemptible = available_preemptible - occ_pending_np

        if observing and pending_before:
            outcome = _classify_placements(pending_before, now)
            tracer.emit(
                now,
                "scheduler",
                "fit",
                {
                    "app": app_id,
                    "head": is_head,
                    "backfill": backfill.name,
                    "free_now": _view_total_at(view_np, now),
                    **outcome,
                },
            )

    preemptible_sets = {
        app_id: requests.preemptible for app_id, requests in applications.items()
    }
    with mock.patch(
        "repro.core.eqschedule.partition_schedule", reference_partition_schedule
    ), mock.patch("repro.policies.sharing.partition_schedule", reference_partition_schedule):
        result.preemptive_views = policy.sharing.share(
            preemptible_sets, available_preemptible.clip_low(0.0), now
        )

    for requests in applications.values():
        for r in requests.all_requests():
            if r.finished() or r.started():
                continue
            if not math.isinf(r.scheduled_at) and r.scheduled_at <= now + 1e-9:
                result.to_start.append(r)

    if observing:
        tracer.emit(
            now,
            "scheduler",
            "share",
            {
                "sharing": policy.sharing.name,
                "alloc": {
                    app_id: round(_view_total_at(view, now), 6)
                    for app_id, view in sorted(result.preemptive_views.items())
                },
            },
        )
        tracer.emit(
            now,
            "scheduler",
            "to_start",
            {
                "count": len(result.to_start),
                "apps": sorted({r.app_id for r in result.to_start}),
            },
        )
    return result


class ReferencePassRMS(CooRMv2):
    """``CooRMv2`` whose every pass is ``reference_schedule``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        scheduler = self.scheduler
        scheduler.schedule = lambda apps, now, usage=None: reference_schedule(
            scheduler, apps, now, usage
        )


class SchedulerMachine(ProtocolMachine):
    reference = ReferencePassRMS


class TracedSchedulerMachine(SchedulerMachine):
    traced = True


TestSchedulerMachine = SchedulerMachine.TestCase
TestSchedulerMachine.settings = settings(max_examples=130, stateful_step_count=30, deadline=None)
TestTracedSchedulerMachine = TracedSchedulerMachine.TestCase
TestTracedSchedulerMachine.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None
)


# --------------------------------------------------------------------- #
# The cases the optimisation is about, pinned explicitly
# --------------------------------------------------------------------- #
_CAPACITY = {"a": 8, "b": 4}


def _mapping(*apps):
    """``app<i>`` -> request sets; each request is ``(request, state)``."""
    for requests in apps:
        for request, state in requests:
            if state != "pending":
                request.mark_started(0.0)
            if state == "finished":
                request.mark_finished(0.0)
    return {
        f"app{i}": app_with(*(r for r, _ in requests), app_id=f"app{i}")
        for i, requests in enumerate(apps)
    }


def _rigid(state, nodes=2):
    return [(np_(nodes, 50.0, cluster="a"), state)]


def _sweep(state, nodes=8):
    return [(p_(nodes, math.inf, cluster="a"), state)]


def test_the_oracle_runs_on_the_previous_algebra():
    view = View.constant(_CAPACITY)
    with _previous_algebra():
        assert view + View.empty() is not view
        assert view.clip_low(0.0) is not view
        assert view["a"] - StepFunction.zero() is not view["a"]
    assert view + View.empty() is view


@pytest.mark.parametrize("policy", ["coorm", "easy", "coorm-strict", "weighted"])
def test_one_scheduler_alternating_between_two_worlds(policy):
    """Mappings A, B (same ids, other objects), A: kept state never leaks."""
    if policy == "weighted":
        policy = weighted({"app0": 2.0, "app2": 0.5})

    def a():
        return _mapping(_rigid("started"), _sweep("started"), _rigid("pending", 5))

    def b():
        return _mapping(_sweep("pending", 3), [], _rigid("started", 7), _rigid("pending"))

    scheduler = Scheduler(_CAPACITY, policy=policy)
    new_a, ref_a = a(), a()
    for now, new, ref in [(0.0, new_a, ref_a), (1.0, b(), b()), (7.0, new_a, ref_a)]:
        got = scheduler.schedule(new, now)
        expected = reference_schedule(scheduler, ref, now)
        for views in ("non_preemptive_views", "preemptive_views"):
            assert repr(getattr(got, views)) == repr(getattr(expected, views))
        ordinals = [
            {id(r): i for i, r in enumerate(r for s in m.values() for r in s.all_requests())}
            for m in (new, ref)
        ]
        assert [ordinals[0][id(r)] for r in got.to_start] == [
            ordinals[1][id(r)] for r in expected.to_start
        ]
        for result in (got, expected):
            for request in result.to_start:
                request.mark_started(now)
        assert scheduler.full_view() == View.constant(scheduler.capacity)


def test_idle_and_running_applications_are_not_fitted(monkeypatch):
    """Only the application with a pending request reaches ``fit``."""
    applications = _mapping(_rigid("started"), [], _rigid("pending"), _rigid("finished"))
    calls = []
    real_fit = fit

    def counting(requests, available, not_before):
        calls.append([r.app_id for r in requests])
        return real_fit(requests, available, not_before)

    monkeypatch.setattr("repro.policies.backfill.fit", counting)
    monkeypatch.setattr("repro.core.eqschedule.fit", counting)
    result = Scheduler(_CAPACITY).schedule(applications, 0.0)
    assert calls == [["app2"]]
    assert [r.app_id for r in result.to_start] == ["app2"]


def test_applications_without_preallocations_share_one_view_object():
    applications = _mapping(_rigid("started"), [], _rigid("started", nodes=3), [])
    result = Scheduler(_CAPACITY).schedule(applications, 0.0)
    views = list(result.non_preemptive_views.values())
    assert all(view is views[0] for view in views)
    assert views[0]["a"].value_at(0.0) == 3.0
    # Nobody holds a preemptible request: one view backs all.
    shared = list(result.preemptive_views.values())
    assert all(view is shared[0] for view in shared)


def test_weighted_idle_applications_keep_their_own_numbers():
    """Idle applications are de-duplicated by content, never by idleness."""
    applications = _mapping(_sweep("started"), [], [], [])
    policy = weighted({"app0": 1.0, "app1": 1.0, "app2": 3.0, "app3": 1.0})
    views = Scheduler(_CAPACITY, policy=policy).schedule(applications, 0.0).preemptive_views
    assert views["app1"]["a"] is views["app3"]["a"]
    assert views["app2"]["a"] is not views["app1"]["a"]
    assert views["app2"]["a"].value_at(0.0) > views["app1"]["a"].value_at(0.0)


# --------------------------------------------------------------------- #
# The idle sharing branch: entered and left under the stateless reference
# --------------------------------------------------------------------- #
def _unions_per_pass(monkeypatch):
    """How many breakpoint unions each ``Scheduler.schedule`` call ran.

    Only the pass under test is counted: the reference keeps the
    ``_interval_breakpoints`` this module imported.  Patch before the
    machine is built, as each world wraps the pass it finds.
    """
    per_pass = []
    real_union, real_schedule = eqschedule._interval_breakpoints, Scheduler.schedule

    def union(profiles, horizon):
        per_pass[-1] += 1
        return real_union(profiles, horizon)

    def schedule(self, applications, now, usage=None):
        per_pass.append(0)
        return real_schedule(self, applications, now, usage=usage)

    monkeypatch.setattr(eqschedule, "_interval_breakpoints", union)
    monkeypatch.setattr(Scheduler, "schedule", schedule)
    return per_pass


_WEIGHTS = (2.0, 1.0, 0.5, 3.0)


@pytest.mark.parametrize("policy", ["coorm", "coorm-strict", "easy", "maxmin-weighted"])
def test_every_application_idle(monkeypatch, policy):
    """No preemptible request anywhere: rows come off the availability itself."""
    per_pass = _unions_per_pass(monkeypatch)
    SchedulerMachine.started(policy, _WEIGHTS).steps(
        ("connect", "d"),
        ("submit", "a", "cluster0", 2, 50.0, NP), ("submit", "c", "cluster1", 7, 50.0, NP),
        ("submit", "d", "cluster0", 1, 50.0, NP), ("advance", 1.0),
        ("submit", "b", "cluster0", 3, 50.0, NP), ("advance", 7.0), ("done", 0, 0),
        ("set_capacity", 4), ("advance", 30.0), ("disconnect", "d"), ("connect", "d"),
        ("submit", "d", "cluster0", 2, 50.0, NP), ("advance", 1.0),
    )
    assert len(per_pass) > 3 and set(per_pass) == {0}


@pytest.mark.parametrize("policy", ["coorm", "coorm-strict", "maxmin-weighted"])
def test_the_last_preemptible_request_finishes_mid_run(monkeypatch, policy):
    """The idle branch is left when a sweep arrives and entered when it ends."""
    per_pass = _unions_per_pass(monkeypatch)
    SchedulerMachine.started(policy, _WEIGHTS).steps(
        ("submit", "a", "cluster0", 2, 50.0, NP), ("submit", "b", "cluster0", 6, math.inf, P),
        ("advance", 1.0), ("connect", "d"), ("advance", 1.0),
        ("done", 1, 0), ("advance", 1.0),  # the sweep: the one preemptible request
        ("disconnect", "d"), ("advance", 1.0),
        ("submit", "c", "cluster0", 6, math.inf, P), ("advance", 1.0),
    )
    # One union per cluster while a preemptible request lives; strict
    # sharing reads no demand, so it never takes one.
    assert per_pass == ([0] * 5 if policy == "coorm-strict" else [2, 2, 0, 0, 2])
