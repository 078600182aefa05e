"""Property tests: the work-proportional Algorithm-4 pass vs the old one.

``Scheduler.schedule`` used to run two fits and about a dozen full-profile
merges for every connected application, and ``partition_schedule`` a
``toView`` + two fits + one validated profile per application, whether or
not the application had anything to place.  The pass now skips the fits of a
request set with nothing pending, hands applications without started
pre-allocations one shared clipped availability, and builds one preemptive
profile per distinct column of partition values.

``reference_schedule`` / ``reference_partition_schedule`` keep the previous
loops verbatim (and ``_reference_easy_fit_pending`` the previous EASY
stage) as the oracle: over random mixes of rigid, pre-allocating and
preemptible applications -- started, pending, fixed-``NEXT`` and finished
requests, idle and busy applications, several passes with starts, finishes
and submissions in between -- both must give equal views, the same
``to_start`` order, the same scheduling attributes on every request and,
with the tracer on, the same ``scheduler/*`` event stream.  The reference
pass also runs on the previous view algebra (``_previous_algebra``: every
operator builds a new object), so the comparison covers the identity laws
and the sharing of operands they bring.

Since the pass became incremental (memoised started-occupation views, the
two availabilities maintained as a delta over the previous pass), the
reference is also the only *stateless* pass left, and the worlds exercise
everything the kept state can get wrong: applications joining and leaving
the mapping, an id returning with fresh request sets, ``set_capacity``
between passes, a request cancelled before it started, the mapping handed
over in another order, and one scheduler alternating between two worlds.
"""
from __future__ import annotations

import contextlib
import math
from typing import Dict, List
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.eqschedule as eqschedule
from repro.core import RelatedHow, Request, RequestType
from repro.core.eqschedule import _interval_breakpoints, _partition_interval
from repro.core.fit import fit
from repro.core.profile import StepFunction
from repro.core.request_set import ApplicationRequests
from repro.core.scheduler import (
    ScheduleResult,
    Scheduler,
    _classify_placements,
    _view_total_at,
)
from repro.core.toview import to_view
from repro.core.view import View
from repro.obs import hooks as obs_hooks
from repro.obs.tracer import EventTracer
from repro.policies import SchedulingPolicy, resolve_policy
from repro.policies.base import SchedulingContext
from repro.policies.sharing import WeightedMaxMinSharing

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


# --------------------------------------------------------------------- #
# Random worlds
# --------------------------------------------------------------------- #
_CAPACITY = {"a": 8, "b": 4}
_TYPES = {
    "PA": RequestType.PREALLOCATION,
    "NP": RequestType.NON_PREEMPTIBLE,
    "P": RequestType.PREEMPTIBLE,
}

#: One request: (set, cluster, nodes, duration, constraint, parent index in
#: the application or -1, lifecycle state).  Ten nodes exceed both clusters.
_REQUEST = st.tuples(
    st.sampled_from(["PA", "NP", "NP", "P"]),
    st.sampled_from(["a", "a", "b"]),
    st.integers(0, 10),
    st.sampled_from([5.0, 20.0, 60.0, math.inf]),
    st.sampled_from([RelatedHow.FREE, RelatedHow.NEXT, RelatedHow.NEXT, RelatedHow.COALLOC]),
    st.integers(-1, 5),
    st.sampled_from(["pending", "pending", "started", "started", "finished"]),
)
#: An application is the list of its requests; the empty list is an idle one.
_APPS = st.lists(st.lists(_REQUEST, max_size=4), min_size=1, max_size=7)
#: Between two passes: time advances, then requests finish, are submitted or
#: are cancelled before they started; applications join, leave or come back
#: under their old id with fresh request sets; the mapping changes its order;
#: the platform shrinks, grows or loses a cluster.
_EVENT = st.tuples(
    st.sampled_from(
        ["finish", "finish", "submit", "submit"]
        + ["cancel", "join", "leave", "return", "reorder", "capacity"]
    ),
    st.integers(0, 40),
    _REQUEST,
)
#: ``set_capacity`` targets: shrink, grow, a cluster at 0, back to the start.
_CAPACITIES = [{"a": 4, "b": 4}, {"a": 12, "b": 6}, {"a": 8, "b": 0}, {"a": 8, "b": 4}]
_STEPS = st.lists(
    st.tuples(st.sampled_from([0.0, 1.0, 7.0, 30.0]), st.lists(_EVENT, max_size=3)),
    min_size=1,
    max_size=4,
)


class _World:
    """The request sets of every application, built from a spec.

    Two worlds built from one spec hold equal requests at equal positions
    of ``self.requests``; request ids differ, nothing else does.
    """

    def __init__(self, apps):
        self.applications: Dict[str, ApplicationRequests] = {}
        self.requests: List[Request] = []
        self.by_app: Dict[str, List[Request]] = {}
        self.joined = 0
        for spec in apps:
            self.join(spec, now=0.0)

    def join(self, spec, now, app_id=None):
        """A new application (or a known id with fresh request sets)."""
        if app_id is None:
            app_id = f"app{self.joined}"
            self.joined += 1
        self.applications[app_id] = ApplicationRequests(app_id)
        self.by_app[app_id] = []
        for request_spec in spec:
            self.submit(app_id, request_spec, now)

    def submit(self, app_id, spec, now):
        kind, cluster, nodes, duration, how, parent, state = spec
        siblings = self.by_app[app_id]
        target = siblings[parent % len(siblings)] if siblings and parent >= 0 else None
        request = Request(
            cluster,
            nodes,
            duration,
            _TYPES[kind],
            how if target is not None else RelatedHow.FREE,
            target,
        )
        if state != "pending":
            request.mark_started(now)
        if state == "finished":
            request.mark_finished(now)
        self.applications[app_id].add(request)
        siblings.append(request)
        self.requests.append(request)

    def apply(self, events, now):
        for action, index, spec in events:
            app_ids = list(self.applications)
            if action == "join":
                self.join([spec], now)
            elif action == "reorder":
                self.applications = dict(reversed(list(self.applications.items())))
            elif not app_ids:
                continue
            elif action == "submit":
                self.submit(app_ids[index % len(app_ids)], spec, now)
            elif action == "leave":
                del self.applications[app_ids[index % len(app_ids)]]
            elif action == "return":
                self.join([spec], now, app_id=app_ids[index % len(app_ids)])
            elif action == "cancel":
                pending = [r for r in self._live() if r.pending()]
                if pending:
                    pending[index % len(pending)].mark_cancelled(now)
            elif action == "finish":
                running = [r for r in self._live() if r.started() and not r.finished()]
                if running:
                    running[index % len(running)].mark_finished(now)

    def _live(self):
        """The requests still held by an application of the mapping."""
        return [r for requests in self.applications.values() for r in requests.scan()]

    def prune(self):
        for requests in self.applications.values():
            requests.prune_finished()

    def state(self):
        return [
            (r.scheduled_at, r.n_alloc, r.fixed, r.earliest_schedule_at, r.started_at)
            for r in self.requests
        ]


def _run_pass(world, now, run):
    """One RMS pass on *world*: prune, schedule, start what must start."""
    world.prune()
    try:
        result = run(world.applications, now)
    except Exception as error:  # an unsatisfiable graph must fail alike
        return type(error), None
    for request in result.to_start:
        request.mark_started(now)
    return None, result


def _assert_same_pass(new_world, ref_world, new, ref):
    assert list(new.non_preemptive_views) == list(ref.non_preemptive_views)
    assert list(new.preemptive_views) == list(ref.preemptive_views)
    for app_id, view in ref.non_preemptive_views.items():
        assert new.non_preemptive_views[app_id] == view, app_id
        # Byte-identity, not eps-equality: the breakpoints and values agree.
        assert repr(new.non_preemptive_views[app_id]) == repr(view), app_id
    for app_id, view in ref.preemptive_views.items():
        assert new.preemptive_views[app_id] == view, app_id
        assert repr(new.preemptive_views[app_id]) == repr(view), app_id
    position = {id(r): i for i, r in enumerate(new_world.requests)}
    ref_position = {id(r): i for i, r in enumerate(ref_world.requests)}
    assert [position[id(r)] for r in new.to_start] == [
        ref_position[id(r)] for r in ref.to_start
    ]
    assert repr(new_world.state()) == repr(ref_world.state())


def _weighted(weights):
    base = resolve_policy("maxmin-weighted")
    return SchedulingPolicy(
        name=base.name,
        ordering=base.ordering,
        backfill=base.backfill,
        sharing=WeightedMaxMinSharing(weights),
    )


# Non-uniform weights, idle applications included: an idle application's view
# depends on its own weight, so idle applications do not all see the same
# numbers.
_WEIGHTED = st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=7, max_size=7).map(
    lambda ws: _weighted({f"app{i}": w for i, w in enumerate(ws)})
)
_POLICIES = st.sampled_from(["coorm", "easy", "coorm-strict", "sjf", "weighted"]).flatmap(
    lambda name: _WEIGHTED if name == "weighted" else st.just(name)
)


def _compare(worlds, policy, traced):
    """Run every ``(apps, steps)`` of *worlds* on ONE scheduler, pass by pass.

    Pass *k* of every world runs before pass *k + 1* of any, so with two
    worlds the scheduler's kept state always stems from the other one.
    """
    scheduler = Scheduler(_CAPACITY, policy=policy)
    new_tracer, ref_tracer = EventTracer(), EventTracer()
    lanes = [
        {"new": _World(apps), "ref": _World(apps), "steps": [(0.0, [])] + steps, "now": 0.0}
        for apps, steps in worlds
    ]
    for k in range(max(len(lane["steps"]) for lane in lanes)):
        for lane in lanes:
            if k >= len(lane["steps"]) or lane.get("failed"):
                continue
            dt, events = lane["steps"][k]
            now = lane["now"] = lane["now"] + dt
            new_world, ref_world = lane["new"], lane["ref"]
            for action, index, _ in events:
                if action == "capacity":
                    scheduler.set_capacity(_CAPACITIES[index % len(_CAPACITIES)])
            new_world.apply(events, now)
            ref_world.apply(events, now)
            with obs_hooks.observe(tracer=new_tracer if traced else None):
                new_error, new = _run_pass(new_world, now, scheduler.schedule)
            with obs_hooks.observe(tracer=ref_tracer if traced else None):
                ref_error, ref = _run_pass(
                    ref_world, now, lambda apps_, t: reference_schedule(scheduler, apps_, t)
                )
            assert new_error is ref_error
            if ref_error is not None:
                # An unsatisfiable graph ends this world; the other goes on.
                lane["failed"] = True
                continue
            _assert_same_pass(new_world, ref_world, new, ref)
            assert scheduler.full_view() == View.constant(scheduler.capacity)
    if traced:
        def stream(tracer):
            return [(e.ts, e.seq, e.cat, e.name, e.ph, e.args) for e in tracer.events]

        assert stream(new_tracer) == stream(ref_tracer)
        assert {e.cat for e in new_tracer.events} <= {"scheduler"}


@settings(max_examples=300, deadline=None)
@given(apps=_APPS, steps=_STEPS, policy=_POLICIES)
def test_pass_matches_the_reference_loop(apps, steps, policy):
    _compare([(apps, steps)], policy, traced=False)


@settings(max_examples=150, deadline=None)
@given(apps=_APPS, steps=_STEPS, policy=_POLICIES)
def test_traced_pass_emits_the_reference_event_stream(apps, steps, policy):
    _compare([(apps, steps)], policy, traced=True)


@settings(max_examples=300, deadline=None)
@given(apps=_APPS, steps=_STEPS, other_apps=_APPS, other_steps=_STEPS, policy=_POLICIES)
def test_one_scheduler_alternating_between_two_worlds(
    apps, steps, other_apps, other_steps, policy
):
    _compare([(apps, steps), (other_apps, other_steps)], policy, traced=False)


# --------------------------------------------------------------------- #
# The cases the optimisation is about, pinned explicitly
# --------------------------------------------------------------------- #
def _rigid(state, nodes=2, duration=50.0):
    return [("NP", "a", nodes, duration, RelatedHow.FREE, -1, state)]


def test_the_oracle_runs_on_the_previous_algebra():
    view = View.constant(_CAPACITY)
    with _previous_algebra():
        assert view + View.empty() is not view
        assert view.clip_low(0.0) is not view
        assert view["a"] - StepFunction.zero() is not view["a"]
    assert view + View.empty() is view


def test_idle_and_running_applications_are_not_fitted(monkeypatch):
    """Only the application with a pending request reaches ``fit``."""
    world = _World([_rigid("started"), [], _rigid("pending"), _rigid("finished")])
    calls = []
    real_fit = fit

    def counting(requests, available, not_before):
        calls.append([r.app_id for r in requests])
        return real_fit(requests, available, not_before)

    monkeypatch.setattr("repro.policies.backfill.fit", counting)
    monkeypatch.setattr("repro.core.eqschedule.fit", counting)
    result = Scheduler(_CAPACITY).schedule(world.applications, 0.0)
    assert calls == [["app2"]]
    assert [r.app_id for r in result.to_start] == ["app2"]


def test_applications_without_preallocations_share_one_view_object():
    world = _World([_rigid("started"), [], _rigid("started", nodes=3), []])
    result = Scheduler(_CAPACITY).schedule(world.applications, 0.0)
    views = list(result.non_preemptive_views.values())
    assert all(view is views[0] for view in views)
    assert views[0]["a"].value_at(0.0) == 3.0
    # Nobody holds a preemptible request: one view backs all.
    shared = list(result.preemptive_views.values())
    assert all(view is shared[0] for view in shared)


def test_weighted_idle_applications_keep_their_own_numbers():
    """Idle applications are de-duplicated by content, never by idleness."""
    busy = [("P", "a", 8, math.inf, RelatedHow.FREE, -1, "started")]
    world = _World([busy, [], [], []])
    policy = _weighted({"app0": 1.0, "app1": 1.0, "app2": 3.0, "app3": 1.0})
    views = Scheduler(_CAPACITY, policy=policy).schedule(world.applications, 0.0).preemptive_views
    assert views["app1"]["a"] is views["app3"]["a"]
    assert views["app2"]["a"] is not views["app1"]["a"]
    assert views["app2"]["a"].value_at(0.0) > views["app1"]["a"].value_at(0.0)


# --------------------------------------------------------------------- #
# The idle sharing branch: entered and left under the stateless reference
# --------------------------------------------------------------------- #
_SWEEP = [("P", "a", 6, math.inf, RelatedHow.FREE, -1, "started")]
#: The request spec of an event that does not read it.
_REQUEST_PLACEHOLDER = _rigid("pending")[0]


def _unions_per_pass(monkeypatch):
    """How many breakpoint unions each ``Scheduler.schedule`` call ran.

    Only the pass under test is counted: the reference keeps the
    ``_interval_breakpoints`` this module imported.
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


def test_every_application_idle(monkeypatch):
    """No preemptible request anywhere: rows come off the availability itself."""
    per_pass = _unions_per_pass(monkeypatch)
    apps = [_rigid("started"), [], _rigid("pending", nodes=7), _rigid("started", nodes=1), []]
    steps = [
        (1.0, [("submit", 1, _rigid("pending", nodes=3)[0])]),
        (7.0, [("finish", 0, _REQUEST_PLACEHOLDER), ("capacity", 0, _REQUEST_PLACEHOLDER)]),
        (30.0, [("join", 0, _rigid("pending")[0]), ("leave", 0, _REQUEST_PLACEHOLDER)]),
    ]
    for policy in ("coorm", "coorm-strict", "easy", _weighted({"app0": 2.0, "app2": 0.5})):
        del per_pass[:]
        _compare([(apps, steps)], policy, traced=False)
        assert per_pass == [0, 0, 0, 0]


def test_the_last_preemptible_request_finishes_mid_run(monkeypatch):
    """The idle branch is left when a sweep arrives and entered when it ends."""
    per_pass = _unions_per_pass(monkeypatch)
    apps = [_rigid("pending"), _SWEEP, []]
    steps = [
        (1.0, []),
        (7.0, [("finish", 1, _REQUEST_PLACEHOLDER)]),  # the sweep: the one started request
        (1.0, []),
        (30.0, [("submit", 2, _SWEEP[0])]),
    ]
    for policy in ("coorm", "coorm-strict", _weighted({"app1": 3.0})):
        del per_pass[:]
        _compare([(apps, steps)], policy, traced=False)
        # One union per cluster ("a", "b") while a preemptible request lives;
        # strict sharing reads no demand, so it never takes one.
        assert per_pass == ([0] * 5 if policy == "coorm-strict" else [2, 2, 0, 0, 2])
