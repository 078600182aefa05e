"""Differential world test: the per-pair view push vs the per-session one.

``CooRMv2._run_schedule`` used to prune the request sets of every live
session and to ask every session ``views_changed`` -- two deep view
comparisons per session per pass.  It now prunes only the sessions in which
the RMS finished a request since the last pass, decides "did this view
change" once per distinct (last pushed object, new object) pair, and reads
each pushed view's ``value_at(now)`` once.

``ReferencePushRMS`` keeps the previous ``_run_schedule`` -- prune-everything
loop and per-session ``reference_push`` -- verbatim as the oracle.  Two worlds,
each with its own simulator, platform, applications and requests, are driven
through the same random scripts: rigid applications joining and leaving, a
parameter-sweep application resizing its preemptible request, an application
with a pre-allocation, ``done()`` on running requests, capacity changes, time
advancing past expiries, and sessions whose last-pushed views are swapped for
equal but *distinct* objects (twins), which is what an application that joined
one pass later holds.  After every step the worlds must agree on the event
log (``ViewsPushed`` totals included), on every ``on_views`` call in order, on
the ``to_start`` order of every pass and on what each request set still holds.
"""
from __future__ import annotations

import dataclasses
import math
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Platform
from repro.core import CooRMv2, RelatedHow, ReproError, Request, RequestType
from repro.core.events import ViewsPushed
from repro.core.request_set import ApplicationRequests
from repro.core.view import View
from repro.obs import hooks as _obs
from repro.sim import Simulator
from repro.testing import RecordingApp


def reference_push(rms, result, metrics):
    """The push loop as it was: every session compares both views deeply."""
    default_cid = rms.platform.default_cluster_id()
    empty_view = View.empty()
    for session in rms.connected_sessions():
        non_preemptive = result.non_preemptive_views.get(session.app_id, empty_view)
        preemptive = result.preemptive_views.get(session.app_id, empty_view)
        if session.views_changed(non_preemptive, preemptive):
            session.remember_views(non_preemptive, preemptive)
            if metrics is not None:
                metrics.inc("rms.views_pushed")
            rms.event_log.record(
                ViewsPushed(
                    rms.now,
                    session.app_id,
                    non_preemptive_total=non_preemptive[default_cid].value_at(rms.now),
                    preemptive_total=preemptive[default_cid].value_at(rms.now),
                )
            )
            session.application.on_views(non_preemptive, preemptive)


class ReferencePushRMS(CooRMv2):
    """The RMS with the previous ``_run_schedule``, verbatim."""

    def _run_schedule(self) -> None:
        self._schedule_handle = None
        self._last_schedule_time = self.now

        sessions = self.connected_sessions()
        for session in sessions:
            session.requests.prune_finished()

        applications = {session.app_id: session.requests for session in sessions}
        if not applications:
            return
        usage = None
        if self.scheduler.policy.ordering.needs_usage:
            usage = self.accountant.used_node_seconds_by_app()
        metrics = _obs.METRICS[0]
        profiler = _obs.PROFILER[0]
        if metrics is not None:
            metrics.inc("rms.passes")
        if profiler is None:
            result = self.scheduler.schedule(applications, self.now, usage=usage)
        else:
            started = time.perf_counter()
            try:
                result = self.scheduler.schedule(applications, self.now, usage=usage)
            finally:
                profiler.add("scheduler.pass", time.perf_counter() - started)

        deferred = False
        for request in result.to_start:
            session = self.sessions.get(request.app_id)
            if session is None or not session.alive:
                continue
            if not self._start_request(session, request):
                deferred = True
        if deferred:
            if metrics is not None:
                metrics.inc("rms.deferred_starts")
            self.simulator.schedule(self.rescheduling_interval, self._trigger_schedule)

        reference_push(self, result, metrics)

        if self.kill_protocol_violators:
            self.simulator.schedule(self.violation_grace, self._check_protocol_violations)


_NODES = 16
_DURATIONS = (math.inf, 40.0, 6.0, 0.5)


def _twin(view):
    """An equal view that shares no object with *view*."""
    if view is None:
        return None
    return View({cid: view[cid].copy() for cid in view.clusters()})


class _World:
    """One RMS with everything it touches, driven by index-addressed steps."""

    def __init__(self, rms_class, policy):
        self.sim = Simulator()
        self.platform = Platform.single_cluster(_NODES)
        self.rms = rms_class(self.platform, self.sim, rescheduling_interval=1.0, policy=policy)
        self.apps = {}  # name -> every application object that connected, alive or not
        self.requests = []  # every request ever submitted, in order
        self.outcomes = []  # what each step raised, if anything
        self.to_start = []  # per pass: the requests to start, as positions in ``requests``
        schedule = self.rms.scheduler.schedule

        def recording(applications, now, usage=None):
            result = schedule(applications, now, usage=usage)
            self.to_start.append([self.requests.index(r) for r in result.to_start])
            return result

        self.rms.scheduler.schedule = recording

    # -- steps ---------------------------------------------------------- #
    def _attempt(self, call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except ReproError as error:
            self.outcomes.append(type(error).__name__)
            return None

    def _alive(self):
        return [s.app_id for s in self.rms.connected_sessions()]

    def _connect(self, name):
        if name in self._alive():
            return True
        recorder = RecordingApp(name)
        if self._attempt(self.rms.connect, recorder, name) is None:
            return False
        self.apps.setdefault(name, []).append(recorder)
        return True

    def _submit(self, name, nodes, duration, rtype, how=RelatedHow.FREE, parent=None):
        request = Request("cluster0", nodes, duration, rtype, how, parent)
        if self._attempt(self.rms.submit, name, request) is not None:
            self.requests.append(request)
            return request
        return None

    def _running(self, name, rtype):
        """The unfinished requests of *rtype* that application *name* holds."""
        return [
            r for r in self.requests
            if r.app_id == name and r.rtype is rtype and not r.finished()
            and self.rms.sessions[name].requests.find(r.request_id) is not None
        ]

    def join(self, index, nodes, duration):
        """A rigid application: one non-preemptible request, then silence."""
        name = f"rigid{index}"
        if name not in self._alive() and self._connect(name):
            self._submit(name, nodes, _DURATIONS[duration], RequestType.NON_PREEMPTIBLE)

    def leave(self, index):
        alive = self._alive()
        if alive:
            self._attempt(self.rms.disconnect, alive[index % len(alive)])

    def psa(self, nodes):
        """Connect the sweep, or resize it: ``request(NEXT -> old)`` + ``done(old)``."""
        fresh = "psa" not in self._alive()
        if not self._connect("psa"):
            return
        current = None if fresh else (self._running("psa", RequestType.PREEMPTIBLE) or [None])[-1]
        how = RelatedHow.FREE if current is None else RelatedHow.NEXT
        self._submit("psa", nodes, math.inf, RequestType.PREEMPTIBLE, how, current)
        if current is not None:
            self._attempt(self.rms.done, "psa", current)

    def prealloc(self, nodes, inside):
        """An application that pre-allocates, then works inside its space."""
        fresh = "pre" not in self._alive()
        if not self._connect("pre"):
            return
        if fresh or not self._running("pre", RequestType.PREALLOCATION):
            self._submit("pre", nodes, math.inf, RequestType.PREALLOCATION)
        self._submit("pre", inside, 20.0, RequestType.NON_PREEMPTIBLE)

    def done(self, index):
        live = [r for r in self.requests if not r.finished() and r.app_id in self._alive()]
        if live:
            target = live[index % len(live)]
            self._attempt(self.rms.done, target.app_id, target)

    def twins(self, index):
        """One session's last-pushed views become equal but distinct objects."""
        sessions = self.rms.connected_sessions()
        if sessions:
            session = sessions[index % len(sessions)]
            session.last_non_preemptive_view = _twin(session.last_non_preemptive_view)
            session.last_preemptive_view = _twin(session.last_preemptive_view)

    def advance(self, delay):
        self.sim.schedule(delay, lambda: None)  # the clock stops where the events do
        self._attempt(self.sim.run, until=self.sim.now + delay)

    def capacity(self, nodes):
        self._attempt(self.rms.set_capacity, nodes)

    # -- what the worlds must agree on ---------------------------------- #
    def snapshot(self):
        ordinal = {r.request_id: i for i, r in enumerate(self.requests)}
        events = []
        for event in self.rms.event_log:
            fields = dataclasses.asdict(event)
            if "request_id" in fields:
                fields["request_id"] = ordinal[fields["request_id"]]
            events.append((type(event).__name__, sorted(fields.items())))
        on_views = {
            name: [[(repr(a), repr(b)) for a, b in app.views] for app in apps]
            for name, apps in self.apps.items()
        }
        held = {
            app_id: [ordinal[r.request_id] for r in session.requests.scan()]
            for app_id, session in self.rms.sessions.items()
            if session.alive
        }
        return {
            "outcomes": self.outcomes,
            "events": events,
            "on_views": on_views,
            "to_start": self.to_start,
            "held": held,
            "states": [(r.state, repr(r.started_at), sorted(r.node_ids)) for r in self.requests],
            "now": self.sim.now,
        }


_INDEX = st.integers(0, 40)
_JOIN = st.tuples(
    st.just("join"), st.integers(0, 7), st.integers(1, 10), st.integers(0, len(_DURATIONS) - 1)
)
_LEAVE = st.tuples(st.just("leave"), _INDEX)
_PSA = st.tuples(st.just("psa"), st.integers(1, 16))
_PREALLOC = st.tuples(st.just("prealloc"), st.integers(2, 10), st.integers(1, 6))
_DONE = st.tuples(st.just("done"), _INDEX)
_TWINS = st.tuples(st.just("twins"), _INDEX)
_ADVANCE = st.tuples(st.just("advance"), st.sampled_from([0.25, 1.0, 1.0, 2.5, 10.0, 50.0]))
_CAPACITY = st.tuples(st.just("capacity"), st.integers(4, 24))
_STEP = st.sampled_from(
    [_JOIN] * 5 + [_ADVANCE] * 6 + [_PSA] * 2 + [_TWINS] * 2
    + [_LEAVE, _PREALLOC, _DONE, _CAPACITY]
).flatmap(lambda step: step)
_POLICY = st.sampled_from(["coorm", "coorm", "easy", "coorm-strict", "sjf"])


def _run(steps, policy="coorm"):
    new, ref = _World(CooRMv2, policy), _World(ReferencePushRMS, policy)
    script = [*steps, ("advance", 60.0)]
    for position, (action, *args) in enumerate(script):
        for world in (new, ref):
            getattr(world, action)(*args)
        got, expected = new.snapshot(), ref.snapshot()
        for key in expected:
            assert got[key] == expected[key], (key, position, action, args)
    return new, ref


@settings(max_examples=250, deadline=None)
@given(steps=st.lists(_STEP, min_size=4, max_size=30), policy=_POLICY)
def test_worlds_agree_after_every_step(steps, policy):
    _run(steps, policy)


# --------------------------------------------------------------------- #
# The cases the push loop is about, named rather than left to chance
# --------------------------------------------------------------------- #
def test_settled_rigid_applications_and_one_more_joining():
    new, _ = _run(
        [("join", i, 2, 1) for i in range(5)]
        + [("advance", 1.0), ("join", 5, 12, 2), ("advance", 1.0), ("advance", 10.0)]
    )
    pushes = [e for e in new.rms.event_log if isinstance(e, ViewsPushed)]
    assert {e.app_id for e in pushes} == {f"rigid{i}" for i in range(6)}


def test_twins_compare_equal_and_are_not_pushed_again():
    """Equal but distinct last views: one deep verdict, no push, both worlds."""
    steps = [("join", 0, 2, 0), ("join", 1, 3, 0), ("advance", 1.0), ("advance", 1.0)]
    new, ref = _run(steps + [("twins", 0), ("twins", 1), ("join", 2, 1, 0), ("advance", 5.0)])
    for world in (new, ref):
        world.rms.force_schedule()  # whatever was still due
        before = len(world.rms.event_log)
        world.twins(0)
        world.twins(2)
        world.rms.force_schedule()  # nothing changed but the objects
        assert len(world.rms.event_log) == before


def test_a_resizing_sweep_next_to_a_preallocation_and_a_capacity_change():
    _run(
        [
            ("psa", 16), ("prealloc", 6, 3), ("join", 0, 4, 1), ("advance", 1.0),
            ("psa", 8), ("advance", 1.0), ("capacity", 10), ("advance", 1.0),
            ("psa", 12), ("twins", 1), ("advance", 2.5), ("leave", 0), ("advance", 50.0),
        ]
    )


def test_only_sessions_that_finished_something_are_pruned(monkeypatch):
    """Entered for the sweep that resized, not for the rigid application."""
    world = _World(CooRMv2, "coorm")
    for action, *args in [("join", 0, 2, 0), ("psa", 6), ("advance", 1.0), ("psa", 4)]:
        getattr(world, action)(*args)
    pruned = []
    real = ApplicationRequests.prune_finished

    def counting(self):
        pruned.append(self.app_id)
        return real(self)

    monkeypatch.setattr(ApplicationRequests, "prune_finished", counting)
    world.advance(1.0)
    assert pruned == ["psa"]
    # The finished link the resize left behind is still named by its successor.
    assert len(world.rms.sessions["psa"].requests.preemptible) == 2
    world.advance(1.0)  # a pass in which nobody finished anything
    world.rms.force_schedule()
    assert pruned == ["psa"]


def test_a_request_finished_behind_the_rms_back_stays_until_pruned_by_hand():
    """The documented contract of the touched-session prune."""
    world = _World(CooRMv2, "coorm")
    world.join(0, 2, 0)
    world.advance(1.0)
    request = world.requests[0]
    request.mark_finished(world.sim.now)  # not through ``rms.done``
    world.rms.force_schedule()
    requests = world.rms.sessions["rigid0"].requests
    assert requests.find(request.request_id) is request
    requests.prune_finished()
    assert requests.find(request.request_id) is None
