"""One protocol machine for the CooRMv2 RMS.

The paper's RMS is a protocol.  Applications ``connect``, ``request``
(pre-allocation, non-preemptible or preemptible, each ``FREE``, ``NEXT`` or
``COALLOC``) and call ``done``, and the RMS may ``kill`` an application.
:class:`ProtocolMachine` is a ``hypothesis.stateful.RuleBasedStateMachine``
whose rules are those verbs -- plus ``disconnect``, bursts of ``NEXT``
updates (also through a started pre-allocation), ``set_capacity`` (0 and
back) and ``release_capacity``, views swapped for equal twins, and the clock
-- on one two-cluster platform, under a policy drawn from the registry,
starting from a drawn workload.  The rules reach the RMS through its public
verbs only, so any class with ``CooRMv2``'s interface can stand behind them.

After every step :meth:`ProtocolMachine.check` asserts
:meth:`World.assert_invariants`, which needs no reference, on every world.
A subclass that names a ``reference`` drives a second world through the same
steps, and the ``repr`` of the two :meth:`World.snapshot` s must be equal
after each one.  Requests are addressed by ordinal (submission position), the
same in every world.  A falsifying run prints its steps as Python (``state = Machine()``,
``state.begin(...)``, ``requests_0 = state.submit(...)``, ``state.check()``,
...): pasted into a test, they replay it.
"""
from __future__ import annotations

import dataclasses
import math

from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, multiple, rule

from repro.cluster import Platform
from repro.core import CooRMv2, ReproError, Request
from repro.core.events import SessionKilled
from repro.core.types import COALLOC, FREE, NEXT, RequestType
from repro.core.view import View
from repro.obs.hooks import observe
from repro.obs.invariants import violations
from repro.obs.tracer import EventTracer
from repro.policies import SchedulingPolicy, resolve_policy
from repro.policies.registry import POLICIES
from repro.policies.sharing import WeightedMaxMinSharing
from repro.sim import Simulator

CLUSTERS = {"cluster0": 16, "cluster1": 8}  # ``set_capacity`` resizes cluster0
APP_IDS = ("a", "b", "c", "d")
P, NP, PA = RequestType.PREEMPTIBLE, RequestType.NON_PREEMPTIBLE, RequestType.PREALLOCATION
TYPES = (P, NP, PA)
DURATIONS = (math.inf, 100.0, 20.0, 3.0, 0.5)
WEIGHTS = (0.5, 1.0, 2.0, 3.0)


def weighted(weights):
    """``maxmin-weighted`` with *weights*, app id -> weight."""
    base = resolve_policy("maxmin-weighted")
    sharing = WeightedMaxMinSharing(weights)
    return SchedulingPolicy(base.name, base.ordering, base.backfill, sharing)


def breaches(log):
    """The invariant checker's verdict on *log*, less the kill finding (ROADMAP
    item 15): ``CooRMv2.kill`` logs no ``RequestFinished``, so each start still
    running when its session is killed is an ``ends once`` violation there."""
    kills = {(e.time, e.app_id) for e in log.of_kind(SessionKilled)}
    return [v for v in violations(log) if v.rule != "ends once" or (v.time, v.app) not in kills]


def handover_path(request):
    """The requests a start of *request* may take retained nodes from.

    ``CooRMv2._start_request`` binds a non-pre-allocation through
    ``_bind_nodes``, which takes the nodes of ``_next_chain_ancestors``: walk
    ``related_to`` up from the starter while the link is ``NEXT``; stop
    before an unfinished request; every finished request reached is a
    holder; stop after the first one that was served (started, not a
    pre-allocation -- a pre-allocation starts without binding or sweeping,
    so the walk passes through it).
    """
    while request.related_how is NEXT and request.related_to is not None:
        request = request.related_to
        if not request.finished():
            return
        yield request
        if request.started() and not request.is_preallocation():
            return


class _App:
    """An application that reports every RMS callback to its world."""

    def __init__(self, name, world):
        self.name, self.world = name, world

    def on_views(self, non_preemptive, preemptive):
        text = self.world.text
        self.world.calls.append(repr((self.name, text(non_preemptive), text(preemptive))))

    def on_start(self, request, node_ids):
        self.world.calls.append(repr((self.name, self.world.ordinal[request.request_id])))
        self.world.check_handover(request, node_ids)

    def on_killed(self, reason):
        self.world.calls.append(repr((self.name, reason)))


class _TextTracer(EventTracer):
    """A tracer that also keeps each event as text, as it is emitted."""

    def __init__(self):
        super().__init__()
        self.text = []

    def emit(self, *args, **kwargs):
        super().emit(*args, **kwargs)
        self.text.append(repr(self.events[-1]))


class World:
    """One RMS on its own simulator and platform, and the record of its run."""

    def __init__(self, factory, policy, tracer=None):
        self.sim = Simulator()
        self.platform = Platform(CLUSTERS)
        self.tracer = tracer
        with observe(tracer=tracer):
            self.rms = factory(self.platform, self.sim, rescheduling_interval=1.0, policy=policy)
        self.requests = []  # every request submitted, in order
        self.sessions = []  # the session each of them was submitted in
        self.ordinal = {}  # request id -> position in ``requests``
        self.outcomes = []  # per verb: the error it raised, or None
        self.events = []  # the RMS's event log, as text
        self.calls = []  # every application callback, in order, as text
        self.passes = []  # per pass: ``to_start`` as ordinals, and the views, as text
        self.retained = {}  # (cluster, node) -> finished request binding it
        self.texts = {}  # id(view) -> (view, repr(view))
        self.refused = []  # hand-overs the NEXT rule does not allow
        schedule = self.rms.scheduler.schedule

        def recording(applications, now, usage=None):
            result = schedule(applications, now, usage=usage)
            to_start = [self.ordinal[r.request_id] for r in result.to_start]
            views = (result.non_preemptive_views, result.preemptive_views)
            views = [[(app, self.text(view)) for app, view in by_app.items()] for by_app in views]
            self.passes.append(repr((to_start, views)))
            self.retained = {
                (r.cluster_id, node): r
                for r in self.requests if r.node_ids and r.finished() for node in r.node_ids
            }
            return result

        self.rms.scheduler.schedule = recording
        log = self.rms.event_log
        record = log.record

        def logging(event):
            record(event)
            if hasattr(event, "request_id"):
                event = dataclasses.replace(event, request_id=self.ordinal[event.request_id])
            self.events.append(repr(event))

        log.record = logging

    # -- verbs ---------------------------------------------------------- #
    def attempt(self, verb, *args):
        """Run *verb* (under this world's tracer); record the error it raised."""
        try:
            if self.tracer is None:
                result = verb(*args)
            else:
                with observe(tracer=self.tracer):
                    result = verb(*args)
        except ReproError as error:
            self.outcomes.append(type(error).__name__)
            return None
        self.outcomes.append(None)
        return result

    def submit(self, app, cluster, nodes, duration, rtype, how=FREE, parent=None):
        """``request()``; the new request's ordinal, or None if refused."""
        related = None if parent is None else self.requests[parent]
        request = Request(cluster, nodes, duration, rtype, how, related)
        self.ordinal[request.request_id] = len(self.requests)
        if self.attempt(self.rms.submit, app, request) is None:
            return None
        self.requests.append(request)
        self.sessions.append(self.rms.sessions[app])
        return len(self.requests) - 1

    def update(self, parent, how, rtype, nodes, duration):
        """A request related to *parent*, in its application and cluster."""
        old = self.requests[parent]
        return self.submit(old.app_id, old.cluster_id, nodes, duration, rtype, how, parent)

    def done(self, ordinal, release=0):
        """``done()``: release 0 names no nodes, *k* the first *k* - 1 held."""
        request = self.requests[ordinal]
        released = None
        if release:
            held = self.rms.sessions[request.app_id].holds(request.cluster_id)
            released = sorted(held)[: release - 1]
        self.attempt(self.rms.done, request.app_id, request, released)

    def burst(self, ordinal, count, rtype, nodes, release):
        """*count* updates in a row, ``request(NEXT -> old)`` + ``done(old)``."""
        for link in range(count):
            old = self.requests[ordinal]
            kind = old.rtype if rtype is None or link else rtype
            size = max(1, nodes + link % 3 - 1)
            new = self.update(ordinal, NEXT, kind, size, old.duration)
            if new is None:
                break
            self.done(ordinal, release)
            ordinal = new
        return ordinal

    def prechain(self, pick, count, rtype, nodes):
        """A ``NEXT`` chain through a started pre-allocation that has retained
        nodes above it: a ``NEXT`` pre-allocation replaces one of the running
        requests holding nodes (``pick``-th, cyclically), which retains them;
        a pass starts it; then ``burst`` of *count* updates below it.  A walk
        from the tail must pass through the pre-allocation to the nodes."""
        holders = [i for i, r in enumerate(self.requests) if r.active() and r.node_ids]
        if not holders:
            return None
        top = self.burst(holders[pick % len(holders)], 1, PA, nodes, 0)
        self.advance(1.0)
        return self.burst(top, count, rtype, nodes, 0)

    def twins(self, app):
        """The session's last-pushed views become equal but distinct objects."""
        session = self.rms.sessions.get(app)
        if session is not None and session.last_preemptive_view is not None:
            for name in ("last_non_preemptive_view", "last_preemptive_view"):
                view = getattr(session, name)
                setattr(session, name, View({c: view[c].copy() for c in view.clusters()}))

    def advance(self, delay):
        self.sim.schedule(delay, lambda: None)  # the clock stops where the events do
        self.attempt(self.sim.run, self.sim.now + delay)

    def text(self, view):
        """``repr(view)``, once per view object (``texts`` keeps it alive)."""
        known = self.texts.get(id(view))
        if known is None:
            known = self.texts[id(view)] = (view, repr(view))
        return known[1]

    # -- what must hold ------------------------------------------------- #
    def check_handover(self, request, node_ids):
        """A start takes retained nodes only from its ``handover_path``."""
        for node in node_ids:
            holder = self.retained.get((request.cluster_id, node))
            if holder is not None and holder not in handover_path(request):
                self.refused.append((self.ordinal[request.request_id], node))
        self.retained = {k: r for k, r in self.retained.items() if k[1] in r.node_ids}

    def assert_invariants(self):
        """The protocol's rules, read off this world alone.

        :func:`repro.obs.invariants.violations` checks the event log, less
        the kill finding (:func:`breaches`).  The log names no node that a
        finished request keeps for its ``NEXT`` successor, so three rules are
        read off the requests and the clusters here:

        - *Holds match a scan*: a live session holds exactly the union of the
          ``node_ids`` of the requests submitted in it; a closed one, none.
        - *NEXT hand-over*: a start takes a node that a finished request
          still binds only if that request is on the starter's
          :func:`handover_path` (checked at the start, against the bindings
          the pass began with).
        - *Nothing stranded*: a finished request binds nodes only while it is
          on the :func:`handover_path` of a pending request or of a running
          pre-allocation (which starts without taking them).

        And the scheduler's full view is its capacity.
        """
        scan, reachable = {}, set()
        for request, session in zip(self.requests, self.sessions):
            if request.node_ids:
                key = (request.cluster_id, session)
                scan[key] = scan.get(key, frozenset()) | request.node_ids
            if request.pending() or (request.is_preallocation() and not request.finished()):
                reachable.update(map(id, handover_path(request)))
        for app_id in APP_IDS:
            session = self.rms.sessions.get(app_id)
            alive = session is not None and session.alive
            for cid, cluster in self.platform.clusters.items():
                expected = scan.get((cid, session), frozenset()) if alive else frozenset()
                assert cluster.held_by(app_id) == expected, ("holds", app_id, cid)
        stranded = [p for p, r in enumerate(self.requests)
                    if r.finished() and r.node_ids and id(r) not in reachable]
        assert not stranded, ("stranded", stranded)
        assert not self.refused, ("NEXT hand-over", self.refused)
        assert not breaches(self.rms.event_log), breaches(self.rms.event_log)
        scheduler = self.rms.scheduler
        assert scheduler.full_view() == View.constant(scheduler.capacity)

    def snapshot(self):
        """What two worlds driven through the same steps must agree on.

        Every entry is text, or a list of texts: equal snapshots are equal
        byte for byte, so 4 against 4.0, 0.0 against -0.0 or one mapping in
        two orders differ.
        """
        rows = []
        for r in self.requests:
            row = (r.state.value, r.submitted_at, r.started_at, r.finished_at, r.duration)
            row += (sorted(r.node_ids),)
            if not r.finished():
                row += (r.scheduled_at, r.n_alloc, r.fixed, r.earliest_schedule_at)
            rows.append(repr(row))
        sessions = self.rms.connected_sessions()
        snapshot = {
            "outcomes": self.outcomes,
            "events": self.events,
            "calls": self.calls,
            "passes": self.passes,
            "requests": rows,
            "held": repr({s.app_id: [sorted(s.holds(cid)) for cid in CLUSTERS] for s in sessions}),
            "members": repr({
                s.app_id: [self.ordinal[r.request_id] for r in s.requests.scan()] for s in sessions
            }),
            "free": repr([c.free_nodes() for c in self.platform.clusters.values()]),
            "now": repr(self.sim.now),
        }
        if self.tracer is not None:
            snapshot["trace"] = self.tracer.text
        return snapshot


def _verb(name, run=None, target=None, **strategies):
    """A rule that runs ``World.<name>`` (or ``run(world, ...)``) in every world
    and, given a *wait*, checks and then runs ``advance(wait)``: hypothesis
    switches whole rules off for a run (swarm testing), ``advance`` too, and
    the clock must still move."""
    run = run or getattr(World, name)

    def verb(self, *args, wait=0.0, **kwargs):
        result = [run(world, *args, **kwargs) for world in self.worlds][0]
        if wait:
            self.check()
            self.advance(wait)
        if target is not None:
            return multiple() if result is None else result

    verb.__name__ = verb.__qualname__ = name
    return rule(target=target, wait=_WAIT, **strategies)(verb)


_APP = st.sampled_from(APP_IDS)
_REQUEST = {"rtype": st.sampled_from(TYPES), "nodes": st.integers(0, 17)}  # 17 fits nowhere
_DURATION = st.sampled_from(DURATIONS)
_WAIT = st.sampled_from([0.0, 0.0, 1.0, 1.0, 0.25, 2.5])


class ProtocolMachine(RuleBasedStateMachine):
    """The RMS protocol as hypothesis rules; see the module docstring."""

    reference = None  # an RMS ``CooRMv2`` must agree with, step by step
    traced = False  # give each world a tracer and compare the streams
    differs_by_design = ()  # snapshot keys on which the reference may differ

    requests = Bundle("requests")

    @classmethod
    def started(cls, policy="coorm", weights=(1.0,) * len(APP_IDS)):
        """A machine with its worlds open and no request yet, for pinned scripts."""
        machine = cls()
        machine._open(policy, weights)
        return machine

    def _open(self, policy, weights):
        if policy == "maxmin-weighted":
            policy = weighted(dict(zip(APP_IDS, weights)))
        factories = [CooRMv2] + ([self.reference] if self.reference else [])
        self.worlds = [World(f, policy, _TextTracer() if self.traced else None) for f in factories]
        for app in APP_IDS[:-1]:
            self.connect(app)

    def steps(self, *calls):
        """Run ``(rule, *args)`` calls, checking after each as a run does."""
        for name, *args in calls:
            getattr(self, name)(*args)
            self.check()

    def parted(self):
        """True once the reference may stop agreeing with ``CooRMv2``."""
        return False

    @initialize(
        target=requests, policy=st.sampled_from(POLICIES.names()),
        weights=st.tuples(*[st.sampled_from(WEIGHTS)] * len(APP_IDS)).filter(
            lambda weights: len(set(weights)) > 1
        ),
        workload=st.lists(
            st.tuples(st.sampled_from(APP_IDS[:-1]), st.sampled_from(sorted(CLUSTERS)),
                      st.integers(1, 17), _DURATION, _REQUEST["rtype"]),
            min_size=1, max_size=8,
        ),
    )
    def begin(self, policy, weights, workload):
        """Open the worlds; the connected applications submit *workload* at t = 0."""
        self._open(policy, weights)
        first = [self.submit(*request) for request in workload]
        self.advance(1.0)
        return multiple(*[ordinal for ordinal in first if isinstance(ordinal, int)])

    connect = _verb("connect", lambda w, app: w.attempt(w.rms.connect, _App(app, w), app), app=_APP)
    disconnect = _verb("disconnect", lambda w, app: w.attempt(w.rms.disconnect, app), app=_APP)
    kill = _verb("kill", lambda w, app: w.attempt(w.rms.kill, app, "protocol machine"), app=_APP)
    submit = _verb(
        "submit", target=requests, app=_APP, cluster=st.sampled_from(sorted(CLUSTERS)),
        duration=_DURATION, **_REQUEST,
    )
    update = _verb(
        "update", target=requests, parent=requests, duration=_DURATION,
        how=st.sampled_from([NEXT, NEXT, FREE, COALLOC]), **_REQUEST,
    )
    burst = _verb(
        "burst", target=requests, ordinal=requests, count=st.sampled_from([1, 2, 3, 5, 8, 13, 70]),
        rtype=st.none() | st.sampled_from(TYPES), nodes=st.integers(1, 8),
        release=st.integers(0, 3),
    )
    done = _verb("done", ordinal=requests, release=st.integers(0, 5))
    set_capacity = _verb(
        "set_capacity", lambda w, nodes: w.attempt(w.rms.set_capacity, nodes),
        nodes=st.sampled_from([0, 4, 10, 16, 16, 24]),
    )
    release_capacity = _verb(
        "release_capacity", lambda w, count: w.attempt(w.rms.release_capacity, count),
        count=st.integers(1, 6),
    )
    prechain = _verb(
        "prechain", target=requests, pick=st.integers(0, 7),
        count=st.sampled_from([1, 2, 3, 5, 8, 13, 70]),
        rtype=st.sampled_from([P, NP]), nodes=st.integers(1, 8),
    )
    twins = _verb("twins", app=_APP)
    advance = _verb("advance", delay=st.sampled_from([1.0, 0.25, 1.0, 2.5, 30.0, 150.0]))
    # A rule listed n times is drawn n times as often: requests, updates and
    # the passes that serve them are most of a run, the verbs that end
    # sessions its seasoning.
    submit_ = submit
    update_ = update
    burst_ = burst
    prechain_ = prechain
    advance_ = advance

    @invariant()
    def check(self):
        if self.parted():
            del self.worlds[1:]
        for world in self.worlds:
            world.assert_invariants()
        if len(self.worlds) > 1:
            got, expected = (world.snapshot() for world in self.worlds)
            for key, value in expected.items():
                assert key in self.differs_by_design or got[key] == value, key
