"""Differential world test: bounded update chains vs the keep-everything RMS.

An update -- ``request(NEXT -> old)`` + ``done(old)`` -- used to cost more the
more updates came before it: ``RequestSet.prune_finished`` kept *every*
finished ancestor of a live request, and ``CooRMv2._next_chain_ancestors``
walked up to 64 finished links looking for retained nodes.  Now a set keeps
the live requests and the one request each of them names, and the walk ends
at the first ancestor that ``_start_request`` served.

``ReferenceCooRMv2`` keeps both old pieces verbatim as the oracle.  Two worlds
-- reference and new, each with its own simulator, platform, applications and
requests -- are driven through the same random protocol sequences: submissions
of all three request types under ``FREE`` / ``NEXT`` / ``COALLOC`` (parents of
another type included, so a started pre-allocation can sit in the middle of a
``NEXT`` chain; ``FREE`` requests that still name a ``related_to``), ``done``
with and without ``released_node_ids``, bursts of up to 40 updates that no
pass has served yet, time advancing past expiries, ``set_capacity`` shrinking
and growing, applications disconnecting and returning under their old id.
After every step the worlds must agree on the event log, on every pushed
view, on the lifecycle and node IDs of every request, on what each session
holds and on the free nodes of the cluster -- and in each world what a live
session holds must be the union of the node IDs bound to the requests it
submitted, with no node bound to two of them.

Two things are excluded by construction, not by tolerance, because there the
old walk was wrong.  More than 64 updates in a row without a start in
between: its hop limit stranded the retained nodes (``test_rms.py`` pins the
fix).  And a *forked* chain in which a request finishes, retaining nodes for
its own pending successor, while a request below it on another branch has
already been served (possible when that branch runs through a link cancelled
before it started): the old walk climbed past the served request and handed
the retained nodes to the wrong branch.  ``_a_start_emptied_everything_above``
states the invariant the new walk relies on; a script ends at the step that
breaks it, and ``test_a_forked_chain_is_where_the_worlds_part`` shows both
behaviours.
"""
from __future__ import annotations

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Platform
from repro.core import CooRMv2, RelatedHow, ReproError, Request, RequestSet, RequestType
from repro.sim import Simulator
from repro.testing import RecordingApp


class _KeepEveryAncestorSet(RequestSet):
    """``RequestSet`` with the previous ``prune_finished``, verbatim."""

    def prune_finished(self):
        members = self._by_id
        live = [r for r in members.values() if not r.finished()]
        if len(live) == len(members):
            return []
        keep = {r.request_id for r in live}
        for child in live:
            parent = child.related_to
            while (
                child.related_how is not RelatedHow.FREE
                and parent is not None
                and parent.request_id in members
                and parent.request_id not in keep
            ):
                keep.add(parent.request_id)
                child, parent = parent, parent.related_to
        # Pinned last, so that a walk above never mistakes a request that
        # is only named by a FREE request for one whose ancestors are marked.
        keep.update(r.related_to.request_id for r in live if r.related_to is not None)
        removed = [r for r in members.values() if r.request_id not in keep]
        for r in removed:
            del members[r.request_id]
        return removed


class ReferenceCooRMv2(CooRMv2):
    """The RMS with the previous pruning rule and the previous chain walk."""

    def connect(self, application, app_id=None):
        session = super().connect(application, app_id)
        sets = session.requests
        sets.preallocations = _KeepEveryAncestorSet(RequestType.PREALLOCATION)
        sets.non_preemptible = _KeepEveryAncestorSet(RequestType.NON_PREEMPTIBLE)
        sets.preemptible = _KeepEveryAncestorSet(RequestType.PREEMPTIBLE)
        return session

    @staticmethod
    def _next_chain_ancestors(request, include_self=False, max_hops=64):
        if include_self and request.finished() and request.node_ids:
            yield request
        current = request
        hops = 0
        while (
            current.related_how is RelatedHow.NEXT
            and current.related_to is not None
            and hops < max_hops
        ):
            parent = current.related_to
            if parent.finished() and parent.node_ids:
                yield parent
            if not parent.finished():
                break
            current = parent
            hops += 1


_NODES = 16
_APP_IDS = ("a", "b", "c")
_TYPES = (RequestType.PREEMPTIBLE, RequestType.NON_PREEMPTIBLE, RequestType.PREALLOCATION)
_HOWS = (RelatedHow.NEXT, RelatedHow.FREE, RelatedHow.COALLOC)
_DURATIONS = (math.inf, 100.0, 20.0, 3.0, 0.5)
#: The old walk gave up after 64 hops; a run of unserved updates stays below.
_UNSERVED_LIMIT = 60


def _unserved_run(request):
    """Finished ``NEXT`` links above *request* that no start has swept yet."""
    hops = 0
    while request.related_how is RelatedHow.NEXT and request.related_to is not None:
        request = request.related_to
        if not request.finished() or (request.started() and not request.is_preallocation()):
            break
        hops += 1
    return hops


def _a_start_emptied_everything_above(requests):
    """No finished request above a served one still retains nodes."""
    for request in requests:
        if request.started() and not request.is_preallocation():
            if any(ReferenceCooRMv2._next_chain_ancestors(request)):
                return False
    return True


class _World:
    """One RMS with everything it touches, driven by index-addressed steps."""

    def __init__(self, rms_class):
        self.sim = Simulator()
        self.platform = Platform.single_cluster(_NODES)
        self.cluster = self.platform.cluster("cluster0")
        self.rms = rms_class(self.platform, self.sim, rescheduling_interval=1.0)
        self.apps = []  # every application object that ever connected
        self.requests = []  # every request ever submitted, in order
        self.since = {}  # app id -> len(self.requests) at its latest connect
        self.outcomes = []  # what each step raised, if anything

    # -- steps ---------------------------------------------------------- #
    def _attempt(self, call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except ReproError as error:
            self.outcomes.append(type(error).__name__)
            return None

    def connect(self, app):
        recorder = RecordingApp(_APP_IDS[app])
        if self._attempt(self.rms.connect, recorder, recorder.name) is not None:
            self.apps.append(recorder)
            self.since[recorder.name] = len(self.requests)

    def disconnect(self, app):
        self._attempt(self.rms.disconnect, _APP_IDS[app])

    def _submit(self, app_id, nodes, duration, rtype, how, parent):
        request = Request("cluster0", nodes, duration, rtype, how, parent)
        if self._attempt(self.rms.submit, app_id, request) is not None:
            self.requests.append(request)
            return request
        return None

    def _pick(self, index, app_id=None, unfinished=False):
        """A request by index, preferring the narrower pool when it has any."""
        pool = [r for r in self.requests if app_id is None or r.app_id == app_id]
        if unfinished:
            pool = [r for r in pool if not r.finished()] or pool
        return pool[index % len(pool)] if pool else None

    def submit(self, app, rtype, nodes, duration, how, parent, pin):
        app_id = _APP_IDS[app]
        target = self._pick(parent, app_id)
        how = _HOWS[how] if target is not None else RelatedHow.FREE
        if how is RelatedHow.FREE and not pin:
            target = None
        self._submit(app_id, nodes, _DURATIONS[duration], _TYPES[rtype], how, target)

    def _released(self, request, mode):
        """``released_node_ids`` for a ``done``: None, nothing, or some held."""
        if mode == 0:
            return None
        held = sorted(self.rms.sessions[request.app_id].holds("cluster0"))
        return held[: mode - 1]

    def done(self, request, unfinished, mode):
        target = self._pick(request, unfinished=unfinished)
        if target is not None:
            self._attempt(self.rms.done, target.app_id, target, self._released(target, mode))

    def burst(self, request, count, rtype, nodes, mode):
        """*count* updates in a row from one request, with no pass in between."""
        current = self._pick(request, unfinished=True)
        if current is None or current.finished():
            return
        count = min(count, _UNSERVED_LIMIT - _unserved_run(current))
        for link in range(count):
            kind = current.rtype if rtype is None or link else _TYPES[rtype]
            successor = self._submit(
                current.app_id, max(1, nodes + link % 3 - 1), current.duration, kind,
                RelatedHow.NEXT, current,
            )
            if successor is None:
                return
            self._attempt(self.rms.done, current.app_id, current, self._released(current, mode))
            current = successor

    def advance(self, delay):
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
        requests = [
            (
                r.state, repr(r.started_at), repr(r.finished_at), r.duration,
                sorted(r.node_ids),
            )
            for r in self.requests
        ]
        held = {
            app_id: sorted(session.holds("cluster0"))
            for app_id, session in self.rms.sessions.items()
        }
        views = [(app.name, app.views, app.killed_reason) for app in self.apps]
        return {
            "outcomes": self.outcomes,
            "events": events,
            "requests": requests,
            "held": held,
            "views": views,
            "free": self.cluster.free_nodes(),
            "now": self.sim.now,
        }


_APP = st.integers(0, len(_APP_IDS) - 1)
_INDEX = st.integers(0, 40)
_SUBMIT = st.tuples(
    st.just("submit"), _APP, st.integers(0, 2), st.integers(0, 10),
    st.integers(0, len(_DURATIONS) - 1), st.integers(0, 2), _INDEX, st.booleans(),
)
_DONE = st.tuples(st.just("done"), _INDEX, st.booleans(), st.integers(0, 5))
_BURST = st.tuples(
    st.just("burst"), _INDEX, st.integers(1, 40),
    st.one_of(st.none(), st.integers(0, 2)), st.integers(1, 8), st.integers(0, 3),
)
_ADVANCE = st.tuples(st.just("advance"), st.sampled_from([0.25, 1.0, 1.0, 2.5, 30.0, 150.0]))
_CAPACITY = st.tuples(st.just("capacity"), st.integers(4, 24))
_DISCONNECT = st.tuples(st.just("disconnect"), _APP)
_CONNECT = st.tuples(st.just("connect"), _APP)
#: Updates and the passes that serve them make up most of a script; the
#: events that wipe an application's requests are the seasoning.
_STEP = st.sampled_from(
    [_SUBMIT] * 3 + [_DONE] * 2 + [_BURST] * 5 + [_ADVANCE] * 6
    + [_CAPACITY, _DISCONNECT, _CONNECT]
).flatmap(lambda step: step)
#: Two applications, one of them running a preemptible request to update.
_PRELUDE = [
    ("connect", 0), ("connect", 1), ("submit", 0, 0, 6, 0, 1, 0, False), ("advance", 1.0),
]


def _assert_holds_match_a_scan(world):
    """The cluster's ownership map, as sessions read it, against the node IDs
    bound to each live session's requests: equal, and no node bound twice."""
    for session in world.rms.connected_sessions():
        bound = [
            r.node_ids for r in world.requests[world.since[session.app_id]:]
            if r.app_id == session.app_id
        ]
        union = frozenset().union(*bound)
        assert session.holds("cluster0") == union, session.app_id
        assert sum(map(len, bound)) == len(union), ("bound twice", session.app_id)


def _run(steps):
    new, ref = _World(CooRMv2), _World(ReferenceCooRMv2)
    script = [*_PRELUDE, *steps, ("advance", 150.0)]
    for position, (action, *args) in enumerate(script):
        for world in (new, ref):
            getattr(world, action)(*args)
            _assert_holds_match_a_scan(world)
        got, expected = new.snapshot(), ref.snapshot()
        for key in expected:
            assert got[key] == expected[key], (key, position, action, args)
        if not _a_start_emptied_everything_above(new.requests):
            break
    return new


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_STEP, min_size=4, max_size=30))
def test_worlds_agree_after_every_step(steps):
    _run(steps)


def test_a_started_preallocation_in_the_middle_of_a_chain():
    """Named, not left to chance: the walk passes through a pre-allocation."""
    world = _run(
        [
            ("burst", 0, 1, 2, 6, 0),  # NEXT pre-allocation; done(first) retains
            ("advance", 1.0),  # the pre-allocation starts, sweeping nothing
            ("burst", 1, 5, 0, 6, 0),  # five preemptible updates below it
            ("advance", 1.0),
        ]
    )
    first, tail = world.requests[0], world.requests[-1]
    assert world.requests[1].is_preallocation() and world.requests[1].finished()
    assert tail.started() and len(tail.node_ids) == tail.node_count
    assert first.node_ids == frozenset()
    assert world.cluster.allocated_count() == len(tail.node_ids)


def test_a_forked_chain_is_where_the_worlds_part():
    """Retained nodes go to the successor they were retained for."""
    taken = {}
    for rms_class in (CooRMv2, ReferenceCooRMv2):
        world = _World(rms_class)
        world.connect(0)

        def submit(nodes, parent=None):
            how = RelatedHow.FREE if parent is None else RelatedHow.NEXT
            return world._submit("a", nodes, math.inf, RequestType.PREEMPTIBLE, how, parent)

        fork = submit(6)
        world.advance(1.0)
        held = fork.node_ids
        cancelled = submit(3, fork)
        served = submit(3, cancelled)
        world.rms.done("a", cancelled)
        world.advance(1.0)
        assert served.started() and not fork.finished()
        other_branch = submit(5, served)
        own_successor = submit(6, fork)
        world.rms.done("a", fork)  # keeps its six nodes for ``own_successor``
        assert not _a_start_emptied_everything_above(world.requests)
        world.rms.done("a", served)
        world.advance(1.0)
        taken[rms_class] = (len(held & other_branch.node_ids), own_successor.node_ids >= held)
    assert taken[CooRMv2] == (0, True)
    assert taken[ReferenceCooRMv2] == (2, False)


def test_a_killed_request_binds_nothing_to_a_reconnected_session():
    """A NEXT child of a request killed in an earlier session under the same id
    inherits none of its former nodes: they may be bound to a live request now."""
    world = _run(
        [
            ("capacity", 4),  # "a" holds victims 4 and 5: killed
            ("connect", 0),
            ("submit", 0, 1, 3, 0, 1, 0, False),  # x: 3 NP nodes, 0-2
            ("advance", 1.0),
            ("submit", 0, 1, 1, 0, 0, 0, True),  # y: NEXT child of the killed request
            ("advance", 1.0),
        ]
    )
    killed, x, y = (r for r in world.requests if r.app_id == "a")
    assert killed.node_ids == frozenset() and sorted(x.node_ids) == [0, 1, 2]
    assert sorted(y.node_ids) == [3]  # the free node, not one of x's
