"""Property tests: linear-time RequestSet pruning vs the naive reference.

``RequestSet.prune_finished`` keeps the unfinished requests and the one
request each of them names as ``related_to``; it is one pass over the set.
``ReferenceRequestSet`` states the same rule the naive way, with one linear
scan per question, and is the oracle: random forests must give the same
removed list (order included), the same survivors and the same ``roots()`` /
``children()`` / ``descendants()``.  That the rule keeps request sets -- and
the work of a pass -- from growing with an application's history is checked
at the end, through a real ``CooRMv2``; that one hop loses nothing the old
keep-every-ancestor rule protected is ``test_rms_chain_equivalence.py``'s job.
"""
from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RelatedHow, Request, RequestSet, RequestType
from repro.testing import RecordingApp, make_env


class ReferenceRequestSet:
    """The pre-optimisation semantics: one list, a linear scan per question."""

    def __init__(self):
        self.requests = []

    def add(self, request):
        self.requests.append(request)

    def remove(self, request):
        self.requests.remove(request)

    def _ids(self):
        return {r.request_id for r in self.requests}

    def roots(self):
        ids = self._ids()
        return [
            r
            for r in self.requests
            if r.related_how is RelatedHow.FREE
            or r.related_to is None
            or r.related_to.request_id not in ids
        ]

    def children(self, request):
        return [
            r
            for r in self.requests
            if r.related_to is not None
            and r.related_to.request_id == request.request_id
            and r.related_how is not RelatedHow.FREE
        ]

    def descendants(self, request):
        out = []
        stack = self.children(request)
        while stack:
            r = stack.pop(0)
            out.append(r)
            stack = self.children(r) + stack
        return out

    def prune_finished(self):
        removed = []
        for r in list(self.requests):
            if r.finished() and not any(
                c.related_to is r and not c.finished() for c in self.requests
            ):
                self.remove(r)
                removed.append(r)
        return removed


def _request(how=RelatedHow.FREE, parent=None):
    return Request("c", 2, 100.0, RequestType.NON_PREEMPTIBLE, how, parent)


_HOW = st.sampled_from([RelatedHow.FREE, RelatedHow.NEXT, RelatedHow.COALLOC])
_STATE = st.sampled_from(["pending", "started", "finished"])

#: One node of a random forest: (parent index or -1, constraint, member of the
#: set?, lifecycle state, sort key giving the insertion position).
_NODE = st.tuples(st.integers(-1, 30), _HOW, st.booleans(), _STATE, st.integers(0, 99))
#: What happens between two prunes: a request finishes, a member is removed
#: behind the set's back (its children become roots), or nothing.
_STEP = st.tuples(st.sampled_from(["finish", "remove", "prune"]), st.integers(0, 30))


def _apply_state(request, state):
    if state != "pending":
        request.mark_started(1.0)
    if state == "finished":
        request.mark_finished(2.0)


def _build(nodes):
    """Requests of a random forest, plus the subset that joins the set."""
    requests = []
    for parent, how, _member, state, _key in nodes:
        target = requests[parent % len(requests)] if requests and parent >= 0 else None
        # A FREE request may still carry a ``related_to`` (and pins it).
        request = _request(how if target is not None else RelatedHow.FREE, target)
        _apply_state(request, state)
        requests.append(request)
    members = [(node[4], i, r) for i, (r, node) in enumerate(zip(requests, nodes)) if node[2]]
    return requests, [r for _key, _i, r in sorted(members, key=lambda m: m[:2])]


def _assert_same_forest(new, ref, requests):
    assert [id(r) for r in new] == [id(r) for r in ref.requests]
    assert new.roots() == ref.roots()
    for r in requests:  # members, outsiders and already-removed requests alike
        assert new.children(r) == ref.children(r)
        assert new.descendants(r) == ref.descendants(r)


@settings(max_examples=300, deadline=None)
@given(nodes=st.lists(_NODE, min_size=1, max_size=14), steps=st.lists(_STEP, max_size=8))
def test_prune_matches_the_naive_reference(nodes, steps):
    requests, members = _build(nodes)
    new, ref = RequestSet(), ReferenceRequestSet()
    for r in members:
        new.add(r)
        ref.add(r)
    _assert_same_forest(new, ref, requests)

    for action, index in [("prune", 0), *steps, ("prune", 0)]:
        target = requests[index % len(requests)]
        if action == "finish" and not target.finished():
            target.mark_finished(3.0)
        elif action == "remove" and target in new:
            new.remove(target)
            ref.remove(target)
        else:
            removed_new, removed_ref = new.prune_finished(), ref.prune_finished()
            assert [id(r) for r in removed_new] == [id(r) for r in removed_ref]
            assert all(r.finished() and r not in new for r in removed_new)
        _assert_same_forest(new, ref, requests)


def test_only_the_parent_of_a_live_request_stays():
    """One hop: the finished chain above a live request's parent goes."""
    rs = RequestSet()
    chain = [_request()]
    for _ in range(4):
        chain.append(_request(RelatedHow.NEXT, chain[-1]))
    for r in chain:
        rs.add(r)
    for r in chain[:-1]:
        _apply_state(r, "finished")
    assert rs.prune_finished() == chain[:-2]
    assert list(rs) == chain[-2:]
    _apply_state(chain[-1], "finished")
    assert rs.prune_finished() == chain[-2:]


def test_free_request_pins_only_the_request_it_names():
    rs = RequestSet()
    root = _request()
    middle = _request(RelatedHow.NEXT, root)
    pin = _request(RelatedHow.FREE, middle)
    for r in (root, middle, pin):
        rs.add(r)
    _apply_state(root, "finished")
    _apply_state(middle, "finished")
    # ``pin`` is no descendant of ``root`` (FREE is no edge), so root goes.
    assert rs.prune_finished() == [root]
    assert list(rs) == [middle, pin]


def _count_finished_calls(monkeypatch):
    calls = [0]
    original = Request.finished

    def counting(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(Request, "finished", counting)
    return calls


def test_the_two_thousandth_update_costs_what_the_hundredth_did(monkeypatch):
    """Counts set members and ``Request.finished`` calls, not time."""
    sim, _, rms = make_env(nodes=16)
    rms.connect(RecordingApp("a"), "a")
    current = rms.submit("a", Request("cluster0", 4, math.inf, RequestType.PREEMPTIBLE))
    sim.run()
    calls = _count_finished_calls(monkeypatch)
    per_pass = []
    for update in range(2000):
        successor = Request(
            "cluster0", 4 + update % 2, math.inf, RequestType.PREEMPTIBLE,
            RelatedHow.NEXT, current,
        )
        rms.submit("a", successor)
        rms.done("a", current)
        calls[0] = 0
        sim.run()  # exactly one pass: it starts the successor
        per_pass.append(calls[0])
        assert successor.started() and len(successor.node_ids) == successor.node_count
        assert len(rms.sessions["a"].requests.preemptible) <= 3
        current = successor
    early, late = sum(per_pass[100:200]), sum(per_pass[1900:2000])
    assert early > 0 and abs(late - early) <= 0.10 * early
