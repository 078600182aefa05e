"""Property tests: Algorithm 1's postconditions over random request forests.

``to_view`` walks a request set from its started requests along the
``NEXT`` / ``COALLOC`` constraints.  Over random small forests -- every
constraint kind, ``FREE`` requests that still name a parent, parents outside
the set, pending, started, finished and cancelled requests, finite, zero and
infinite durations -- with and without an *available* view, the result is
stated here declaratively, not as a second walk:

* a request is fixed iff it is reachable from a started, unfinished request of
  the set along constraints within the set, each hop unfinished and with a
  finite start (a started request at its ``started_at``, a ``NEXT`` child at
  its parent's end, a ``COALLOC`` child with its parent);
* a fixed request's ``n_alloc`` is its node count or, given *available*, the
  least of that and what *available* offers over its window (``alloc``);
* the occupation is the sum of the fixed requests' rectangles.
"""
from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RelatedHow, Request, RequestSet, RequestType, View, to_view
from repro.core.profile import StepFunction
from repro.core.toview import started_occupation

#: One request: (cluster, nodes, duration, constraint, parent index or -1,
#: lifecycle, start time, member of the set).
_REQUEST = st.tuples(
    st.sampled_from(["a", "a", "b"]),
    st.integers(0, 6),
    st.sampled_from([0.0, 5.0, 20.0, math.inf]),
    st.sampled_from([RelatedHow.FREE, RelatedHow.NEXT, RelatedHow.NEXT, RelatedHow.COALLOC]),
    st.integers(-1, 6),
    st.sampled_from(["pending", "pending", "started", "started", "finished", "cancelled"]),
    st.sampled_from([0.0, 3.0, 10.0]),
    st.sampled_from([True, True, True, False]),
)
_FOREST = st.lists(_REQUEST, min_size=1, max_size=8)
#: An availability with a dip, so that windows see different minima.
_AVAILABLE = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.sampled_from([2.0, 8.0, 25.0])).map(
        lambda spec: View({"a": StepFunction([0.0, spec[2]], [spec[0], spec[1]])})
    ),
)


def _build(forest):
    """The requests of *forest* (parents first) and the set of the members."""
    requests, members = [], RequestSet()
    for cluster, nodes, duration, how, parent, state, at, member in forest:
        target = requests[parent % len(requests)] if requests and parent >= 0 else None
        if target is None:
            how = RelatedHow.FREE
        r = Request(cluster, nodes, duration, RequestType.PREEMPTIBLE, how, target)
        if state in ("started", "finished"):
            r.mark_started(at)
        if state == "finished":
            r.mark_finished(at + 2.0)
        elif state == "cancelled":
            r.mark_cancelled(at)
        requests.append(r)
        if member:
            members.add(r)
    return requests, members


def _fixed_starts(members):
    """Request id -> start of every request that must be fixed, by definition."""
    starts = {}

    def start_of(r):
        if r.request_id not in starts:
            starts[r.request_id] = None
            parent = r.related_to
            if r.finished():
                pass
            elif r.started():
                starts[r.request_id] = r.started_at
            elif r.related_how is not RelatedHow.FREE and parent in members:
                parent_start = start_of(parent)
                if parent_start is not None:
                    start = parent_start
                    if r.related_how is RelatedHow.NEXT:
                        start += parent.duration
                    if math.isfinite(start):
                        starts[r.request_id] = start
        return starts[r.request_id]

    for r in members.scan():
        start_of(r)
    return {rid: start for rid, start in starts.items() if start is not None}


def _offered(available, r, start):
    """``alloc(V, r)`` spelled out: the node count, capped by the window's minimum."""
    low = available[r.cluster_id].min_over(start, start + r.duration)
    return min(r.node_count, max(0, math.floor(low + 1e-9)))


@settings(max_examples=300, deadline=None)
@given(forest=_FOREST, available=_AVAILABLE, as_list=st.booleans())
def test_to_view_fixes_what_a_started_request_pins_and_occupies_their_sum(
    forest, available, as_list
):
    requests, members = _build(forest)
    expected = _fixed_starts(members)
    got = to_view(list(members.scan()) if as_list else members, available)

    occupation = View.empty()
    for r in members.scan():
        assert r.fixed == (r.request_id in expected), r
        if not r.fixed:
            continue
        start = expected[r.request_id]
        assert r.scheduled_at == start
        n = r.node_count if available is None else _offered(available, r, start)
        assert r.n_alloc == n
        if r.duration > 0 and n > 0:
            occupation = occupation.add_rectangle(r.cluster_id, start, r.duration, n)
    assert got == occupation
    assert repr(got) == repr(occupation)
    # Requests outside the set are never touched.
    assert not any(r.fixed for r in requests if r not in members)


@settings(max_examples=150, deadline=None)
@given(forest=_FOREST)
def test_the_memoised_occupation_is_the_unlimited_to_view(forest):
    _, members = _build(forest)
    memo = started_occupation(members)
    assert repr(memo) == repr(to_view(list(members.scan())))
    assert started_occupation(members) is memo
