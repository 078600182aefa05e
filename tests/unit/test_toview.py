"""Unit tests of toView() (paper Algorithm 1)."""
from __future__ import annotations

import math

import pytest

from repro.core import (
    RelatedHow,
    Request,
    RequestSet,
    RequestType,
    View,
    fit,
    to_view,
)
from repro.core.toview import started_occupation
from repro.policies.backfill import EasyBackfill


def np_request(n, duration, related_how=RelatedHow.FREE, related_to=None, cluster="c"):
    return Request(cluster, n, duration, RequestType.NON_PREEMPTIBLE, related_how, related_to)


class TestToView:
    def test_empty_set_gives_empty_view(self):
        assert to_view(RequestSet()).is_zero()

    def test_pending_requests_are_not_fixed(self):
        rs = RequestSet(RequestType.NON_PREEMPTIBLE)
        r = np_request(4, 100)
        rs.add(r)
        view = to_view(rs)
        assert view.is_zero()
        assert not r.fixed

    def test_started_request_occupies_from_its_start_time(self):
        rs = RequestSet(RequestType.NON_PREEMPTIBLE)
        r = np_request(4, 100)
        rs.add(r)
        r.mark_started(10.0)
        view = to_view(rs)
        assert r.fixed
        assert r.scheduled_at == 10.0
        assert r.n_alloc == 4
        assert view["c"].value_at(10) == 4
        assert view["c"].value_at(109.9) == 4
        assert view["c"].value_at(110) == 0
        assert view["c"].value_at(9.9) == 0

    def test_next_child_of_started_parent_is_fixed(self):
        rs = RequestSet(RequestType.NON_PREEMPTIBLE)
        parent = np_request(4, 100)
        child = np_request(6, 50, RelatedHow.NEXT, parent)
        rs.add(parent)
        rs.add(child)
        parent.mark_started(20.0)
        view = to_view(rs)
        assert child.fixed
        assert child.scheduled_at == pytest.approx(120.0)
        assert view["c"].value_at(130) == 6
        assert view["c"].value_at(171) == 0

    def test_coalloc_child_of_started_parent(self):
        rs = RequestSet(RequestType.NON_PREEMPTIBLE)
        parent = np_request(4, 100)
        child = np_request(2, 100, RelatedHow.COALLOC, parent)
        rs.add(parent)
        rs.add(child)
        parent.mark_started(5.0)
        view = to_view(rs)
        assert child.fixed
        assert child.scheduled_at == pytest.approx(5.0)
        assert view["c"].value_at(50) == 6

    def test_next_child_of_finished_parent_uses_actual_end(self):
        rs = RequestSet(RequestType.NON_PREEMPTIBLE)
        parent = np_request(4, 1000)
        child = np_request(6, 50, RelatedHow.NEXT, parent)
        rs.add(parent)
        rs.add(child)
        parent.mark_started(0.0)
        parent.mark_finished(30.0)  # done() long before the requested duration
        child.mark_started(30.0)
        view = to_view(rs)
        assert child.scheduled_at == pytest.approx(30.0)
        assert view["c"].value_at(40) == 6

    def test_available_view_limits_n_alloc(self):
        rs = RequestSet(RequestType.PREEMPTIBLE)
        r = Request("c", 10, 100, RequestType.PREEMPTIBLE)
        rs.add(r)
        r.mark_started(0.0)
        available = View.constant({"c": 6})
        view = to_view(rs, available)
        assert r.n_alloc == 6
        assert view["c"].value_at(50) == 6

    def test_finished_requests_are_ignored(self):
        rs = RequestSet(RequestType.NON_PREEMPTIBLE)
        r = np_request(4, 100)
        rs.add(r)
        r.mark_started(0.0)
        r.mark_finished(10.0)
        assert to_view(rs).is_zero()

    def test_fixed_flag_is_reset_on_each_call(self):
        rs = RequestSet(RequestType.NON_PREEMPTIBLE)
        r = np_request(4, 100)
        rs.add(r)
        r.mark_started(0.0)
        to_view(rs)
        assert r.fixed
        r.mark_finished(10.0)
        to_view(rs)
        assert not r.fixed

    def test_works_on_plain_lists(self):
        parent = np_request(4, 100)
        child = np_request(2, 10, RelatedHow.NEXT, parent)
        parent.mark_started(0.0)
        view = to_view([parent, child])
        assert view["c"].value_at(50) == 4
        assert view["c"].value_at(105) == 2


def _chain():
    """A started parent, its fixed ``NEXT`` child and an unconstrained request."""
    rs = RequestSet(RequestType.NON_PREEMPTIBLE)
    parent = np_request(4, 100)
    child = np_request(6, 50, RelatedHow.NEXT, parent)
    free = np_request(8, 30)
    for r in (parent, child, free):
        rs.add(r)
    parent.mark_started(20.0)
    return rs, parent, child, free


#: Everything a caller can do to a set or its requests behind its back.
_MUTATIONS = {
    "start": lambda rs, parent, child, free: free.mark_started(25.0),
    "finish": lambda rs, parent, child, free: parent.mark_finished(60.0),
    "cancel": lambda rs, parent, child, free: child.mark_cancelled(30.0),
    "add": lambda rs, parent, child, free: rs.add(np_request(1, 5, RelatedHow.COALLOC, parent)),
    "remove": lambda rs, parent, child, free: rs.remove(child),
    "prune": lambda rs, parent, child, free: (
        child.mark_cancelled(30.0), parent.mark_finished(60.0), rs.prune_finished()),
    "duration": lambda rs, parent, child, free: setattr(parent, "duration", 10.0),
    "node_count": lambda rs, parent, child, free: setattr(child, "node_count", 1),
    "started_at": lambda rs, parent, child, free: setattr(parent, "started_at", 0.0),
    "constraint": lambda rs, parent, child, free: (
        setattr(free, "related_how", RelatedHow.COALLOC), setattr(free, "related_to", parent)),
    "cluster": lambda rs, parent, child, free: setattr(parent, "cluster_id", "d"),
}


class TestStartedOccupation:
    def test_an_empty_set_occupies_nothing(self):
        rs = RequestSet(RequestType.NON_PREEMPTIBLE)
        assert started_occupation(rs).is_zero()
        assert started_occupation(rs) is started_occupation(RequestSet())

    def test_same_object_while_nothing_changes(self):
        rs, parent, child, free = _chain()
        view = started_occupation(rs)
        assert repr(view) == repr(to_view(list(rs)))
        assert started_occupation(rs) is view
        # What fit() writes on the non-fixed requests is not an input.
        fit(rs, View.constant({"c": 16}), 21.0)
        assert not math.isinf(free.scheduled_at)
        assert started_occupation(rs) is view

    @pytest.mark.parametrize("name", sorted(_MUTATIONS))
    def test_every_input_invalidates(self, name):
        rs, parent, child, free = _chain()
        before = started_occupation(rs)
        _MUTATIONS[name](rs, parent, child, free)
        after = started_occupation(rs)
        assert after is not before
        assert repr(after) == repr(to_view(list(rs)))
        assert after != before
        assert started_occupation(rs) is after

    def test_a_direct_to_view_drops_the_memo(self):
        rs, parent, child, free = _chain()
        view = started_occupation(rs)
        assert to_view(rs) == view
        assert started_occupation(rs) is not view

    def test_fit_and_easy_leave_fixed_requests_alone(self):
        """Why a skipped ``to_view`` may also skip its side effects."""
        rs, parent, child, free = _chain()
        view = started_occupation(rs)

        def rms_attributes():
            return [(r.fixed, r.scheduled_at, r.n_alloc) for r in (parent, child)]

        fixed_before = rms_attributes()
        assert fixed_before == [(True, 20.0, 4), (True, 120.0, 6)]
        # 10 nodes: the free 8-node request only fits once parent and child
        # are gone, so EASY (not the head) drops its reservation again.
        space = View.constant({"c": 10}) - view
        fit(rs, space, 21.0)
        assert rms_attributes() == fixed_before and not free.fixed
        assert free.scheduled_at == pytest.approx(170.0)
        EasyBackfill().fit_pending(rs, space, 21.0, head_app=False)
        assert rms_attributes() == fixed_before and not free.fixed
        assert math.isinf(free.scheduled_at)
        assert started_occupation(rs) is view
