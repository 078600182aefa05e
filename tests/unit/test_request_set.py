"""Unit tests of request sets and request trees."""
from __future__ import annotations

import pytest

from repro.core import (
    ApplicationRequests,
    ConstraintError,
    RelatedHow,
    Request,
    RequestError,
    RequestSet,
    RequestType,
)


def np_request(n=2, related_how=RelatedHow.FREE, related_to=None):
    return Request("c", n, 100, RequestType.NON_PREEMPTIBLE, related_how, related_to)


class TestRequestSet:
    def test_add_and_contains(self):
        rs = RequestSet(RequestType.NON_PREEMPTIBLE)
        r = np_request()
        rs.add(r)
        assert r in rs
        assert len(rs) == 1
        assert rs.get(r.request_id) is r

    def test_type_enforcement(self):
        rs = RequestSet(RequestType.PREEMPTIBLE)
        with pytest.raises(RequestError):
            rs.add(np_request())

    def test_duplicate_add_rejected(self):
        rs = RequestSet()
        r = np_request()
        rs.add(r)
        with pytest.raises(RequestError):
            rs.add(r)

    def test_remove_and_discard(self):
        rs = RequestSet()
        r = np_request()
        rs.add(r)
        rs.remove(r)
        assert r not in rs
        with pytest.raises(RequestError):
            rs.remove(r)
        rs.discard(r)  # no error

    def test_roots_and_children(self):
        rs = RequestSet(RequestType.NON_PREEMPTIBLE)
        root = np_request()
        child = np_request(related_how=RelatedHow.NEXT, related_to=root)
        grandchild = np_request(related_how=RelatedHow.COALLOC, related_to=child)
        other_root = np_request()
        for r in (root, child, grandchild, other_root):
            rs.add(r)
        assert set(r.request_id for r in rs.roots()) == {root.request_id, other_root.request_id}
        assert rs.children(root) == [child]
        assert rs.children(child) == [grandchild]
        assert rs.descendants(root) == [child, grandchild]

    def test_request_with_external_parent_is_root(self):
        external = np_request()
        rs = RequestSet(RequestType.NON_PREEMPTIBLE)
        child = np_request(related_how=RelatedHow.NEXT, related_to=external)
        rs.add(child)
        assert rs.roots() == [child]

    def test_cycle_detection(self):
        rs = RequestSet(RequestType.NON_PREEMPTIBLE)
        a = np_request()
        b = np_request(related_how=RelatedHow.NEXT, related_to=a)
        rs.add(a)
        rs.add(b)
        # Build an artificial cycle.
        a.related_how = RelatedHow.NEXT
        a.related_to = b
        with pytest.raises(ConstraintError):
            rs.validate_constraints()

    def test_started_and_pending_filters(self):
        rs = RequestSet()
        a, b = np_request(), np_request()
        rs.add(a)
        rs.add(b)
        a.mark_started(1.0)
        assert rs.started() == [a]
        assert rs.pending() == [b]
        a.mark_finished(2.0)
        assert rs.started() == []
        assert rs.active_or_pending() == [b]

    def test_prune_finished_keeps_needed_parents(self):
        rs = RequestSet(RequestType.NON_PREEMPTIBLE)
        grandparent = np_request()
        parent = np_request(related_how=RelatedHow.NEXT, related_to=grandparent)
        child = np_request(related_how=RelatedHow.NEXT, related_to=parent)
        for r in (grandparent, parent, child):
            rs.add(r)
        grandparent.mark_started(0.0)
        grandparent.mark_finished(5.0)
        # The parent is still pending, so the grandparent must be kept.
        assert rs.prune_finished() == []
        parent.mark_started(5.0)
        parent.mark_finished(10.0)
        # The child is pending and names the parent -- and only the parent.
        assert rs.prune_finished() == [grandparent]
        assert parent in rs
        child.mark_started(10.0)
        child.mark_finished(20.0)
        removed = rs.prune_finished()
        assert parent in removed and child in removed
        assert len(rs) == 0

    def test_total_requested_nodes_ignores_finished(self):
        rs = RequestSet()
        a, b = np_request(n=3), np_request(n=5)
        rs.add(a)
        rs.add(b)
        b.mark_finished(1.0)
        assert rs.total_requested_nodes() == 3


class TestApplicationRequests:
    def test_routing_by_type(self):
        app = ApplicationRequests("app1")
        pa = Request("c", 8, 100, RequestType.PREALLOCATION)
        np_ = Request("c", 4, 100, RequestType.NON_PREEMPTIBLE)
        p = Request("c", 2, 100, RequestType.PREEMPTIBLE)
        for r in (pa, np_, p):
            app.add(r)
        assert pa in app.preallocations
        assert np_ in app.non_preemptible
        assert p in app.preemptible
        assert {r.request_id for r in app.all_requests()} == {
            pa.request_id, np_.request_id, p.request_id
        }
        # app_id is stamped onto the requests
        assert pa.app_id == "app1"

    def test_find(self):
        app = ApplicationRequests("app1")
        r = Request("c", 4, 100, RequestType.PREEMPTIBLE)
        app.add(r)
        assert app.find(r.request_id) is r
        assert app.find(999_999) is None

    def test_set_for(self):
        app = ApplicationRequests("x")
        assert app.set_for(RequestType.PREALLOCATION) is app.preallocations
        assert app.set_for(RequestType.NON_PREEMPTIBLE) is app.non_preemptible
        assert app.set_for(RequestType.PREEMPTIBLE) is app.preemptible

    def test_prune_across_sets(self):
        app = ApplicationRequests("x")
        r1 = Request("c", 4, 100, RequestType.PREEMPTIBLE)
        r2 = Request("c", 4, 100, RequestType.NON_PREEMPTIBLE)
        app.add(r1)
        app.add(r2)
        r1.mark_finished(1.0)
        removed = app.prune_finished()
        assert removed == [r1]
        assert app.find(r2.request_id) is r2
