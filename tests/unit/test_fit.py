"""Unit tests of fit() (paper Algorithm 2)."""
from __future__ import annotations

import math

import pytest

from repro.core import (
    RelatedHow,
    Request,
    RequestSet,
    RequestType,
    StepFunction,
    View,
    fit,
    to_view,
)


def np_request(n, duration, related_how=RelatedHow.FREE, related_to=None, cluster="c"):
    return Request(cluster, n, duration, RequestType.NON_PREEMPTIBLE, related_how, related_to)


def p_request(n, duration, related_how=RelatedHow.FREE, related_to=None, cluster="c"):
    return Request(cluster, n, duration, RequestType.PREEMPTIBLE, related_how, related_to)


def make_set(*requests, rtype=None):
    rs = RequestSet(rtype)
    for r in requests:
        rs.add(r)
    return rs


class TestFreeRequests:
    def test_placed_at_first_hole(self):
        r = np_request(4, 100)
        available = View({"c": StepFunction.constant(10).subtract_rectangle(0, 50, 8)})
        occupied = fit(make_set(r), available, not_before=0.0)
        assert r.scheduled_at == pytest.approx(50.0)
        assert occupied["c"].value_at(60) == 4
        assert occupied["c"].value_at(10) == 0

    def test_not_before_is_respected(self):
        r = np_request(2, 10)
        occupied = fit(make_set(r), View.constant({"c": 10}), not_before=42.0)
        assert r.scheduled_at == pytest.approx(42.0)
        assert occupied["c"].value_at(45) == 2

    def test_impossible_request_scheduled_at_infinity(self):
        r = np_request(100, 10)
        occupied = fit(make_set(r), View.constant({"c": 10}), not_before=0.0)
        assert math.isinf(r.scheduled_at)
        assert occupied.is_zero()

    def test_fixed_requests_are_left_alone(self):
        r = np_request(4, 100)
        r.mark_started(5.0)
        rs = make_set(r)
        to_view(rs)  # sets fixed and scheduled_at
        occupied = fit(rs, View.constant({"c": 10}), not_before=50.0)
        assert r.scheduled_at == pytest.approx(5.0)
        assert occupied.is_zero()  # fit only reports non-fixed occupation

    def test_n_alloc_defaults_to_requested(self):
        r = np_request(4, 100)
        fit(make_set(r), View.constant({"c": 10}), not_before=0.0)
        assert r.n_alloc == 4


class TestConstraints:
    def test_next_chain_schedules_back_to_back(self):
        a = np_request(4, 100)
        b = np_request(6, 50, RelatedHow.NEXT, a)
        fit(make_set(a, b), View.constant({"c": 10}), not_before=0.0)
        assert a.scheduled_at == pytest.approx(0.0)
        assert b.scheduled_at == pytest.approx(100.0)

    def test_next_pushes_parent_when_successor_does_not_fit(self):
        # Only 4 nodes available during [0, 200); 10 afterwards.  The child
        # needs 8 nodes, so the parent must be delayed until the child can
        # start right after it.
        profile = StepFunction.constant(10).subtract_rectangle(0, 200, 6)
        a = np_request(4, 100)
        b = np_request(8, 50, RelatedHow.NEXT, a)
        fit(make_set(a, b), View({"c": profile}), not_before=0.0)
        assert b.scheduled_at == pytest.approx(a.scheduled_at + a.duration)
        assert b.scheduled_at >= 200.0

    def test_coalloc_same_start_time(self):
        a = np_request(4, 100)
        b = np_request(2, 100, RelatedHow.COALLOC, a)
        fit(make_set(a, b), View.constant({"c": 10}), not_before=7.0)
        assert a.scheduled_at == pytest.approx(7.0)
        assert b.scheduled_at == pytest.approx(7.0)

    def test_preemptible_child_is_shrunk_not_delayed(self):
        pa = Request("c", 6, 100, RequestType.PREALLOCATION)
        pa.mark_started(0.0)
        pa.scheduled_at = 0.0
        pa.fixed = True
        extra = p_request(10, 100, RelatedHow.COALLOC, pa)
        available = View.constant({"c": 4})
        fit([pa, extra], available, not_before=0.0)
        assert extra.scheduled_at == pytest.approx(0.0)
        assert extra.n_alloc == 4

    def test_next_preemptible_follows_parent_and_shrinks(self):
        a = p_request(4, 100)
        b = p_request(10, 50, RelatedHow.NEXT, a)
        available = View.constant({"c": 6})
        fit(make_set(a, b, rtype=RequestType.PREEMPTIBLE), available, not_before=0.0)
        assert b.scheduled_at == pytest.approx(100.0)
        assert b.n_alloc == 6

    def test_child_of_finished_parent_is_schedulable(self):
        # After a spontaneous update the predecessor is finished; the new
        # request must still be placed (it becomes a root).
        a = np_request(4, 1000)
        a.mark_started(0.0)
        a.mark_finished(30.0)
        b = np_request(6, 100, RelatedHow.NEXT, a)
        rs = make_set(a, b)
        to_view(rs)
        occupied = fit(rs, View.constant({"c": 10}), not_before=31.0)
        assert b.scheduled_at == pytest.approx(31.0)
        assert occupied["c"].value_at(50) == 6

    def test_external_parent_not_rescheduled(self):
        # The parent belongs to another request set (e.g. a pre-allocation);
        # fit() must not try to move it.
        pa = Request("c", 8, 1000, RequestType.PREALLOCATION)
        pa.scheduled_at = 500.0
        pa.fixed = False
        child = np_request(8, 100, RelatedHow.COALLOC, pa)
        fit(make_set(child), View.constant({"c": 8}), not_before=0.0)
        assert child.scheduled_at == pytest.approx(500.0)
        assert pa.scheduled_at == pytest.approx(500.0)

    def test_a_child_listed_before_its_parent_is_not_a_root(self):
        """Placed once, after its parent: a root is known only once the whole set is."""
        a = np_request(4, 100)
        b = np_request(6, 50, RelatedHow.NEXT, a)
        placed = []

        class Recording(View):
            __slots__ = ()

            def find_hole(self, request, not_before=0.0):
                placed.append(request)
                return super().find_hole(request, not_before)

        fit(make_set(b, a), Recording.constant({"c": 10}), not_before=0.0)
        assert placed == [a, b]
        assert b.scheduled_at == pytest.approx(100.0)

    def test_generated_view_stacks_requests(self):
        a = np_request(4, 100)
        b = np_request(2, 100, RelatedHow.COALLOC, a)
        occupied = fit(make_set(a, b), View.constant({"c": 10}), not_before=0.0)
        assert occupied["c"].value_at(50) == 6
        assert occupied["c"].value_at(150) == 0
