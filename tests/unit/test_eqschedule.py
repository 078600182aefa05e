"""Unit tests of eqSchedule() and max-min fair sharing (paper Algorithm 3)."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    View,
    eq_schedule,
    max_min_fair,
)
from repro.core.eqschedule import _partition_interval, partition_schedule
from repro.core.profile import StepFunction
from repro.core.types import RelatedHow
from repro.testing import p_, p_set


def p_request(n, duration=float("inf"), cluster="c"):
    return p_(n, duration, cluster)


class TestMaxMinFair:
    def test_enough_for_everyone(self):
        assert max_min_fair([3, 5, 2], 20) == [3, 5, 2]

    def test_equal_split_when_saturated(self):
        assert max_min_fair([10, 10], 10) == [5, 5]

    def test_small_demand_is_fully_served_first(self):
        alloc = max_min_fair([2, 100], 10)
        assert alloc[0] == 2
        assert alloc[1] == 8

    def test_never_exceeds_capacity_or_demand(self):
        demands = [7, 1, 4, 9]
        alloc = max_min_fair(demands, 12)
        assert sum(alloc) <= 12
        assert all(a <= d for a, d in zip(alloc, demands))

    def test_zero_capacity(self):
        assert max_min_fair([4, 4], 0) == [0, 0]

    def test_empty_demands(self):
        assert max_min_fair([], 10) == []


class TestEqSchedule:
    def test_single_application_gets_everything(self):
        r = p_request(10)
        views = eq_schedule({"a": p_set(r)}, View.constant({"c": 16}), not_before=0.0)
        assert views["a"]["c"].value_at(0) == 16
        assert r.scheduled_at == pytest.approx(0.0)
        assert r.n_alloc == 10

    def test_congested_split_is_fair(self):
        r1, r2 = p_request(16), p_request(16)
        views = eq_schedule(
            {"a": p_set(r1), "b": p_set(r2)}, View.constant({"c": 16}), not_before=0.0
        )
        assert views["a"]["c"].value_at(0) == 8
        assert views["b"]["c"].value_at(0) == 8
        assert r1.n_alloc == 8
        assert r2.n_alloc == 8

    def test_filling_lets_one_app_use_unrequested_resources(self):
        # Application "a" only wants 2 nodes; "b" should be offered the rest.
        r1, r2 = p_request(2), p_request(16)
        views = eq_schedule(
            {"a": p_set(r1), "b": p_set(r2)}, View.constant({"c": 16}), not_before=0.0
        )
        assert views["b"]["c"].value_at(0) == 14
        # "a" is never shown less than its equal partition.
        assert views["a"]["c"].value_at(0) >= 8

    def test_strict_mode_always_shows_equal_slice(self):
        r1, r2 = p_request(2), p_request(16)
        views = eq_schedule(
            {"a": p_set(r1), "b": p_set(r2)},
            View.constant({"c": 16}),
            not_before=0.0,
            strict=True,
        )
        assert views["a"]["c"].value_at(0) == 8
        assert views["b"]["c"].value_at(0) == 8

    def test_inactive_application_sees_its_potential_partition(self):
        r1 = p_request(16)
        empty = p_set()
        views = eq_schedule(
            {"busy": p_set(r1), "idle": empty}, View.constant({"c": 16}), not_before=0.0
        )
        # The idle application is shown what it would get if it became active
        # (an equal partition), not zero.
        assert views["idle"]["c"].value_at(0) >= 8

    def test_views_track_availability_profile(self):
        # Availability drops from 16 to 4 nodes at t=100.
        available = View({"c": View.constant({"c": 16})["c"].subtract_rectangle(100, 1000, 12)})
        r = p_request(16)
        views = eq_schedule({"a": p_set(r)}, available, not_before=0.0)
        assert views["a"]["c"].value_at(50) == 16
        assert views["a"]["c"].value_at(150) == 4

    def test_no_applications(self):
        assert eq_schedule({}, View.constant({"c": 8}), not_before=0.0) == {}

    def test_started_requests_keep_their_allocation_in_views(self):
        r1 = p_request(10)
        r1.mark_started(0.0)
        r2 = p_request(10)
        views = eq_schedule(
            {"a": p_set(r1), "b": p_set(r2)}, View.constant({"c": 16}), not_before=0.0
        )
        # Congested: both should be shown a fair share.
        assert views["a"]["c"].value_at(0) == 8
        assert views["b"]["c"].value_at(0) == 8


class TestPartitionRows:
    """``partition`` runs once per distinct (capacity, demands) row."""

    @staticmethod
    def _share(sets, available):
        calls = []

        def partition(demands, capacity):
            calls.append((list(demands), capacity))
            return _partition_interval(demands, capacity, False)

        return partition_schedule(sets, available, 0.0, partition=partition), calls

    def test_idle_applications_cost_one_call_per_distinct_capacity(self):
        times = [10.0 * i for i in range(12)]
        available = View({"c": StepFunction(times, [7, 8] * 6)})
        views, calls = self._share({"a": p_set(), "b": p_set(), "c": p_set()}, available)
        # The full demand vector every time, idle applications included.
        assert sorted(calls) == [([0, 0, 0], 7), ([0, 0, 0], 8)]
        assert views["b"]["c"] == available["c"]
        assert views["a"] is views["b"] is views["c"]
        # The column reproduces the availability, so its profile is handed on.
        assert views["a"]["c"] is available["c"]

    def test_idle_intervals_are_the_availability_segments_before_the_horizon(self):
        available = View({"c": StepFunction([0.0, 10.0, 20.0, 30.0], [8, 6.5, -2, 5])})
        sets = {"a": p_set(), "b": p_set()}
        views = partition_schedule(sets, available, 0.0)
        assert views["a"]["c"] is not available["c"]  # 6.5 floors to 6, -2 clips to 0
        assert views["a"]["c"].times == (0.0, 10.0, 20.0, 30.0)
        assert views["a"]["c"].values == (8.0, 6.0, 0.0, 5.0)
        # Half-open: a breakpoint at the horizon itself is dropped, 0 never is.
        cut = partition_schedule(sets, available, 0.0, horizon=20.0)
        assert cut["b"]["c"].times == (0.0, 10.0)
        assert partition_schedule(sets, available, 0.0, horizon=0.0)["a"]["c"].values == (8.0,)
        strict = eq_schedule(sets, available, 0.0, strict=True)
        assert strict["a"] is strict["b"]
        assert strict["a"]["c"].values == (4.0, 3.0, 0.0, 2.0)

    def test_no_cluster_at_all_still_answers_every_application(self):
        views = partition_schedule({"a": p_set(), "b": p_set()}, View.empty(), 0.0)
        assert list(views) == ["a", "b"] and len(views["a"]) == 0

    def test_rows_are_told_apart_by_the_demands_of_busy_applications(self):
        available = View({"c": StepFunction([0.0, 10.0, 20.0, 30.0], [8, 6, 8, 6])})
        busy = p_set(p_request(8, duration=15.0))
        views, calls = self._share({"idle": p_set(), "busy": busy}, available)
        # Five intervals (the request, shrunk to 6 nodes, ends at 15), four
        # distinct rows: capacity 6 without demand occurs at 15 and at 30.
        assert views["idle"]["c"].times == (0.0, 10.0, 15.0, 20.0, 30.0)
        assert sorted(calls) == [([0, 0], 6), ([0, 0], 8), ([0, 6], 6), ([0, 6], 8)]
        assert views["idle"]["c"].value_at(0.0) == 4
        assert views["idle"]["c"].value_at(25.0) == 8

    def test_all_zero_demands_show_everyone_the_whole_capacity(self):
        assert _partition_interval([0, 0, 0], 5, False) == [5, 5, 5]
        assert _partition_interval([0, 0, 0], 0, False) == [0, 0, 0]
        assert _partition_interval([0, 0, 0], 5, True) == [1, 1, 1]


# --------------------------------------------------------------------- #
# Nobody holds a preemptible request: the closed form vs the partition rows
# --------------------------------------------------------------------- #
#: Node counts off by a hair, by half a node, or below zero.
_VALUES = st.tuples(
    st.integers(-3, 12), st.sampled_from([0.0, 0.0, 1e-9, -1e-9, 2e-9, -2e-9, 0.5, -0.5])
).map(lambda pair: pair[0] + pair[1])
_PROFILES = st.lists(st.tuples(st.integers(1, 50), _VALUES), max_size=8).flatmap(
    lambda steps: _VALUES.map(
        lambda first: StepFunction(
            [0.0] + sorted({float(t) for t, _ in steps}),
            [first] + [v for _, v in sorted(dict(steps).items())],
        )
    )
)
_AVAILABLE = st.dictionaries(st.sampled_from(["a", "b", "c"]), _PROFILES, max_size=3).map(View)
_HORIZONS = st.one_of(
    st.none(), st.sampled_from([0.0, 1.0, 10.0, 50.0]), st.floats(0.0, 60.0, allow_nan=False)
)


def _lists(view):
    return {cid: (repr(cap._times), repr(cap._values)) for cid, cap in view.items()}


@settings(max_examples=300, deadline=None)
@given(available=_AVAILABLE, n_apps=st.integers(0, 12), horizon=_HORIZONS, strict=st.booleans())
def test_idle_closed_form_matches_the_partition_rows(available, n_apps, horizon, strict):
    sets = {f"app{i}": p_set() for i in range(n_apps)}
    closed = eq_schedule(sets, available, 0.0, horizon=horizon, strict=strict)
    rows = partition_schedule(
        sets,
        available,
        0.0,
        horizon=horizon,
        partition=lambda demands, capacity: _partition_interval(demands, capacity, strict),
    )
    assert list(closed) == list(rows)
    if not n_apps:
        assert closed == {}
        return
    shared = closed["app0"]
    assert all(view is shared for view in closed.values())
    assert _lists(shared) == _lists(rows["app0"])
    for cid in available:
        # The availability's own profile is handed on exactly where the rows do.
        assert (shared[cid] is available[cid]) == (rows["app0"][cid] is available[cid])


def test_strict_sharing_among_no_application_is_empty():
    available = View({"c": StepFunction([0.0, 10.0], [8, 3])})
    assert eq_schedule({}, available, 0.0, strict=True) == {}
    assert eq_schedule({}, available, 0.0, horizon=5.0) == {}


def test_idle_closed_form_never_calls_the_partition_rule(monkeypatch):
    def partition(demands, capacity, strict):
        raise AssertionError("no row is needed when nobody asks")

    monkeypatch.setattr("repro.core.eqschedule._partition_interval", partition)
    available = View({"c": StepFunction([0.0, 10.0], [8, 3]), "d": StepFunction.constant(4)})
    for strict in (False, True):
        views = eq_schedule({"a": p_set(), "b": p_set()}, available, 0.0, strict=strict)
        assert views["a"] is views["b"]
        # Filling hands the availability's profile on; strict shows 4 // 2 = 2.
        assert (views["a"]["d"] is available["d"]) == (not strict)
        assert views["a"]["c"].values == ((4.0, 1.0) if strict else (8.0, 3.0))


# --------------------------------------------------------------------- #
# Strict sharing computes no demands: against the partition rows
# --------------------------------------------------------------------- #
#: One request: its state, nodes, duration, cluster and how it hangs on the one before.
_REQUEST = st.tuples(
    st.sampled_from(["started", "finished", "pending"]),
    st.integers(1, 12),
    st.sampled_from([math.inf, 5.0, 30.0]),
    st.sampled_from(["a", "b"]),
    st.sampled_from(list(RelatedHow)),
)


def _strict_sets(apps):
    """Fresh request sets from drawn specs (each side of the comparison mutates its own)."""
    sets = {}
    for index, specs in enumerate(apps):
        requests, before = [], None
        for state, nodes, duration, cluster, how in specs:
            r = p_(nodes, duration, cluster, how if before else RelatedHow.FREE, before)
            if state != "pending":
                r.mark_started(float(len(requests)))
                if state == "finished":
                    r.mark_finished(3.0)
            requests.append(r)
            before = r
        sets[f"app{index}"] = p_set(*requests)
    return sets


@settings(max_examples=300, deadline=None)
@given(available=_AVAILABLE, apps=st.lists(st.lists(_REQUEST, max_size=3), max_size=4))
def test_strict_sharing_equals_the_strict_partition_rows(available, apps):
    new, ref = _strict_sets(apps), _strict_sets(apps)
    views = eq_schedule(new, available, 4.0, strict=True)
    rows = partition_schedule(
        ref, available, 4.0, partition=lambda demands, cap: _partition_interval(demands, cap, True)
    )
    assert list(views) == list(rows)
    for app_id in views:
        assert views[app_id] == rows[app_id]
        for r, expected in zip(new[app_id].scan(), ref[app_id].scan()):
            assert (r.scheduled_at, r.fixed) == (expected.scheduled_at, expected.fixed)
            # A request fit leaves unplaced keeps the n_alloc of whatever fit last
            # visited it -- for the rows, the preliminary fit strict sharing skips.
            # Only requests starting now have theirs read (by the RMS's node binding).
            if r.scheduled_at < math.inf:
                assert r.n_alloc == expected.n_alloc
