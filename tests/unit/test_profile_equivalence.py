"""Property tests: indexed StepFunction vs a pure-python reference.

The kernel overhaul replaced the linear-scan ``StepFunction`` internals with
bisect-indexed lookups, single-pass merges, in-place rectangle updates and a
delta-sweep builder.  These tests pin the new implementation against
``ReferenceStepFunction`` -- a deliberately naive reimplementation of the
original semantics (linear scans, point-evaluation merges) -- over random
breakpoint sets, including duplicate-time rectangles and infinite durations.
"""
from __future__ import annotations

import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Request, RequestType
from repro.core.cbf import CbfJob, ConservativeBackfillQueue
from repro.core.profile import StepBuilder, StepFunction
from repro.core.request_set import ApplicationRequests
from repro.core.scheduler import Scheduler
from repro.core.view import View
from repro.policies.backfill import EasyBackfillQueue

_EPS = 1e-9
_APPROX = 1e-6


class ReferenceStepFunction:
    """Naive step function on ``[0, inf)``: linear scans everywhere.

    Mirrors the documented semantics of :class:`StepFunction` (right
    continuity, value 0 before t=0, eps-compaction keeping the first value of
    every run) without any of the indexing tricks.
    """

    def __init__(self, times, values):
        assert times[0] == 0.0
        self.times = []
        self.values = []
        for t, v in zip(times, values):
            if self.values and abs(v - self.values[-1]) < _EPS:
                continue
            self.times.append(float(t))
            self.values.append(float(v))

    def value_at(self, t):
        if t < 0:
            return 0.0
        value = self.values[0]
        for bt, bv in zip(self.times, self.values):
            if bt <= t:
                value = bv
            else:
                break
        return value

    def min_over(self, start, end):
        if end <= start:
            return self.value_at(start)
        best = self.value_at(start)
        for bt, bv in zip(self.times, self.values):
            if start < bt < end and bv < best:
                best = bv
        if start < 0:
            best = min(best, 0.0)
        return best

    def integrate(self, start, end):
        if end <= start:
            return 0.0
        total = 0.0
        for i, (bt, bv) in enumerate(zip(self.times, self.values)):
            seg_end = self.times[i + 1] if i + 1 < len(self.times) else math.inf
            lo = max(bt, start)
            hi = min(seg_end, end)
            if hi <= lo:
                continue
            if math.isinf(hi):
                if abs(bv) < _EPS:
                    continue
                raise ValueError("non-zero to infinity")
            total += bv * (hi - lo)
        return total

    def combine(self, other, op):
        times = sorted(set(self.times) | set(other.times))
        values = [op(self.value_at(t), other.value_at(t)) for t in times]
        return ReferenceStepFunction(times, values)

    def add_rectangle(self, start, duration, height):
        if duration <= 0 or height == 0:
            return ReferenceStepFunction(self.times, self.values)
        end = start + duration
        new_edges = {float(start)} if math.isinf(end) else {float(start), float(end)}
        times = sorted(set(self.times) | new_edges)
        values = [
            self.value_at(t) + (height if start <= t and (math.isinf(end) or t < end) else 0.0)
            for t in times
        ]
        return ReferenceStepFunction(times, values)


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
_heights = st.integers(min_value=-8, max_value=8)
_starts = st.one_of(
    st.integers(min_value=0, max_value=40).map(float),
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False, width=32),
)
_durations = st.one_of(
    st.integers(min_value=1, max_value=30).map(float),
    st.floats(min_value=0.25, max_value=30.0, allow_nan=False, width=32),
    st.just(math.inf),
)
_rect = st.tuples(_starts, _durations, _heights)
_rects = st.lists(_rect, min_size=0, max_size=12)


def _build_pair(rects, base=0):
    """The same rectangle chain as an indexed profile and as a reference."""
    fast = StepFunction.constant(base)
    ref = ReferenceStepFunction([0.0], [float(base)])
    for start, duration, height in rects:
        fast = fast.add_rectangle(start, duration, height)
        ref = ref.add_rectangle(start, duration, height)
    return fast, ref


def _assert_profiles_match(fast: StepFunction, ref: ReferenceStepFunction):
    assert len(fast.times) == len(ref.times), (fast.times, ref.times)
    for a, b in zip(fast.times, ref.times):
        assert abs(a - b) < _APPROX
    for a, b in zip(fast.values, ref.values):
        assert abs(a - b) < _APPROX


# --------------------------------------------------------------------- #
# Point / window queries
# --------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(rects=_rects, probes=st.lists(st.floats(-5.0, 90.0, allow_nan=False), max_size=8))
def test_value_at_matches_reference(rects, probes):
    fast, ref = _build_pair(rects, base=4)
    _assert_profiles_match(fast, ref)
    for t in probes + list(fast.times):
        assert fast.value_at(t) == pytest.approx(ref.value_at(t), abs=_APPROX)


@settings(max_examples=200, deadline=None)
@given(
    rects=_rects,
    start=st.floats(-5.0, 80.0, allow_nan=False),
    width=st.floats(0.0, 50.0, allow_nan=False),
)
def test_min_over_matches_reference(rects, start, width):
    fast, ref = _build_pair(rects, base=4)
    assert fast.min_over(start, start + width) == pytest.approx(
        ref.min_over(start, start + width), abs=_APPROX
    )


@settings(max_examples=200, deadline=None)
@given(
    rects=_rects,
    start=st.floats(0.0, 80.0, allow_nan=False),
    width=st.floats(0.0, 50.0, allow_nan=False),
)
def test_integrate_matches_reference(rects, start, width):
    fast, ref = _build_pair(rects)  # base 0: eventually-zero tails are common
    assert fast.integrate(start, start + width) == pytest.approx(
        ref.integrate(start, start + width), abs=1e-4
    )


@settings(max_examples=100, deadline=None)
@given(rects=_rects)
def test_integrate_to_infinity_matches_reference(rects):
    fast, ref = _build_pair(rects)
    try:
        expected = ref.integrate(0.0, math.inf)
    except ValueError:
        from repro.core.errors import ProfileError

        with pytest.raises(ProfileError):
            fast.integrate(0.0, math.inf)
        return
    assert fast.integrate(0.0, math.inf) == pytest.approx(expected, abs=1e-4)


# --------------------------------------------------------------------- #
# Merge algebra
# --------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(rects_a=_rects, rects_b=_rects)
def test_combine_ops_match_reference(rects_a, rects_b):
    fa, ra = _build_pair(rects_a, base=3)
    fb, rb = _build_pair(rects_b, base=2)
    import operator

    for fast_op, op in (
        (fa + fb, operator.add),
        (fa - fb, operator.sub),
        (fa.maximum(fb), max),
        (fa.minimum(fb), min),
    ):
        _assert_profiles_match(fast_op, ra.combine(rb, op))


#: Values a hair apart, so that sums build eps-equal runs to compact.
_near_values = st.tuples(
    st.integers(-4, 8), st.sampled_from([0.0, 0.0, 4e-10, -4e-10, 9e-10, -9e-10, 1.5e-9, 0.5])
).map(lambda pair: pair[0] + pair[1])
_profiles = st.one_of(
    st.just(StepFunction.zero()),
    st.lists(st.tuples(st.integers(1, 30), _near_values), max_size=10).flatmap(
        lambda steps: _near_values.map(
            lambda first: StepFunction(
                [0.0] + sorted({float(t) for t, _ in steps}),
                [first] + [v for _, v in sorted(dict(steps).items())],
            )
        )
    ),
    _rects.map(lambda rects: _build_pair(rects)[0]),
)


def _lists(profile):
    return profile._times, profile._values


def _previous_walk(a, b, op):
    """The merge ``_combine`` made before its three-way advance, step for step."""
    ta, va, tb, vb = a._times, a._values, b._times, b._values
    times, values = [], []
    ia = ib = 0
    cur_a, cur_b = va[0], vb[0]
    last_v = None
    while ia < len(ta) or ib < len(tb):
        t = ta[ia] if ib >= len(tb) or (ia < len(ta) and ta[ia] <= tb[ib]) else tb[ib]
        if ia < len(ta) and ta[ia] == t:
            cur_a = va[ia]
            ia += 1
        if ib < len(tb) and tb[ib] == t:
            cur_b = vb[ib]
            ib += 1
        v = op(cur_a, cur_b)
        if last_v is not None and abs(v - last_v) < _EPS:
            continue
        times.append(t)
        values.append(v)
        last_v = v
    return times, values


@settings(max_examples=300, deadline=None)
@given(a=_profiles, b=_profiles)
def test_merge_kernel_matches_the_previous_walk(a, b):
    snapshot = repr((_lists(a), _lists(b)))
    for op in (operator.add, operator.sub, max, min):
        assert repr(_lists(a._combine(b, op))) == repr(_previous_walk(a, b, op))
    for result, op in ((a + b, operator.add), (a - b, operator.sub)):
        expected = a._combine(b, op)
        assert _lists(result) == _lists(expected)
        if result is not a and result is not b:  # no identity shortcut: bit for bit
            assert repr(_lists(result)) == repr(_lists(expected))
    assert repr((_lists(a), _lists(b))) == snapshot


def test_merge_kernel_keeps_the_first_value_of_an_eps_run():
    a = StepFunction([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    b = StepFunction([0.0, 1.0, 2.0, 3.0], [0.0, -1.0 + 4e-10, -2.0 + 8e-10, -3.0 + 5e-9])
    assert _lists(a + b) == ([0.0, 3.0], [1.0, 4.0 + (-3.0 + 5e-9)])
    assert _lists(a + b) == _previous_walk(a, b, operator.add)
    zero = StepFunction.zero()
    assert a + zero is a and zero + a is a and a - zero is a
    assert _lists(zero - a) == ([0.0, 1.0, 2.0, 3.0], [-1.0, -2.0, -3.0, -4.0])


@settings(max_examples=150, deadline=None)
@given(
    caps_a=st.dictionaries(st.sampled_from(["a", "b", "c"]), _profiles, max_size=3),
    caps_b=st.dictionaries(st.sampled_from(["a", "b", "c"]), _profiles, max_size=3),
    same_clusters=st.booleans(),
)
def test_view_merges_match_a_per_cluster_reference(caps_a, caps_b, same_clusters):
    if same_clusters:
        caps_b = {cid: caps_b.get(cid, StepFunction.constant(1)) for cid in caps_a}
    view, other = View(caps_a), View(caps_b)

    def snapshot():
        return [
            (cid, id(cap), repr(_lists(cap)))
            for operand in (view, other)
            for cid, cap in operand._caps.items()
        ]

    before = snapshot()
    for result, op in (
        (view + other, operator.add),
        (view - other, operator.sub),
        (view.union(other), StepFunction.maximum),
    ):
        for cid in set(caps_a) | set(caps_b):
            assert _lists(result[cid]) == _lists(op(view[cid], other[cid])), cid
        # Operand key order: the left operand's clusters, then the others.
        assert list(result._caps) == list(caps_a) + [c for c in caps_b if c not in caps_a]
    assert snapshot() == before  # neither operand changed


@settings(max_examples=150, deadline=None)
@given(rects=_rects, start=_starts, duration=_durations, height=_heights)
def test_rectangle_ops_match_reference(rects, start, duration, height):
    fast, ref = _build_pair(rects, base=5)
    _assert_profiles_match(fast.add_rectangle(start, duration, height),
                           ref.add_rectangle(start, duration, height))
    _assert_profiles_match(fast.subtract_rectangle(start, duration, height),
                           ref.add_rectangle(start, duration, -height))


# --------------------------------------------------------------------- #
# Duplicate-time and infinity edge cases, pinned explicitly
# --------------------------------------------------------------------- #
def test_duplicate_time_rectangles_collapse():
    fast, ref = _build_pair([(10.0, 5.0, 3), (10.0, 5.0, -3), (10.0, 5.0, 2)], base=4)
    _assert_profiles_match(fast, ref)
    assert fast.value_at(10.0) == pytest.approx(6.0)
    assert fast.value_at(15.0) == pytest.approx(4.0)


def test_infinite_rectangle_tail():
    fast, ref = _build_pair([(7.0, math.inf, 2), (3.0, 4.0, 1)], base=1)
    _assert_profiles_match(fast, ref)
    assert fast.value_at(1e12) == pytest.approx(3.0)


def test_min_over_negative_start_sees_zero():
    profile = StepFunction.constant(5)
    assert profile.min_over(-2.0, 1.0) == 0.0
    assert profile.value_at(-0.5) == 0.0


# --------------------------------------------------------------------- #
# In-place ops and the builder against the functional chain
# --------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(rects=_rects)
def test_in_place_matches_functional_chain(rects):
    functional = StepFunction.constant(6)
    in_place = StepFunction.constant(6)
    for start, duration, height in rects:
        functional = functional.add_rectangle(start, duration, height)
        in_place.add_rectangle_in_place(start, duration, height)
    assert in_place.times == functional.times
    assert in_place.values == functional.values


@settings(max_examples=200, deadline=None)
@given(rects=_rects)
def test_builder_matches_sequential_chain(rects):
    chained = StepFunction.zero()
    builder = StepBuilder()
    for start, duration, height in rects:
        chained = chained.add_rectangle(start, duration, height)
        builder.add_rectangle(start, duration, height)
    built = builder.build()
    assert len(built.times) == len(chained.times)
    for a, b in zip(built.times, chained.times):
        assert abs(a - b) < _APPROX
    for a, b in zip(built.values, chained.values):
        assert abs(a - b) < _APPROX


@settings(max_examples=150, deadline=None)
@given(rects=_rects, probe=st.floats(0.0, 90.0, allow_nan=False))
def test_copy_is_independent(rects, probe):
    original = StepFunction.constant(4)
    for start, duration, height in rects:
        original.add_rectangle_in_place(start, duration, height)
    snapshot = original.copy()
    original.subtract_rectangle_in_place(0.0, math.inf, 1)
    assert snapshot.value_at(probe) == pytest.approx(original.value_at(probe) + 1, abs=_APPROX)


# --------------------------------------------------------------------- #
# Identity laws: the operators may hand back an operand
# --------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(rects=_rects, base=st.integers(-3, 6), below=st.integers(0, 4))
def test_identity_laws_match_reference(rects, base, below):
    import operator

    fast, ref = _build_pair(rects, base=base)
    zero, ref_zero = StepFunction.zero(), ReferenceStepFunction([0.0], [0.0])
    snapshot = (fast.times, fast.values)
    for result, expected in (
        (fast + zero, ref.combine(ref_zero, operator.add)),
        (zero + fast, ref_zero.combine(ref, operator.add)),
        (fast - zero, ref.combine(ref_zero, operator.sub)),
    ):
        # An operand comes back; which one only matters when both are zero.
        assert result is fast or (result is zero and fast.is_zero())
        _assert_profiles_match(result, expected)
    # ``0 - a`` is a negation, not an identity.
    _assert_profiles_match(zero - fast, ref_zero.combine(ref, operator.sub))

    floor = fast.min_value() - below
    assert fast.clip_low(floor) is fast
    _assert_profiles_match(
        fast.clip_low(floor), ReferenceStepFunction(ref.times, [max(v, floor) for v in ref.values])
    )
    if fast.min_value() < fast.max_value():
        clipped = fast.clip_low(floor + below + 1)
        assert clipped is not fast
        rebuilt = StepFunction(fast.times, [max(v, floor + below + 1) for v in fast.values])
        assert (clipped._times, clipped._values) == (rebuilt._times, rebuilt._values)  # bit for bit
        _assert_profiles_match(
            clipped,
            ReferenceStepFunction(ref.times, [max(v, floor + below + 1) for v in ref.values]),
        )
    assert (fast.times, fast.values) == snapshot


@settings(max_examples=100, deadline=None)
@given(rects_a=_rects, rects_b=_rects)
def test_view_identity_laws(rects_a, rects_b):
    pa, _ = _build_pair(rects_a, base=3)
    pb, _ = _build_pair(rects_b, base=2)
    view, other, empty = View({"a": pa, "b": pb}), View({"b": pa}), View.empty()
    assert view + empty is view
    assert empty + view is view
    assert view - empty is view
    assert view.clip_low(min(pa.min_value(), pb.min_value())) is view
    assert (empty - view)["a"] == StepFunction.zero() - pa
    # A cluster only one operand knows keeps that operand's profile object.
    assert (view + other)["a"] is pa
    assert (view - other)["a"] is pa
    assert (view + other)["b"] == pb + pa
    clipped = view.clip_low(pa.min_value() + 1)
    assert clipped["a"] == pa.clip_low(pa.min_value() + 1)
    assert view["a"] is pa and view["b"] is pb


def test_equality_short_circuits_on_identity():
    class Unequal(float):
        """A value that compares unequal even to itself (like NaN)."""

        def __sub__(self, other):
            return math.nan

    profile = StepFunction.constant(4)
    profile._values[0] = Unequal(4.0)
    assert not abs(profile._values[0] - profile._values[0]) < _EPS
    assert profile == profile
    assert View({"a": profile}) == View({"a": profile})


# --------------------------------------------------------------------- #
# Aliasing guards: returning an operand is safe only while nobody mutates
# a profile they did not construct
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("queue_class", [ConservativeBackfillQueue, EasyBackfillQueue])
def test_queue_updates_never_reach_profiles_handed_out(queue_class):
    queue = queue_class(8)
    queue.submit(CbfJob("first", 3, 10.0))
    handed_out = queue.availability
    zero = StepFunction.zero()
    # With the identity laws every one of these *is* ``handed_out``.
    derived = [handed_out + zero, zero + handed_out, handed_out - zero, handed_out.clip_low(0.0)]
    assert all(profile is handed_out for profile in derived)
    snapshot = (handed_out.times, handed_out.values)

    job = CbfJob("second", 5, 20.0)
    queue.submit(job)
    if queue_class is ConservativeBackfillQueue:
        queue.complete_early(job, job.start_time + 5.0)
    assert (handed_out.times, handed_out.values) == snapshot
    assert queue.availability != handed_out
    assert queue.availability is not queue.availability


def test_scheduler_full_view_survives_passes():
    """The full-platform view is the first operand of every pass."""
    capacity = {"a": 8, "b": 4}
    for policy in ("coorm", "easy", "coorm-strict", "maxmin-weighted"):
        scheduler = Scheduler(capacity, policy=policy)
        applications = {name: ApplicationRequests(name) for name in ("idle", "rigid", "psa")}
        applications["rigid"].add(Request("a", 6, 30.0, RequestType.NON_PREEMPTIBLE))
        applications["psa"].add(Request("b", 4, math.inf, RequestType.PREEMPTIBLE))
        for now in (0.0, 10.0, 40.0):
            result = scheduler.schedule(applications, now)
            for request in result.to_start:
                request.mark_started(now)
            if now == 0.0:
                # Nothing has started: the first application is handed the
                # full-platform view itself, not a copy.
                assert result.non_preemptive_views["idle"] is scheduler.full_view()
            assert scheduler.full_view() == View.constant(capacity)
            assert scheduler.full_view()["a"].times == (0.0,)
