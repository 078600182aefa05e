"""Step-function Cluster Availability Profiles (CAPs).

The paper (Sections 3.1.4 and A.3) represents resource availability as a step
function: the x-axis is absolute time, the y-axis is a node count.  Views are
per-cluster collections of such profiles and every scheduling primitive of
CooRMv2 (``toView``, ``fit``, ``eqSchedule``, Conservative Back-Filling)
manipulates them.

This module provides :class:`StepFunction`, an immutable-by-convention
piecewise-constant function on ``[0, +inf)`` with the algebra the paper
requires:

* point evaluation (``cap(t)`` in the paper),
* ``+``, ``-``, pointwise ``max`` (the paper's union) and ``min``,
* clipping at zero,
* minimum over a time window,
* ``find_hole`` -- earliest time a rectangle of ``n`` nodes x ``duration``
  seconds fits below the profile,
* rectangle addition / subtraction,
* integration (node-seconds) over a window.

The representation is a compact list of breakpoints: ``times[i]`` is the start
of segment ``i`` and ``values[i]`` its constant value; the last segment
extends to ``+inf``.  ``times[0]`` is always ``0.0``.

Complexity contract (the simulation hot path leans on it):

* ``value_at`` / ``min_over`` / ``integrate`` are O(log n) + output size,
  via :mod:`bisect` over the breakpoint array;
* ``+`` / ``-`` / ``maximum`` / ``minimum`` are single-pass O(n + m) merges;
* ``find_hole`` is a single O(n) sweep (it was O(n^2));
* :class:`StepBuilder` accumulates many rectangles and materialises the sum
  in one O(k log k) sweep instead of k full merges;
* the private in-place rectangle ops let owners such as the CBF queue update
  an availability profile without reallocating it.

Exactness note: every transformation here computes segment values with the
same floating-point operations (and, for builders, integer-valued heights) as
the equivalent chain of immutable operations, so replacing one with the other
never changes results -- the golden regression suite pins this.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Iterable, Iterator, List, Sequence, Tuple

from .errors import ProfileError
from .types import Time

__all__ = ["StepFunction", "StepBuilder"]

_EPS = 1e-9


class StepFunction:
    """A right-continuous piecewise-constant function of time.

    Values are numeric (node counts in almost all uses).  Instances should be
    treated as immutable.  Arithmetic never changes an operand, but it may
    *return* one: ``a + 0``, ``0 + a``, ``a - 0`` and a ``clip_low`` that
    clips nothing hand back ``a`` itself.  The ``*_in_place`` helpers are the
    one sanctioned exception; call them only on a profile you constructed or
    ``copy()``-ed yourself (e.g. the CBF queue's availability), never on one
    obtained from an operator, a view or somebody else's property.

    Parameters
    ----------
    times:
        Segment start times.  Must be strictly increasing and start at 0.
    values:
        Segment values, same length as *times*.
    """

    __slots__ = ("_times", "_values")

    def __init__(self, times: Sequence[Time] = (0.0,), values: Sequence[float] = (0.0,)):
        times = [float(t) for t in times]
        values = [float(v) for v in values]
        if len(times) != len(values):
            raise ProfileError("times and values must have the same length")
        if not times:
            times, values = [0.0], [0.0]
        if times[0] != 0.0:
            raise ProfileError("the first breakpoint must be at t=0")
        for i in range(1, len(times)):
            if times[i] <= times[i - 1]:
                raise ProfileError("breakpoints must be strictly increasing")
            if not math.isfinite(times[i]):
                raise ProfileError("breakpoints must be finite")
        self._times = times
        self._values = values
        self._compact()

    @classmethod
    def _from_compacted(
        cls, times: List[Time], values: List[float]
    ) -> "StepFunction":
        """Internal fast constructor: *times*/*values* are adopted as-is.

        The caller guarantees strictly increasing finite times starting at
        0.0 and already-compacted values (no adjacent pair within ``_EPS``).
        """
        self = object.__new__(cls)
        self._times = times
        self._values = values
        return self

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def constant(cls, value: float) -> "StepFunction":
        """A profile equal to *value* everywhere."""
        return cls._from_compacted([0.0], [float(value)])

    @classmethod
    def zero(cls) -> "StepFunction":
        """The everywhere-zero profile."""
        return cls.constant(0.0)

    @classmethod
    def from_duration_pairs(cls, pairs: Iterable[Tuple[Time, float]]) -> "StepFunction":
        """Build a profile from the paper's ``[(duration, value), ...]`` form.

        The profile takes the listed values for the listed durations starting
        at ``t = 0`` and is 0 afterwards.  For example
        ``[(3600, 4), (3600, 3)]`` means 4 nodes during the first hour, 3
        during the second and none afterwards.
        """
        times: List[Time] = [0.0]
        values: List[float] = []
        t = 0.0
        for duration, value in pairs:
            if duration <= 0:
                raise ProfileError("durations must be positive")
            values.append(float(value))
            t += float(duration)
            times.append(t)
        values.append(0.0)
        return cls(times, values)

    @classmethod
    def rectangle(cls, start: Time, duration: Time, height: float) -> "StepFunction":
        """A profile that is *height* on ``[start, start+duration)`` and 0 elsewhere."""
        if duration < 0:
            raise ProfileError("duration must be non-negative")
        if start < 0:
            raise ProfileError("start must be non-negative")
        if duration == 0 or height == 0:
            return cls.zero()
        if math.isinf(duration):
            if start == 0:
                return cls.constant(height)
            return cls([0.0, float(start)], [0.0, float(height)])
        if start == 0:
            return cls([0.0, float(duration)], [float(height), 0.0])
        return cls([0.0, float(start), float(start + duration)], [0.0, float(height), 0.0])

    def copy(self) -> "StepFunction":
        """An independent copy (snapshot of an in-place-updated profile)."""
        return StepFunction._from_compacted(list(self._times), list(self._values))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def times(self) -> Tuple[Time, ...]:
        """Segment start times (read-only)."""
        return tuple(self._times)

    @property
    def values(self) -> Tuple[float, ...]:
        """Segment values (read-only)."""
        return tuple(self._values)

    def segments(self) -> Iterator[Tuple[Time, Time, float]]:
        """Yield ``(start, end, value)`` triples; the last end is ``+inf``."""
        for i, (t, v) in enumerate(zip(self._times, self._values)):
            end = self._times[i + 1] if i + 1 < len(self._times) else math.inf
            yield t, end, v

    def breakpoints(self) -> Tuple[Time, ...]:
        """Alias of :attr:`times`, matching scheduler terminology."""
        return self.times

    def is_zero(self) -> bool:
        """True if the profile is 0 everywhere."""
        return all(abs(v) < _EPS for v in self._values)

    def is_non_negative(self) -> bool:
        """True if the profile never goes below zero."""
        return all(v >= -_EPS for v in self._values)

    def max_value(self) -> float:
        """The maximum value taken anywhere."""
        return max(self._values)

    def min_value(self) -> float:
        """The minimum value taken anywhere."""
        return min(self._values)

    def _compact(self) -> None:
        """Merge adjacent segments with equal values (in place, constructor only)."""
        times: List[Time] = [self._times[0]]
        values: List[float] = [self._values[0]]
        for t, v in zip(self._times[1:], self._values[1:]):
            if abs(v - values[-1]) < _EPS:
                continue
            times.append(t)
            values.append(v)
        self._times = times
        self._values = values

    # ------------------------------------------------------------------ #
    # Point and window queries
    # ------------------------------------------------------------------ #
    def __call__(self, t: Time) -> float:
        """Value at time *t* (the paper's ``cap(t)``)."""
        return self.value_at(t)

    def value_at(self, t: Time) -> float:
        """Value at time *t*; times before 0 evaluate as 0."""
        if t < 0:
            return 0.0
        return self._values[bisect_right(self._times, t) - 1]

    def min_over(self, start: Time, end: Time) -> float:
        """Minimum value over ``[start, end)``.

        An empty window (``end <= start``) returns the value at *start*.
        """
        if end <= start:
            return self.value_at(start)
        times = self._times
        # Segments covering [start, end): the one containing start plus every
        # breakpoint strictly inside the window.
        lo = bisect_right(times, start) - 1
        hi = bisect_left(times, end, lo + 1)
        if lo < 0:
            # start < 0 evaluates as 0, like value_at.
            best = 0.0
            lo = 0
        else:
            best = self._values[lo]
            lo += 1
        values = self._values
        for i in range(lo, hi):
            v = values[i]
            if v < best:
                best = v
        return best

    def integrate(self, start: Time = 0.0, end: Time = math.inf) -> float:
        """Integral (value x time, i.e. node-seconds) over ``[start, end)``.

        Integrating to ``+inf`` is allowed only if the profile is eventually
        zero; otherwise :class:`ProfileError` is raised.
        """
        if end <= start:
            return 0.0
        times, values = self._times, self._values
        n = len(times)
        # First segment overlapping [start, end) and first segment at/after end.
        first = max(bisect_right(times, start) - 1, 0)
        total = 0.0
        for i in range(first, n):
            seg_start = times[i]
            seg_end = times[i + 1] if i + 1 < n else math.inf
            lo = seg_start if seg_start > start else start
            hi = seg_end if seg_end < end else end
            if hi <= lo:
                if seg_start >= end:
                    break
                continue
            value = values[i]
            if math.isinf(hi):
                if abs(value) < _EPS:
                    continue
                raise ProfileError("cannot integrate a non-zero profile to infinity")
            total += value * (hi - lo)
        return total

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def _combine(self, other: "StepFunction", op) -> "StepFunction":
        """Single-pass merge: O(n + m), no intermediate point evaluations.

        Both profiles start at ``0.0``; every later breakpoint advances the
        operand it belongs to, or both when they coincide.
        """
        ta, va = self._times, self._values
        tb, vb = other._times, other._values
        na, nb = len(ta), len(tb)
        cur_a, cur_b = va[0], vb[0]
        last_v = op(cur_a, cur_b)
        times: List[Time] = [ta[0]]
        values: List[float] = [last_v]
        ia = ib = 1
        while ia < na or ib < nb:
            if ib == nb or (ia < na and ta[ia] < tb[ib]):
                t, cur_a = ta[ia], va[ia]
                ia += 1
            elif ia == na or tb[ib] < ta[ia]:
                t, cur_b = tb[ib], vb[ib]
                ib += 1
            else:
                t, cur_a, cur_b = ta[ia], va[ia], vb[ib]
                ia += 1
                ib += 1
            v = op(cur_a, cur_b)
            # Inline compaction, identical to _compact: keep the first value
            # of every eps-equal run.
            if abs(v - last_v) < _EPS:
                continue
            times.append(t)
            values.append(v)
            last_v = v
        return StepFunction._from_compacted(times, values)

    def _is_identity(self) -> bool:
        """True for the constant 0.0 profile, the identity of ``+`` / ``-``."""
        return len(self._values) == 1 and self._values[0] == 0.0

    def __add__(self, other: "StepFunction") -> "StepFunction":
        if other._is_identity():
            return self
        if self._is_identity():
            return other
        return self._combine(other, operator.add)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        if other._is_identity():
            return self
        return self._combine(other, operator.sub)

    def maximum(self, other: "StepFunction") -> "StepFunction":
        """Pointwise maximum (the paper's view union)."""
        return self._combine(other, max)

    def minimum(self, other: "StepFunction") -> "StepFunction":
        """Pointwise minimum."""
        return self._combine(other, min)

    def scale(self, factor: float) -> "StepFunction":
        """Multiply every value by *factor*."""
        return StepFunction(list(self._times), [v * factor for v in self._values])

    def shift_value(self, delta: float) -> "StepFunction":
        """Add the scalar *delta* to every value."""
        return StepFunction(list(self._times), [v + delta for v in self._values])

    def clip_low(self, floor: float = 0.0) -> "StepFunction":
        """Clamp every value to be at least *floor*."""
        values = self._values
        if min(values) >= floor:
            return self
        # What the constructor would make of the clamped values: compacted here.
        times, kept = [0.0], [float(max(values[0], floor))]
        for t, v in zip(islice(self._times, 1, None), islice(values, 1, None)):
            v = float(max(v, floor))
            if abs(v - kept[-1]) >= _EPS:
                times.append(t)
                kept.append(v)
        return StepFunction._from_compacted(times, kept)

    def clip_high(self, ceiling: float) -> "StepFunction":
        """Clamp every value to be at most *ceiling*."""
        return StepFunction(list(self._times), [min(v, ceiling) for v in self._values])

    def add_rectangle(self, start: Time, duration: Time, height: float) -> "StepFunction":
        """Return this profile plus a rectangle (used when placing a request)."""
        if duration <= 0 or height == 0:
            return StepFunction(list(self._times), list(self._values))
        return self + StepFunction.rectangle(start, duration, height)

    def subtract_rectangle(self, start: Time, duration: Time, height: float) -> "StepFunction":
        """Return this profile minus a rectangle (used when consuming capacity)."""
        return self.add_rectangle(start, duration, -height)

    def floor(self) -> "StepFunction":
        """Round every value down to the nearest integer."""
        return StepFunction(list(self._times), [math.floor(v + _EPS) for v in self._values])

    # ------------------------------------------------------------------ #
    # In-place updates (owners only -- see the class docstring)
    # ------------------------------------------------------------------ #
    def add_rectangle_in_place(self, start: Time, duration: Time, height: float) -> None:
        """Mutate this profile: add a rectangle without reallocating.

        Produces exactly the state :meth:`add_rectangle` would return, but in
        O(log n + segments touched) with no intermediate profiles.  Reserved
        for sole owners of the instance (incremental availability tracking);
        sharing a mutated profile breaks the immutability convention every
        other caller relies on.
        """
        if duration <= 0 or height == 0:
            return
        if start < 0:
            raise ProfileError("start must be non-negative")
        times, values = self._times, self._values

        # Ensure a breakpoint at `start`; remember the first affected index.
        i = bisect_right(times, start)
        if times[i - 1] == start:
            start_idx = i - 1
        else:
            times.insert(i, float(start))
            values.insert(i, values[i - 1])
            start_idx = i

        if math.isinf(duration):
            end_idx = len(times)
        else:
            end = start + duration
            j = bisect_right(times, end, start_idx)
            if times[j - 1] == end:
                end_idx = j - 1
            else:
                times.insert(j, float(end))
                values.insert(j, values[j - 1])
                end_idx = j

        for k in range(start_idx, end_idx):
            values[k] += height

        # Only the two junctions can have become eps-equal: interior
        # neighbours moved by the same height, exterior ones did not move.
        # Check the right junction first so the left-junction indices stay
        # valid after a potential deletion.
        if 0 < end_idx < len(times) and abs(values[end_idx] - values[end_idx - 1]) < _EPS:
            del times[end_idx]
            del values[end_idx]
        if 0 < start_idx and abs(values[start_idx] - values[start_idx - 1]) < _EPS:
            del times[start_idx]
            del values[start_idx]

    def subtract_rectangle_in_place(self, start: Time, duration: Time, height: float) -> None:
        """Mutate this profile: subtract a rectangle (see :meth:`add_rectangle_in_place`)."""
        self.add_rectangle_in_place(start, duration, -height)

    # ------------------------------------------------------------------ #
    # Scheduling primitives
    # ------------------------------------------------------------------ #
    def find_hole(self, n: float, duration: Time, earliest: Time = 0.0) -> Time:
        """Earliest ``t >= earliest`` such that the profile is >= *n* on
        ``[t, t + duration)``.

        This is the paper's ``findHole`` restricted to one cluster.  Returns
        ``math.inf`` if no such time exists (the request "never" starts).
        A zero-node or zero-duration request fits at *earliest* immediately.

        Single left-to-right sweep over the segments: a candidate start is
        only ever abandoned for the next segment that satisfies the node
        requirement, so every segment is visited at most once.
        """
        if n <= 0 or duration <= 0:
            return max(0.0, earliest)
        earliest = max(0.0, earliest)
        times, values = self._times, self._values
        m = len(times)
        need = n - _EPS

        if math.isinf(duration):
            # The profile must stay >= n forever starting at t: find the
            # start of the last all-satisfying suffix of segments.
            if values[-1] < need:
                return math.inf
            idx = m
            while idx > 0 and values[idx - 1] >= need:
                idx -= 1
            if idx == 0:
                return earliest
            return max(earliest, times[idx])

        t = earliest
        i = bisect_right(times, t) - 1  # segment containing the candidate
        while True:
            if values[i] < need:
                # The window starting at any time in this segment is blocked;
                # advance to the next segment that satisfies the requirement.
                i += 1
                while i < m and values[i] < need:
                    i += 1
                if i >= m:
                    return math.inf
                t = times[i]
                continue
            seg_end = times[i + 1] if i + 1 < m else math.inf
            if seg_end >= t + duration:
                return t
            i += 1

    def alloc_limit(self, start: Time, duration: Time, requested: float) -> float:
        """How many nodes can be granted on ``[start, start+duration)``.

        This is the paper's ``alloc`` on one cluster: the minimum of the
        requested node count and the availability over the window.  Never
        negative.
        """
        if duration <= 0:
            return max(0.0, min(requested, self.value_at(start)))
        available = self.min_over(start, start + duration)
        return max(0.0, min(requested, available))

    # ------------------------------------------------------------------ #
    # Dunder glue
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, StepFunction):
            return NotImplemented
        if len(self._times) != len(other._times):
            return False
        # Exactly equal lists (integer node counts at the same times) need no walk.
        if self._times == other._times and self._values == other._values:
            return True
        return all(
            abs(t1 - t2) < _EPS and abs(v1 - v2) < _EPS
            for t1, t2, v1, v2 in zip(self._times, other._times, self._values, other._values)
        )

    #: Equality is tolerant (``_EPS``), so no hash can agree with it; memoise on ``id``.
    __hash__ = None

    def __repr__(self) -> str:
        parts = ", ".join(f"[{t:g}:{v:g}]" for t, v in zip(self._times, self._values))
        return f"StepFunction({parts})"

    def to_duration_pairs(self, horizon: Time) -> List[Tuple[Time, float]]:
        """Export as the paper's ``[(duration, value), ...]`` form up to *horizon*."""
        pairs: List[Tuple[Time, float]] = []
        for start, end, value in self.segments():
            if start >= horizon:
                break
            pairs.append((min(end, horizon) - start, value))
        return pairs


class StepBuilder:
    """Accumulate rectangles and materialise their sum as one profile.

    Replaces chains of ``profile = profile.add_rectangle(...)`` (each a full
    merge allocating a new profile) with one delta sweep: O(k log k) for k
    rectangles instead of O(k^2).  With integer-valued heights -- node counts
    everywhere in the scheduler -- the result is bit-identical to the
    sequential chain, which the profile-equivalence property tests pin.
    """

    __slots__ = ("_deltas",)

    def __init__(self) -> None:
        # time -> accumulated height delta at that breakpoint; rectangles of
        # infinite duration contribute a start delta only.
        self._deltas: dict = {}

    def add_rectangle(self, start: Time, duration: Time, height: float) -> None:
        """Add a rectangle of *height* on ``[start, start + duration)``."""
        if duration <= 0 or height == 0:
            return
        start = float(start)
        deltas = self._deltas
        deltas[start] = deltas.get(start, 0.0) + height
        if math.isinf(duration):
            return
        end = float(start + duration)
        deltas[end] = deltas.get(end, 0.0) - height

    def is_empty(self) -> bool:
        """True when no rectangle has been added."""
        return not self._deltas

    def build(self) -> StepFunction:
        """The sum of every added rectangle, as an immutable profile."""
        deltas = self._deltas
        if len(deltas) < 2:  # nothing, or open-ended rectangles of one start
            if not deltas:
                return _SHARED_ZERO
            ((t, height),) = deltas.items()
            level = 0.0 + height  # the sweep's float, and its base on [0, t) is 0.0
            if t == 0.0:
                return StepFunction._from_compacted([0.0], [level])
            if abs(level) < _EPS:
                return StepFunction._from_compacted([0.0], [0.0])
            return StepFunction._from_compacted([0.0, t], [0.0, level])
        times: List[Time] = [0.0]
        values: List[float] = []
        level = 0.0
        last_kept = None
        for t in sorted(self._deltas):
            level += self._deltas[t]
            if t == 0.0:
                continue
            if last_kept is None:
                # First breakpoint after 0: the value on [0, t) is whatever
                # the deltas at 0 accumulated (0 if none).
                base = level - self._deltas[t]
                values.append(base)
                last_kept = base
            if abs(level - last_kept) < _EPS:
                continue
            times.append(t)
            values.append(level)
            last_kept = level
        if last_kept is None:
            # Only deltas at t=0 (infinite rectangles starting at 0).
            values.append(level)
        return StepFunction._from_compacted(times, values)


#: Shared zero profile: safe because profiles are immutable by convention.
_SHARED_ZERO = StepFunction.zero()
