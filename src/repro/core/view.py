"""Views: per-cluster resource availability presented to applications.

A view (paper Sections 3.1.4 and A.3) maps a cluster ID to a Cluster
Availability Profile (a :class:`~repro.core.profile.StepFunction`).  The RMS
computes two views per application:

* the **non-preemptive view** ``V_{¬P}`` -- availability for pre-allocations
  and non-preemptible requests, and
* the **preemptive view** ``V_P`` -- availability for preemptible requests.

This module implements the view algebra of Appendix A.3: union (pointwise
max), sum, difference, ``alloc`` and ``findHole``.
"""
from __future__ import annotations

import math
import operator
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from .errors import ViewError
from .profile import StepBuilder, StepFunction
from .types import ClusterId, Time

__all__ = ["View", "ViewBuilder"]

#: Shared zero profile handed out for absent clusters.  Profiles are
#: immutable by convention, so one instance can safely back every miss --
#: this keeps the (very hot) ``view[cid]`` lookup allocation-free.
_ZERO = StepFunction.zero()


class View:
    """A mapping of cluster IDs to availability profiles.

    Missing clusters evaluate as the zero profile, so views over different
    cluster sets combine naturally.  Like :class:`StepFunction`, views are
    treated as immutable.  Operators never change an operand but may return
    one (``v + ∅``, ``∅ + v``, ``v - ∅``, a ``clip_low`` that clips nothing),
    and distinct views may share profile objects: never mutate a profile
    reached through a view.
    """

    __slots__ = ("_caps",)

    def __init__(self, caps: Optional[Mapping[ClusterId, StepFunction]] = None):
        self._caps: Dict[ClusterId, StepFunction] = {}
        if caps:
            for cid, cap in caps.items():
                if not isinstance(cap, StepFunction):
                    raise ViewError(f"cluster {cid!r}: expected a StepFunction")
                self._caps[cid] = cap

    @classmethod
    def _adopt(cls, caps: Dict[ClusterId, StepFunction]) -> "View":
        """Internal fast constructor: a fresh dict of profiles, adopted unchecked."""
        self = object.__new__(cls)
        self._caps = caps
        return self

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "View":
        """A view with no clusters (zero availability everywhere)."""
        return cls()

    @classmethod
    def constant(cls, node_counts: Mapping[ClusterId, int]) -> "View":
        """A view where each cluster offers a constant node count forever."""
        return cls({cid: StepFunction.constant(n) for cid, n in node_counts.items()})

    @classmethod
    def from_duration_pairs(
        cls, pairs: Mapping[ClusterId, Iterable[Tuple[Time, float]]]
    ) -> "View":
        """Build a view from the paper's per-cluster ``[(duration, n), ...]`` form."""
        return cls({cid: StepFunction.from_duration_pairs(p) for cid, p in pairs.items()})

    # ------------------------------------------------------------------ #
    # Mapping-like access
    # ------------------------------------------------------------------ #
    def clusters(self) -> Tuple[ClusterId, ...]:
        """Cluster IDs present in this view."""
        return tuple(sorted(self._caps))

    def __getitem__(self, cid: ClusterId) -> StepFunction:
        """Profile of cluster *cid*; absent clusters are the zero profile."""
        return self._caps.get(cid, _ZERO)

    def __contains__(self, cid: ClusterId) -> bool:
        return cid in self._caps

    def __iter__(self) -> Iterator[ClusterId]:
        return iter(sorted(self._caps))

    def __len__(self) -> int:
        return len(self._caps)

    def items(self) -> Iterator[Tuple[ClusterId, StepFunction]]:
        for cid in sorted(self._caps):
            yield cid, self._caps[cid]

    def value_at(self, cid: ClusterId, t: Time) -> float:
        """Availability of cluster *cid* at time *t* (``V[cid](t)`` in the paper)."""
        return self[cid].value_at(t)

    # ------------------------------------------------------------------ #
    # Algebra (Appendix A.3)
    # ------------------------------------------------------------------ #
    def _combine(self, other: "View", op) -> "View":
        """``op`` per cluster, in operand key order: ours, then the others'."""
        mine, theirs = self._caps, other._caps
        caps = {cid: op(cap, theirs.get(cid, _ZERO)) for cid, cap in mine.items()}
        for cid, their in theirs.items():
            if cid not in mine:
                caps[cid] = op(_ZERO, their)
        return View._adopt(caps)

    def union(self, other: "View") -> "View":
        """Pointwise maximum per cluster (the paper's ``∪``)."""
        return self._combine(other, StepFunction.maximum)

    def __or__(self, other: "View") -> "View":
        return self.union(other)

    def __add__(self, other: "View") -> "View":
        if not other._caps:
            return self
        if not self._caps:
            return other
        return self._combine(other, operator.add)

    def __sub__(self, other: "View") -> "View":
        if not other._caps:
            return self
        return self._combine(other, operator.sub)

    def clip_low(self, floor: float = 0.0) -> "View":
        """Clamp every profile to be at least *floor* (usually 0)."""
        caps = None  # a copy of ``_caps``, made when the first profile is clipped
        for cid, cap in self._caps.items():
            clipped = cap.clip_low(floor)
            if clipped is not cap:
                if caps is None:
                    caps = dict(self._caps)
                caps[cid] = clipped
        return self if caps is None else View(caps)

    def clip_high(self, ceilings: Mapping[ClusterId, float]) -> "View":
        """Clamp each cluster's profile at its ceiling (e.g. the cluster size)."""
        caps = {}
        for cid, cap in self._caps.items():
            ceiling = ceilings.get(cid)
            caps[cid] = cap if ceiling is None else cap.clip_high(ceiling)
        return View(caps)

    def add_rectangle(self, cid: ClusterId, start: Time, duration: Time, height: float) -> "View":
        """Return this view with a rectangle added on cluster *cid*."""
        caps = dict(self._caps)
        caps[cid] = self[cid].add_rectangle(start, duration, height)
        return View(caps)

    def is_non_negative(self) -> bool:
        """True if no cluster profile ever goes below zero."""
        return all(cap.is_non_negative() for cap in self._caps.values())

    def is_zero(self) -> bool:
        """True if every cluster profile is identically zero."""
        return all(cap.is_zero() for cap in self._caps.values())

    def integrate(self, start: Time = 0.0, end: Time = math.inf) -> float:
        """Total node-seconds over all clusters in ``[start, end)``."""
        return sum(cap.integrate(start, end) for cap in self._caps.values())

    # ------------------------------------------------------------------ #
    # Scheduling primitives (Appendix A.3)
    # ------------------------------------------------------------------ #
    def alloc(self, request) -> int:
        """Node count that can be allocated to *request* at its scheduled time.

        Implements the paper's ``alloc(V, r)``: the minimum between the
        requested node count and the availability of the request's cluster
        over ``[scheduledAt, scheduledAt + duration)``.  Used to compute
        ``n_alloc`` for preemptible requests, which the RMS may legally
        shrink.
        """
        cap = self._caps.get(request.cluster_id, _ZERO)
        granted = cap.alloc_limit(request.scheduled_at, request.duration, request.node_count)
        return int(math.floor(granted + 1e-9))

    def find_hole(self, request, not_before: Time = 0.0) -> Time:
        """Earliest start time for *request* (the paper's ``findHole``).

        The search starts no earlier than ``max(not_before,
        request.earliest_schedule_at)`` and returns ``math.inf`` if the
        request can never be placed.
        """
        earliest = max(not_before, request.earliest_schedule_at)
        cap = self[request.cluster_id]
        return cap.find_hole(request.node_count, request.duration, earliest)

    # ------------------------------------------------------------------ #
    # Dunder glue
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, View):
            return NotImplemented
        mine, theirs = self._caps, other._caps
        if mine.keys() == theirs.keys():  # else a missing cluster is the zero profile
            for cid, cap in mine.items():
                their = theirs[cid]
                if cap is not their and not cap == their:
                    return False
            return True
        return all(self[cid] == other[cid] for cid in mine.keys() | theirs.keys())

    def __repr__(self) -> str:
        inner = ", ".join(f"{cid!r}: {cap!r}" for cid, cap in self.items())
        return f"View({{{inner}}})"

    def to_duration_pairs(self, horizon: Time) -> Dict[ClusterId, list]:
        """Export every cluster profile in the paper's duration-pair form."""
        return {cid: cap.to_duration_pairs(horizon) for cid, cap in self.items()}


class ViewBuilder:
    """Accumulate per-cluster rectangles and build the occupation view once.

    The scheduling primitives (``fit``, ``toView``) used to grow their result
    views one ``add_rectangle`` at a time -- a full profile merge and two
    allocations per request.  The builder defers to one
    :class:`~repro.core.profile.StepBuilder` sweep per cluster, which is
    result-identical for the integer node counts the scheduler places (see
    the exactness note in :mod:`repro.core.profile`).
    """

    __slots__ = ("_builders",)

    def __init__(self) -> None:
        self._builders: Dict[ClusterId, StepBuilder] = {}

    def add_rectangle(
        self, cid: ClusterId, start: Time, duration: Time, height: float
    ) -> None:
        """Add a rectangle of *height* on ``[start, start + duration)`` to *cid*."""
        builder = self._builders.get(cid)
        if builder is None:
            builder = self._builders[cid] = StepBuilder()
        builder.add_rectangle(start, duration, height)

    def build(self) -> View:
        """The accumulated occupation as an immutable :class:`View`."""
        return View._adopt(
            {
                cid: builder.build()
                for cid, builder in self._builders.items()
                if not builder.is_empty()
            }
        )
