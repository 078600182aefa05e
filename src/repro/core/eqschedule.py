"""``eqSchedule()`` -- equi-partitioning of preemptible resources (Algorithm 3).

The resources left after serving pre-allocations and non-preemptible requests
are shared among the preemptible requests of all applications.  The policy is
*equi-partitioning with filling*:

* when the system is congested (the applications together ask for more than
  is available), every active application receives a max-min-fair share of
  the capacity, and inactive applications are shown the share they would get
  if they became active;
* when the system is not congested, every application is shown whatever the
  other applications leave unused -- but never less than its equal partition
  -- which is what lets a second Parameter-Sweep Application fill the "holes"
  left by the first one (paper Section 5.4).

A *strict* mode disables the filling and always shows exactly the equal
partition; it implements the "strict equi-partitioning" baseline of Figure 11.
Its views never read a demand, so a strict pass computes none: it builds the
one shared view from the capacity rule and only reschedules each busy
application's requests against it.

When no application holds a preemptible request, every application is shown
the availability itself (strict: its equal slice), floored to whole nodes:
:func:`eq_schedule` maps it segment by segment into one :class:`View` for all
(holding the availability's own profile where the numbers reproduce it).

Sharing re-fits only pending requests: :func:`partition_schedule` calls
``fit`` only where ``toView`` left a pending request to place, and does not
reschedule an application shown the availability itself a second time.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import islice, repeat
from math import ceil, floor
from typing import Dict, List, Mapping, Sequence

from .fit import fit
from .profile import _EPS, StepFunction
from .request_set import RequestSet
from .toview import to_view
from .types import Time
from .view import View

__all__ = ["eq_schedule", "max_min_fair", "partition_schedule", "weighted_max_min_fair"]


def max_min_fair(demands: Sequence[int], capacity: int) -> List[int]:
    """Max-min fair integer allocation of *capacity* among *demands*.

    Classic water-filling: the capacity is repeatedly divided equally among
    the applications whose demand is not yet satisfied.  Allocations never
    exceed the demand and their sum never exceeds the capacity.
    """
    n = len(demands)
    alloc = [0] * n
    remaining = int(capacity)
    unsatisfied = [i for i in range(n) if demands[i] > 0]
    while remaining > 0 and unsatisfied:
        share = max(remaining // len(unsatisfied), 1)
        progressed = False
        for i in list(unsatisfied):
            if remaining <= 0:
                break
            grant = min(share, demands[i] - alloc[i], remaining)
            if grant > 0:
                alloc[i] += grant
                remaining -= grant
                progressed = True
            if alloc[i] >= demands[i]:
                unsatisfied.remove(i)
        if not progressed:
            break
    return alloc


def weighted_max_min_fair(
    demands: Sequence[int], weights: Sequence[float], capacity: int
) -> List[int]:
    """Weighted max-min fair integer allocation of *capacity* among *demands*.

    Water-filling where each unsatisfied application receives capacity in
    proportion to its weight.  With uniform weights this degenerates to
    :func:`max_min_fair`.  Allocations never exceed the demand and their sum
    never exceeds the capacity.
    """
    n = len(demands)
    if len(weights) != n:
        raise ValueError("demands and weights must have the same length")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    alloc = [0] * n
    remaining = int(capacity)
    unsatisfied = [i for i in range(n) if demands[i] > 0]
    while remaining > 0 and unsatisfied:
        total_weight = sum(weights[i] for i in unsatisfied)
        # Shares are computed against the capacity left at the start of the
        # round, so the split within one round is order-independent.
        round_remaining = remaining
        progressed = False
        for i in list(unsatisfied):
            if remaining <= 0:
                break
            share = max(int(round_remaining * weights[i] // total_weight), 1)
            grant = min(share, demands[i] - alloc[i], remaining)
            if grant > 0:
                alloc[i] += grant
                remaining -= grant
                progressed = True
            if alloc[i] >= demands[i]:
                unsatisfied.remove(i)
        if not progressed:
            break
    return alloc


def _interval_breakpoints(profiles: Sequence[StepFunction], horizon: Time) -> List[Time]:
    """Sorted union of the profiles' breakpoints in the half-open ``[0, horizon)``, plus 0."""
    points = {0.0}
    for p in profiles:
        for t in p._times:
            if 0.0 <= t < horizon:
                points.add(float(t))
    return sorted(points)


def _column_profile(own: StepFunction, breakpoints: List[Time], column) -> StepFunction:
    """*column* over *breakpoints*, compacted as the constructor would; *own* if equal."""
    last = column[0]
    times, values = [0.0], [float(last)]
    for t, v in zip(islice(breakpoints, 1, None), islice(column, 1, None)):
        if abs(v - last) >= _EPS:
            times.append(t)
            values.append(float(v))
            last = v
    if times == own._times and values == own._values:
        return own
    return StepFunction._from_compacted(times, values)


def _is_waiting(requests: RequestSet) -> bool:
    """True unless ``toView`` fixed every unfinished request: ``fit`` has work."""
    return any(not (r.fixed or r.finished()) for r in requests.scan())


def _capacity_share(capacity: int, n_apps: int, strict: bool) -> int:
    """The capacity as every one of *n_apps* applications is shown it, demands aside.

    Strict: an equal slice, whatever the others use.  Filling, with nobody
    asking: all of it (what both filling branches of :func:`_partition_interval` give).
    """
    return capacity // n_apps if strict else capacity


def _partition_interval(
    demands: List[int], capacity: int, strict: bool = False
) -> List[int]:
    """Compute the per-application view values for one constant interval.

    Returns the node count each application should see in its preemptive
    view during the interval (Algorithm 3, lines 8-25).
    """
    n_apps = len(demands)
    if n_apps == 0:
        return []

    if strict or not any(demands):
        return [_capacity_share(capacity, n_apps, strict)] * n_apps
    total_demand = sum(demands)
    n_active = sum(1 for demand in demands if demand > 0)
    views = [0] * n_apps

    if total_demand > capacity:
        # Congested: active applications receive a max-min-fair share of the
        # capacity, but the view never shows less than the equal partition
        # (the paper's loop hands every application one equal slice before
        # redistributing what small applications do not use).  Inactive
        # applications are shown the partition they would get if they became
        # active.
        fair = max_min_fair(demands, capacity)
        active_share = capacity // n_active if n_active else 0
        inactive_share = capacity // (n_active + 1)
        for i in range(n_apps):
            if demands[i] > 0:
                views[i] = max(fair[i], active_share)
            else:
                views[i] = inactive_share
    else:
        # Not congested: show each application what the others leave free,
        # but never less than its equal partition.
        for i in range(n_apps):
            leftover = capacity - (total_demand - demands[i])
            partitions = n_active if demands[i] > 0 else n_active + 1
            partitions = max(partitions, 1)
            equal_share = capacity // partitions
            views[i] = max(leftover, equal_share)
    return views


def eq_schedule(
    preemptible_sets: Mapping[str, RequestSet],
    available: View,
    not_before: Time,
    horizon: Time = None,
    strict: bool = False,
) -> Dict[str, View]:
    """Equi-partition *available* among the applications' preemptible requests.

    Parameters
    ----------
    preemptible_sets:
        Mapping of application id to its preemptible :class:`RequestSet`
        (``R_P^{(i)}`` in the paper), in application arrival order.
    available:
        View of the resources available for preemptible scheduling (``V_in``).
    not_before:
        Non-started requests are scheduled no earlier than this time.
    horizon:
        Time horizon used to discretise the profiles.  Defaults to the last
        breakpoint of all involved profiles plus one day, which is always
        sufficient because profiles are constant beyond their last breakpoint.
    strict:
        Enable the strict equi-partitioning baseline (no filling).

    Returns
    -------
    dict
        Application id -> preemptive view ``V_P^{(i)}``.
    """
    busy = any(preemptible_sets.values())
    if busy and not strict:
        return partition_schedule(preemptible_sets, available, not_before, horizon=horizon)
    # Strict sharing or nobody holding a preemptible request: every row is the
    # capacity rule alone, so each availability profile maps value by value,
    # one view for everybody.  Strict sharing then only reschedules the busy
    # applications against it (Algorithm 3, lines 28-30); their demands
    # would change no row.
    if not preemptible_sets:
        return {}
    if horizon is None:
        horizon = _default_horizon([available])
    n_apps = len(preemptible_sets)
    caps = {}
    for cid in available.clusters():
        own = available[cid]
        stop = bisect_left(own._times, horizon, 1)
        # The interval capacity of partition_schedule, max(int(floor(v + 1e-9)), 0),
        # then the capacity rule.
        values = [
            _capacity_share(c if (c := floor(v + 1e-9)) > 0 else 0, n_apps, strict)
            for v in own._values[:stop]
        ]
        same = stop == len(own._times) and values == own._values
        caps[cid] = own if same else StepFunction(own._times[:stop], values)
    view = View._adopt(caps)
    if busy:
        for requests in preemptible_sets.values():
            if requests:
                fixed_occ = to_view(requests, view)
                if _is_waiting(requests):
                    fit(requests, view - fixed_occ, not_before)
    return dict.fromkeys(preemptible_sets, view)


def _default_horizon(views: Sequence[View]) -> Time:
    """The last breakpoint of all the profiles of *views*, plus one day."""
    last = 0.0
    for view in views:
        for profile in view._caps.values():
            last = max(last, profile._times[-1])
    return last + 86_400.0


def partition_schedule(
    preemptible_sets: Mapping[str, RequestSet],
    available: View,
    not_before: Time,
    horizon: Time = None,
    partition=None,
) -> Dict[str, View]:
    """Share *available* among preemptible requests under a partition policy.

    This is the sharing machinery of Algorithm 3 with the per-interval
    partition rule factored out: *partition* is called with the applications'
    integer demands and the interval's capacity (``(demands, capacity) ->
    values``, in application arrival order) and returns the node count each
    application's preemptive view shows for that interval.
    :func:`eq_schedule` plugs in equi-partitioning (with or without filling);
    the policy subsystem (:mod:`repro.policies.sharing`) supplies alternative
    rules such as weighted max-min sharing.

    The views of one pass may be the *same object* for several applications
    (one :class:`View` per distinct column of partition values, typically one
    for all the idle applications) and may hold *available*'s own profile
    where a compacted column reproduces it; never mutate them.  Sharing pays
    for the applications that hold a preemptible request: an idle one (empty
    set) is neither ``to_view``-ed nor fitted, adds no breakpoint, and its
    demand is a literal 0; when all are idle the intervals are the
    availability profile's own segments, read off as they are.  *partition*
    still receives the demand of every application, idle ones included, but
    only once per distinct ``(capacity, demands)`` row of the pass -- it must
    be a pure function of the two and must not keep or alter the list.

    Sharing re-fits only pending requests: steps 1 and 3 call ``fit`` only
    for a *waiting* application, one with a pending request ``toView`` left
    unfixed (elsewhere ``fit`` would place and write nothing).  Step 3 still
    ``toView``-s every busy application, so fixed requests get their
    ``n_alloc`` from its own view, unless that view *is* the availability
    (every profile its own object): step 1 ran both calls on those inputs.
    """
    if partition is None:
        partition = _partition_interval  # equi-partitioning with filling

    app_ids = list(preemptible_sets)

    # Step 1: preliminary occupation views (Algorithm 3, lines 1-3), for the
    # applications that hold a preemptible request; the others occupy nothing.
    occupation: Dict[int, View] = {}
    waiting = set()  # indexes of the applications fit has a request to place for
    for index, requests in enumerate(preemptible_sets.values()):
        if requests:
            occ = to_view(requests, available)
            if _is_waiting(requests):
                waiting.add(index)
                occ = occ + fit(requests, available - occ, not_before)
            occupation[index] = occ

    clusters = set(available._caps)
    for occ in occupation.values():
        clusters.update(occ._caps)

    if horizon is None:
        horizon = _default_horizon([available, *occupation.values()])

    # Step 2: per-cluster, per-interval partitioning (lines 4-27).  The value
    # computed for the last interval extends to infinity (profiles are
    # constant beyond their last breakpoint, so so is the partition).  A row
    # is a function of the interval's capacity and the demands of the busy
    # applications alone, so it is computed once per distinct pair.
    memo: Dict[tuple, List[int]] = {}
    rows: List[List[int]] = []  # every cluster's rows, one cluster after the other
    spans = []  # per cluster: (cid, breakpoints, first row, one past its last row)
    for cid in sorted(clusters):
        avail_profile = available[cid]
        busy_profiles = [occ[cid] for occ in occupation.values()]
        if busy_profiles:
            breakpoints = _interval_breakpoints([avail_profile] + busy_profiles, horizon)
            offered = [avail_profile.value_at(t) for t in breakpoints]
            asked = zip(*[[ceil(p.value_at(t) - 1e-9) for t in breakpoints] for p in busy_profiles])
        else:
            # All idle: the intervals are the availability's own segments before the horizon.
            times = avail_profile._times
            breakpoints = times[: bisect_left(times, horizon, 1)]
            offered = avail_profile._values
            asked = repeat(())
        spans.append((cid, breakpoints, len(rows), len(rows) + len(breakpoints)))
        for value, busy_demands in zip(offered, asked):
            capacity = max(int(floor(value + 1e-9)), 0)
            key = (capacity, busy_demands)
            row = memo.get(key)
            if row is None:
                demands = [0] * len(app_ids)
                if busy_demands:
                    for index, demand in zip(occupation, busy_demands):
                        demands[index] = demand
                row = memo[key] = partition(demands, capacity)
            rows.append(row)

    # One view per distinct column over all clusters, one profile per distinct
    # column of one: applications shown the same numbers share the objects.
    views: Dict[tuple, View] = {}
    profiles: Dict[tuple, StepFunction] = {}
    result: Dict[str, View] = {}
    mirror = None  # the view (of one column at most) whose every profile is available's own
    for app_id, column in zip(app_ids, zip(*rows) if rows else repeat(())):
        view = views.get(column)
        if view is None:
            caps = {}
            mirrors = True
            for cid, breakpoints, first, stop in spans:
                key = (cid, column[first:stop])
                own = available[cid]
                profile = profiles.get(key)
                if profile is None:
                    profile = profiles[key] = _column_profile(own, breakpoints, key[1])
                caps[cid] = profile
                mirrors = mirrors and profile is own
            view = views[column] = View._adopt(caps)
            if mirrors:
                mirror = view
        result[app_id] = view

    # Step 3: reschedule the requests against their own views so that
    # scheduled_at and n_alloc reflect what each application will really get
    # (Algorithm 3, lines 28-30).
    for index in occupation:
        own_view = result[app_ids[index]]
        if own_view is mirror:
            continue
        requests = preemptible_sets[app_ids[index]]
        fixed_occ = to_view(requests, own_view)
        if index in waiting:
            fit(requests, own_view - fixed_occ, not_before)

    return result
