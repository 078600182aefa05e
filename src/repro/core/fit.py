"""``fit()`` -- scheduling of non-fixed requests (paper Algorithm 2).

``fit`` places the requests whose start time the RMS is still free to choose.
It walks the request forest from the roots, computes a start time for every
request according to its constraint, and iterates until the schedule is
consistent:

* ``FREE`` requests are placed at the first hole of the availability view;
* ``COALLOC`` requests must start exactly when their parent starts -- if no
  hole exists there, the parent is pushed later (via its
  ``earliest_schedule_at``) and re-examined;
* ``NEXT`` requests must start exactly when their parent ends, with the same
  back-pressure on the parent if needed;
* preemptible children of non-preemptible/pre-allocation parents are never
  allowed to delay their parent: they are shrunk instead (``n_alloc`` is
  limited by the availability), which the CooRMv2 specification permits.

The function returns the view generated by the placed requests and, like the
paper, mutates ``scheduled_at``, ``earliest_schedule_at`` and ``n_alloc`` on
the requests.
"""
from __future__ import annotations

import math
from collections import deque
from typing import List

from .errors import SchedulingError
from .request import Request
from .request_set import RequestSet
from .types import COALLOC, FREE, NEXT, NON_PREEMPTIBLE, PREALLOCATION, PREEMPTIBLE, Time
from .view import View, ViewBuilder

__all__ = ["fit"]

#: Safety bound on scheduling iterations; the algorithm converges because
#: start times only move forward, but a bound turns a potential livelock into
#: a loud error.
_MAX_ITERATIONS_PER_REQUEST = 64


def fit(requests, available: View, not_before: Time) -> View:
    """Schedule the non-fixed requests of *requests* inside *available*.

    Parameters
    ----------
    requests:
        A :class:`RequestSet` or iterable of :class:`Request`.  Requests
        flagged ``fixed`` (by :func:`~repro.core.toview.to_view`) keep their
        schedule; only the others are (re-)placed.
    available:
        View of resources the requests may occupy.
    not_before:
        No non-fixed request may be scheduled before this time (the current
        time in the main scheduling algorithm).

    Returns
    -------
    View
        The occupation view generated by the non-fixed requests.
    """
    if isinstance(requests, RequestSet):
        requests = requests.scan()

    # One walk collects the live requests and their ids, indexes the
    # constraint edges (the loop asks for a request's children every time its
    # start moves) and initialises the non-fixed requests (Algorithm 2, lines
    # 1-4).  A root is unconstrained or has its parent outside the live
    # requests (e.g. a finished predecessor of an update chain): the constraint
    # holds against the parent's recorded times, but the parent never moves.
    free = FREE
    request_list: List[Request] = []
    ids = set()
    children = {}
    roots = []  # in set order; a parent later in the set is ruled out below
    for r in requests:
        if r.finished():
            continue
        request_list.append(r)
        ids.add(r.request_id)
        parent = r.related_to
        if parent is None or r.related_how is free:
            roots.append(r)
        else:
            children.setdefault(parent.request_id, []).append(r)
            if parent.request_id not in ids:
                roots.append(r)
        if not r.fixed:
            r.earliest_schedule_at = not_before
            r.scheduled_at = math.inf
    queue = deque([
        r for r in roots
        if r.related_to is None or r.related_how is free or r.related_to.request_id not in ids
    ])
    visits = {}

    while queue:
        r = queue.popleft()
        visited = visits[r.request_id] = visits.get(r.request_id, 0) + 1
        if visited > _MAX_ITERATIONS_PER_REQUEST:
            raise SchedulingError(
                f"fit() did not converge for request #{r.request_id}; "
                "constraint graph is unsatisfiable"
            )

        if r.fixed:
            # Fixed requests keep their schedule; only their children matter.
            queue.extend(children.get(r.request_id, ()))
            continue

        parent = r.related_to
        r.n_alloc = r.node_count
        before = r.scheduled_at

        if r.related_how is free or parent is None:
            if r.rtype is PREEMPTIBLE:
                # Preemptible requests are never queued: they start right
                # away and the RMS shrinks them to whatever is available
                # (possibly zero), as the CooRMv2 specification allows.
                r.scheduled_at = max(not_before, r.earliest_schedule_at)
                r.n_alloc = available.alloc(r)
            else:
                r.scheduled_at = available.find_hole(r, 0.0)

        elif r.related_how is COALLOC:
            if r.rtype is PREEMPTIBLE and parent.rtype in (PREALLOCATION, NON_PREEMPTIBLE):
                # Preemptible co-allocations never delay their parent: they
                # start with it and shrink to whatever is available.
                r.scheduled_at = parent.scheduled_at
                r.n_alloc = available.alloc(r)
            else:
                r.scheduled_at = available.find_hole(r, parent.scheduled_at)
                if (
                    r.scheduled_at != parent.scheduled_at
                    and not parent.fixed
                    and parent.request_id in ids
                ):
                    parent.earliest_schedule_at = r.scheduled_at
                    queue.append(parent)

        elif r.related_how is NEXT:
            parent_end = parent.end_time() if parent.finished() else (
                parent.scheduled_at + parent.duration
            )
            if r.rtype is PREEMPTIBLE:
                r.scheduled_at = parent_end
                r.n_alloc = available.alloc(r)
            else:
                r.scheduled_at = available.find_hole(r, parent_end)
                if (
                    r.scheduled_at != parent_end
                    and not parent.fixed
                    and parent.request_id in ids
                ):
                    parent.earliest_schedule_at = r.scheduled_at - parent.duration
                    queue.append(parent)

        if before != r.scheduled_at:
            queue.extend(children.get(r.request_id, ()))

    # Schedule converged: build the generated view (Algorithm 2, lines 36-38).
    occupied = ViewBuilder()
    for r in request_list:
        if r.fixed:
            continue
        if math.isinf(r.scheduled_at) or r.duration <= 0 or r.n_alloc <= 0:
            continue
        occupied.add_rectangle(r.cluster_id, r.scheduled_at, r.duration, r.n_alloc)
    return occupied.build()
