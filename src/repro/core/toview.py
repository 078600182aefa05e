"""``toView()`` -- view generated by fixed requests (paper Algorithm 1).

A request is *fixed* when the RMS no longer has the freedom to pick its start
time: either it has already started, or it is constrained (via ``COALLOC`` /
``NEXT``) to a fixed request.  ``toView`` walks the request forest starting
from the started requests, propagates start times along constraints, marks
the visited requests as fixed and accumulates their resource occupation into
a view.

As in the paper, an optional *available* view limits how many nodes a
preemptible request may actually hold (its ``n_alloc``).

Without *available* the result is a pure function of the set's members and
their lifecycle fields, so :func:`started_occupation` computes it once per
state of a :class:`~repro.core.request_set.RequestSet` and hands out the same
:class:`View` object until one of those fields changes.
"""
from __future__ import annotations

from collections import deque
from math import isfinite, isnan
from operator import attrgetter
from typing import Optional

from .request_set import RequestSet
from .types import COALLOC, FREE, NEXT
from .view import View, ViewBuilder

__all__ = ["started_occupation", "to_view"]

#: The occupation of a request set without members or without started ones.
_NOTHING = View.empty()

#: What :func:`started_occupation` keys a member on.
_OCCUPATION_KEY = attrgetter(
    "request_id", "started_at", "state", "duration", "node_count", "related_how", "related_to",
    "cluster_id",
)


def started_occupation(requests: RequestSet) -> View:
    """``to_view(requests)``, recomputed only when its inputs changed.

    The invalidation rule, stated here and nowhere else: the memo kept on the
    set is valid while the key -- ``_OCCUPATION_KEY`` of every member, in set
    order: each field :func:`to_view` reads when no *available* view limits
    it -- compares equal.  The key is rebuilt from the requests on every call
    (O(members), no traversal, no profile), so it is sound for callers that
    mutate requests behind the set's back (``mark_started`` /
    ``mark_finished`` / ``mark_cancelled``, a changed duration) or the set
    itself (``add`` / ``remove`` / ``prune_finished``); nobody has to remember
    a dirty flag.
    While the key holds, the *same* ``View`` object is returned, which lets
    the scheduler test "did this application's occupation change" with ``is``
    (a set with nothing started occupies the one shared empty view, whatever
    its key).

    A skipped ``to_view`` also skips its side effects (``fixed``,
    ``scheduled_at`` and ``n_alloc`` on the visited requests, ``fixed``
    cleared on the others).  They are still in place from the call that
    filled the memo: ``to_view`` is the only writer of ``fixed`` (and drops
    the memo when called on the set directly), and
    :func:`~repro.core.fit.fit` and the backfill stages neither re-place a
    fixed request nor change the flag.
    """
    if not requests:
        return _NOTHING
    members = requests.scan()
    key = list(map(_OCCUPATION_KEY, members))
    memo = requests._occupation
    if memo is None or memo[0] != key:
        memo = requests._occupation = (key, to_view(members))
    return memo[1]


def to_view(requests, available: Optional[View] = None) -> View:
    """Build the occupation view of the fixed requests of *requests*.

    Parameters
    ----------
    requests:
        A :class:`RequestSet` or any iterable of :class:`Request`.
    available:
        Optional view of available resources.  When given, each request's
        ``n_alloc`` is limited to what is actually available over its
        scheduled window (used for preemptible requests, which the RMS may
        shrink); when omitted, ``n_alloc`` equals the requested node count.

    Side effects
    ------------
    Sets ``scheduled_at``, ``n_alloc`` and ``fixed`` on the visited requests
    and clears ``fixed`` on every other request of the set, exactly as
    Algorithm 1 prescribes.  Because they may differ from the ones a memoised
    :func:`started_occupation` left behind, a direct call on a request set
    drops that set's memo.
    """
    if isinstance(requests, RequestSet):
        requests._occupation = None
        requests = requests.scan()

    # One walk over the set: reset the fixed flag on every request, index the
    # constraint edges (so the propagation loop is linear in the number of
    # requests instead of quadratic) and queue the started requests.
    free = FREE
    children = {}
    queue = deque()
    for r in requests:
        r.fixed = False
        if r.related_to is not None and r.related_how is not free:
            children.setdefault(r.related_to.request_id, []).append(r)
        if not isnan(r.started_at) and not r.finished():  # started, not over
            queue.append(r)
    if not queue:
        return _NOTHING

    occupied = ViewBuilder()
    seen = set()

    while queue:
        r = queue.popleft()
        if r.request_id in seen:
            continue
        seen.add(r.request_id)

        parent = r.related_to
        if not isnan(r.started_at):
            # Reality beats constraints: a started request occupies resources
            # from the moment it actually started.
            r.scheduled_at = r.started_at
        elif r.related_how is free or parent is None:
            # A non-started FREE request is not fixed; skip it.
            continue
        elif r.related_how is NEXT:
            r.scheduled_at = (
                parent.end_time() if parent.finished() else parent.scheduled_at + parent.duration
            )
        elif r.related_how is COALLOC:
            r.scheduled_at = parent.scheduled_at
        else:  # pragma: no cover - future constraint kinds
            continue

        if not isfinite(r.scheduled_at):
            # The parent itself never got a valid schedule; leave this
            # request unfixed so that fit() handles it.
            continue

        if available is None:
            r.n_alloc = r.node_count
        else:
            r.n_alloc = available.alloc(r)
        r.fixed = True

        if r.duration > 0 and r.n_alloc > 0:
            occupied.add_rectangle(
                r.cluster_id, r.scheduled_at, r.duration, r.n_alloc
            )

        for child in children.get(r.request_id, ()):
            if child.request_id not in seen and not child.finished():
                queue.append(child)

    return occupied.build()
