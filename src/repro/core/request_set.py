"""Request sets and request trees (paper Appendix A.2).

Each application holds three separate request sets -- pre-allocations
``R_PA``, non-preemptible requests ``R_¬P`` and preemptible requests ``R_P``.
Inside a set, the ``COALLOC`` / ``NEXT`` constraints induce a forest:
unconstrained requests (or requests whose parent lives outside the set) are
tree roots, and each constraint creates a parent/child edge.

:class:`RequestSet` stores one such set and provides the paper's ``roots``
and ``children`` helpers plus ordering and filtering utilities used by the
scheduler.  :class:`ApplicationRequests` groups the three sets of one
application.
"""
from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional

from .errors import ConstraintError, RequestError
from .request import Request
from .types import RelatedHow, RequestType

__all__ = ["RequestSet", "ApplicationRequests", "children_index"]


def children_index(requests: Iterable[Request]) -> Dict[int, List[Request]]:
    """Constraint edges of *requests*: parent ``request_id`` -> its children.

    A child is a request with a ``COALLOC`` / ``NEXT`` constraint; children
    keep the iteration order of *requests*.  Built once per traversal so that
    walking a forest is linear in its size.
    """
    index: Dict[int, List[Request]] = {}
    for r in requests:
        if r.related_to is not None and r.related_how is not RelatedHow.FREE:
            index.setdefault(r.related_to.request_id, []).append(r)
    return index


class RequestSet:
    """An ordered collection of requests of a single type.

    Insertion order is preserved (it matters for deterministic scheduling);
    membership tests and removal are O(1): the requests live in one
    insertion-ordered dict keyed by request id.
    """

    def __init__(self, rtype: Optional[RequestType] = None, requests: Iterable[Request] = ()):
        self.rtype = rtype
        self._by_id: Dict[int, Request] = {}
        #: ``(key, view)`` memo of :func:`repro.core.toview.started_occupation`,
        #: which alone reads, writes and invalidates it.
        self._occupation = None
        for r in requests:
            self.add(r)

    # ------------------------------------------------------------------ #
    # Collection protocol
    # ------------------------------------------------------------------ #
    def add(self, request: Request) -> None:
        """Add *request*, enforcing the set's request type if one is declared."""
        if self.rtype is not None and request.rtype is not self.rtype:
            raise RequestError(
                f"request #{request.request_id} has type {request.rtype.value}, "
                f"set only accepts {self.rtype.value}"
            )
        if request.request_id in self._by_id:
            raise RequestError(f"request #{request.request_id} already in set")
        self._by_id[request.request_id] = request

    def remove(self, request: Request) -> None:
        """Remove *request*; children constrained to it become roots."""
        if request.request_id not in self._by_id:
            raise RequestError(f"request #{request.request_id} not in set")
        del self._by_id[request.request_id]

    def discard(self, request: Request) -> None:
        """Remove *request* if present; no error otherwise."""
        if request.request_id in self._by_id:
            self.remove(request)

    def __contains__(self, request: Request) -> bool:
        return isinstance(request, Request) and request.request_id in self._by_id

    def __iter__(self) -> Iterator[Request]:
        # A copy: callers submit and finish requests while they iterate.
        return iter(list(self._by_id.values()))

    def scan(self) -> Iterable[Request]:
        """The requests in set order, without the copy ``__iter__`` makes.

        For read-only loops on hot paths: adding or removing a request
        while scanning raises ``RuntimeError``.
        """
        return self._by_id.values()

    def __len__(self) -> int:
        return len(self._by_id)

    def __bool__(self) -> bool:
        return bool(self._by_id)

    def get(self, request_id: int) -> Optional[Request]:
        """Request with the given id, or None."""
        return self._by_id.get(request_id)

    # ------------------------------------------------------------------ #
    # Tree navigation (Appendix A.2)
    # ------------------------------------------------------------------ #
    def roots(self) -> List[Request]:
        """Requests that are tree roots within this set.

        A request is a root if it is unconstrained (``FREE``) or if its parent
        request does not belong to this set.
        """
        out = []
        for r in self._by_id.values():
            if r.related_how is RelatedHow.FREE or r.related_to is None:
                out.append(r)
            elif r.related_to.request_id not in self._by_id:
                out.append(r)
        return out

    def children(self, request: Request) -> List[Request]:
        """Requests of this set directly constrained to *request*."""
        return children_index(self._by_id.values()).get(request.request_id, [])

    def descendants(self, request: Request) -> List[Request]:
        """All requests transitively constrained to *request* (pre-order)."""
        index = children_index(self._by_id.values())
        out: List[Request] = []
        stack = index.get(request.request_id, [])[::-1]
        while stack:
            r = stack.pop()
            out.append(r)
            stack.extend(reversed(index.get(r.request_id, ())))
        return out

    def validate_constraints(self) -> None:
        """Raise :class:`ConstraintError` if the constraint graph has a cycle."""
        for start in self._by_id.values():
            seen = set()
            r: Optional[Request] = start
            while r is not None and r.related_how is not RelatedHow.FREE:
                if r.request_id in seen:
                    raise ConstraintError(
                        f"constraint cycle detected involving request #{start.request_id}"
                    )
                seen.add(r.request_id)
                r = r.related_to

    # ------------------------------------------------------------------ #
    # Filters used by the scheduler
    # ------------------------------------------------------------------ #
    def started(self) -> List[Request]:
        """Requests that have started and not yet finished."""
        return [r for r in self._by_id.values() if r.started() and not r.finished()]

    def pending(self) -> List[Request]:
        """Requests that have not started yet."""
        return [r for r in self._by_id.values() if r.pending()]

    def active_or_pending(self) -> List[Request]:
        """Requests that still matter for scheduling (not finished)."""
        return [r for r in self._by_id.values() if not r.finished()]

    def prune_finished(self) -> List[Request]:
        """Drop the finished requests that no unfinished request names.

        Kept: every unfinished request, and the one request each of them
        names as ``related_to`` (whatever the constraint, ``FREE`` included).
        Nothing above that parent stays, because one hop is all any reader
        takes from a finished request: ``to_view`` and ``fit`` read it only
        as the *direct* parent of a live one (``parent.end_time()``), the
        RMS finds a pending successor by ``related_to is request``, and the
        node carry-over follows ``related_to`` pointers, not set membership.
        An update chain therefore holds its live tail and one finished link,
        however many updates came before.  Returns the removed requests in
        set order; one pass, linear in the size of the set.
        """
        members = self._by_id
        live = [r for r in members.values() if not r.finished()]
        if len(live) == len(members):
            return []
        keep = {r.request_id for r in live}
        keep.update(r.related_to.request_id for r in live if r.related_to is not None)
        removed = [r for r in members.values() if r.request_id not in keep]
        for r in removed:
            del members[r.request_id]
        return removed

    def total_requested_nodes(self) -> int:
        """Sum of node counts of unfinished requests (diagnostic metric)."""
        return sum(r.node_count for r in self._by_id.values() if not r.finished())

    def __repr__(self) -> str:
        kind = self.rtype.value if self.rtype else "mixed"
        return f"RequestSet({kind}, {len(self._by_id)} requests)"


class ApplicationRequests:
    """The three per-application request sets of Appendix A.2."""

    def __init__(self, app_id: str):
        self.app_id = app_id
        self.preallocations = RequestSet(RequestType.PREALLOCATION)
        self.non_preemptible = RequestSet(RequestType.NON_PREEMPTIBLE)
        self.preemptible = RequestSet(RequestType.PREEMPTIBLE)

    def set_for(self, rtype: RequestType) -> RequestSet:
        """The request set that stores requests of type *rtype*."""
        if rtype is RequestType.PREALLOCATION:
            return self.preallocations
        if rtype is RequestType.NON_PREEMPTIBLE:
            return self.non_preemptible
        return self.preemptible

    def add(self, request: Request) -> None:
        """Route *request* into the set matching its type."""
        request.app_id = self.app_id
        self.set_for(request.rtype).add(request)

    def remove(self, request: Request) -> None:
        self.set_for(request.rtype).remove(request)

    def all_requests(self) -> List[Request]:
        """Every request of the application, over all three sets."""
        return list(self.preallocations) + list(self.non_preemptible) + list(self.preemptible)

    def scan(self) -> Iterable[Request]:
        """:meth:`all_requests` without the copies (see :meth:`RequestSet.scan`)."""
        return chain(
            self.preallocations.scan(), self.non_preemptible.scan(), self.preemptible.scan()
        )

    def find(self, request_id: int) -> Optional[Request]:
        """Look up a request by id across the three sets."""
        for rs in (self.preallocations, self.non_preemptible, self.preemptible):
            r = rs.get(request_id)
            if r is not None:
                return r
        return None

    def prune_finished(self) -> List[Request]:
        """Prune finished requests from all three sets (the non-empty ones)."""
        removed = []
        for rs in (self.preallocations, self.non_preemptible, self.preemptible):
            if rs:
                removed.extend(rs.prune_finished())
        return removed

    def __repr__(self) -> str:
        return (
            f"ApplicationRequests({self.app_id!r}, PA={len(self.preallocations)}, "
            f"nonP={len(self.non_preemptible)}, P={len(self.preemptible)})"
        )
