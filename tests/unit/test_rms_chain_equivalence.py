"""Differential world test: bounded update chains vs the keep-everything RMS.

An update -- ``request(NEXT -> old)`` + ``done(old)`` -- used to cost more the
more updates came before it: ``RequestSet.prune_finished`` kept *every*
finished ancestor of a live request, and ``CooRMv2._next_chain_ancestors``
walked up to 64 finished links looking for retained nodes.  Now a set keeps
the live requests and the one request each of them names, and the walk ends
at the first ancestor that ``_start_request`` served.  ``ReferenceCooRMv2``
keeps both old pieces verbatim as the oracle; ``ChainMachine`` drives it and
``CooRMv2`` through the same steps of the protocol machine
(``tests/support/protocol.py``).

Two things are excluded by construction, not by tolerance, because there the
old walk was wrong.  More than 64 updates in a row without a start in
between: its hop limit stranded the retained nodes.  And a *forked* chain in
which a request finishes, retaining nodes for its own pending successor,
while a request below it on another branch has already been served (possible
when that branch runs through a link cancelled before it started): the old
walk climbed past the served request and handed the retained nodes to the
wrong branch.  ``ChainMachine.parted`` drops the reference, before the
worlds are compared, once a run is longer than ``_UNSERVED_LIMIT`` or
``_a_start_emptied_everything_above``, the invariant the new walk relies on,
is broken; ``test_a_forked_chain_is_where_the_worlds_part`` shows both
behaviours.
"""
from __future__ import annotations

import math

import pytest
from hypothesis import settings
from support.protocol import NP, P, PA, ProtocolMachine, handover_path

from repro.core import CooRMv2, RelatedHow, RequestSet, RequestType
from repro.core.types import NEXT


class _KeepEveryAncestorSet(RequestSet):
    """``RequestSet`` with the previous ``prune_finished``, verbatim."""

    def prune_finished(self):
        members = self._by_id
        live = [r for r in members.values() if not r.finished()]
        if len(live) == len(members):
            return []
        keep = {r.request_id for r in live}
        for child in live:
            parent = child.related_to
            while (
                child.related_how is not RelatedHow.FREE
                and parent is not None
                and parent.request_id in members
                and parent.request_id not in keep
            ):
                keep.add(parent.request_id)
                child, parent = parent, parent.related_to
        # Pinned last, so that a walk above never mistakes a request that
        # is only named by a FREE request for one whose ancestors are marked.
        keep.update(r.related_to.request_id for r in live if r.related_to is not None)
        removed = [r for r in members.values() if r.request_id not in keep]
        for r in removed:
            del members[r.request_id]
        return removed


class ReferenceCooRMv2(CooRMv2):
    """The RMS with the previous pruning rule and the previous chain walk."""

    def connect(self, application, app_id=None):
        session = super().connect(application, app_id)
        sets = session.requests
        sets.preallocations = _KeepEveryAncestorSet(RequestType.PREALLOCATION)
        sets.non_preemptible = _KeepEveryAncestorSet(RequestType.NON_PREEMPTIBLE)
        sets.preemptible = _KeepEveryAncestorSet(RequestType.PREEMPTIBLE)
        return session

    @staticmethod
    def _next_chain_ancestors(request, include_self=False, max_hops=64):
        if include_self and request.finished() and request.node_ids:
            yield request
        current = request
        hops = 0
        while (
            current.related_how is RelatedHow.NEXT
            and current.related_to is not None
            and hops < max_hops
        ):
            parent = current.related_to
            if parent.finished() and parent.node_ids:
                yield parent
            if not parent.finished():
                break
            current = parent
            hops += 1


#: The old walk gave up after 64 hops; a run of unserved updates stays below.
_UNSERVED_LIMIT = 60


def _a_start_emptied_everything_above(requests):
    """No finished request above a served one still retains nodes."""
    for request in requests:
        if request.started() and not request.is_preallocation():
            if any(ReferenceCooRMv2._next_chain_ancestors(request)):
                return False
    return True


class ChainMachine(ProtocolMachine):
    reference = ReferenceCooRMv2
    differs_by_design = ("members",)  # the reference keeps every ancestor

    def parted(self):
        requests = self.worlds[0].requests
        return not _a_start_emptied_everything_above(requests) or any(
            len(list(handover_path(r))) > _UNSERVED_LIMIT for r in requests if r.pending()
        )


TestChainMachine = ChainMachine.TestCase
TestChainMachine.settings = settings(max_examples=130, stateful_step_count=30, deadline=None)


def test_a_started_preallocation_in_the_middle_of_a_chain():
    """Named, not left to chance: the walk passes through a pre-allocation."""
    machine = ChainMachine.started()
    machine.steps(
        ("submit", "a", "cluster0", 6, math.inf, P),
        ("advance", 1.0),
        ("burst", 0, 1, PA, 6, 0),  # NEXT pre-allocation; done(first) retains
        ("advance", 1.0),  # the pre-allocation starts, sweeping nothing
        ("burst", 1, 5, P, 6, 0),  # five preemptible updates below it
        ("advance", 1.0),
    )
    world = machine.worlds[0]
    first, tail = world.requests[0], world.requests[-1]
    assert world.requests[1].is_preallocation() and world.requests[1].finished()
    assert tail.started() and len(tail.node_ids) == tail.node_count
    assert first.node_ids == frozenset()
    assert world.platform.cluster("cluster0").allocated_count() == len(tail.node_ids)


def test_a_forked_chain_is_where_the_worlds_part():
    """Retained nodes go to the successor they were retained for.

    A fork whose own successor is pending when a branch below it was served:
    ``CooRMv2`` hands the fork's nodes to that successor, the reference to
    the other branch, which the NEXT hand-over rule refuses.
    """
    machine = ChainMachine.started()
    machine.steps(
        ("submit", "a", "cluster0", 6, math.inf, P),  # 0: the fork
        ("advance", 1.0),
        ("update", 0, NEXT, P, 3, math.inf),  # 1: cancelled before it starts
        ("update", 1, NEXT, P, 3, math.inf),  # 2: served
        ("done", 1, 0),
        ("advance", 1.0),
    )
    new, old = machine.worlds
    fork, _, served = new.requests
    assert served.started() and not fork.finished()
    machine.update(2, NEXT, P, 5, math.inf)  # 3: the other branch
    machine.update(0, NEXT, P, 6, math.inf)  # 4: the fork's own successor
    machine.done(0, 0)  # keeps its six nodes for its own successor
    assert machine.parted()
    held = [world.requests[0].node_ids for world in (new, old)]
    machine.done(2, 0)
    machine.advance(1.0)
    for world, nodes, taken in [(new, held[0], (0, True)), (old, held[1], (2, False))]:
        other_branch, own_successor = world.requests[3:]
        assert (len(nodes & other_branch.node_ids), own_successor.node_ids >= nodes) == taken
    new.assert_invariants()
    with pytest.raises(AssertionError, match="NEXT hand-over"):
        old.assert_invariants()


def test_a_killed_request_binds_nothing_to_a_reconnected_session():
    """A NEXT child of a request killed in an earlier session under the same id
    inherits none of its former nodes: they may be bound to a live request now."""
    machine = ChainMachine.started()
    machine.steps(
        ("submit", "a", "cluster0", 6, math.inf, P),  # nodes 0-5
        ("advance", 1.0),
        ("set_capacity", 4),  # "a" holds victims 4 and 5: killed
        ("connect", "a"),
        ("submit", "a", "cluster0", 3, math.inf, NP),  # x: 3 NP nodes, 0-2
        ("advance", 1.0),
        ("update", 0, NEXT, NP, 1, math.inf),  # y: NEXT child of the killed request
        ("advance", 1.0),
    )
    killed, x, y = machine.worlds[0].requests
    assert killed.node_ids == frozenset() and sorted(x.node_ids) == [0, 1, 2]
    assert sorted(y.node_ids) == [3]  # the free node, not one of x's
