"""Work counts, not timings: a hand-over pays for the nodes that change hands.

A ``NEXT`` update re-binds an application's nodes to its successor request.
Node ownership is one map in the cluster, one set per application, so the
hand-over itself changes no owner: how many node IDs an update passes to
``Cluster.allocate`` / ``release`` must not depend on how many nodes the
application already holds, and a successor that takes all of them starts on
its predecessor's node set itself, not on a copy.
"""
from __future__ import annotations

import math
from unittest import mock

import pytest

from repro.cluster import Cluster
from repro.core import RelatedHow, Request, RequestType
from repro.testing import RecordingApp, make_env


class _CountingSet(set):
    """``Cluster.node_ids`` that counts every membership test and walk."""

    count = 0

    def __contains__(self, nid):
        self.count += 1
        return super().__contains__(nid)

    def __iter__(self):
        self.count += len(self)
        return super().__iter__()


def _update(held, change, announced=True):
    """One ``NEXT`` update by *change* nodes of an application holding *held*:
    the ``done`` -- naming the nodes a shrink frees if *announced* -- and the
    pass that starts the successor.

    Returns the node IDs passed to ``Cluster.allocate`` and to ``release``,
    the predecessor's node set and the successor.
    """
    simulator, platform, rms = make_env(nodes=held + 8)
    rms.connect(RecordingApp("a"), "a")
    first = rms.submit("a", Request("cluster0", held, math.inf, RequestType.NON_PREEMPTIBLE))
    simulator.run(until=2.0)
    before = first.node_ids
    assert len(before) == held
    successor = rms.submit(
        "a",
        Request(
            "cluster0", held + change, math.inf, RequestType.NON_PREEMPTIBLE,
            related_how=RelatedHow.NEXT, related_to=first,
        ),
    )
    released = sorted(before)[held + change:] if change < 0 and announced else None
    cluster = platform.cluster("cluster0")
    allocated, freed = [], []
    allocate, release = cluster.allocate, cluster.release

    def counted_allocate(count, app_id):
        ids = allocate(count, app_id)
        allocated.extend(ids)
        return ids

    def counted_release(node_ids, app_id):
        freed.extend(node_ids)
        release(node_ids, app_id)

    with mock.patch.object(cluster, "allocate", counted_allocate), mock.patch.object(
        cluster, "release", counted_release
    ):
        rms.done("a", first, released_node_ids=released)
        simulator.run(until=4.0)
    assert successor.started() and len(successor.node_ids) == held + change
    assert sorted(cluster.held_by("a")) == sorted(successor.node_ids)
    assert (successor.node_ids >= before) if change > 0 else (successor.node_ids <= before)
    return allocated, freed, before, successor


@pytest.mark.parametrize("change, expected", [(+1, (1, 0)), (-1, (0, 1))])
def test_an_update_by_one_node_costs_the_same_at_10_and_1000_held_nodes(change, expected):
    few, many = _update(10, change)[:2], _update(1000, change)[:2]
    assert tuple(map(len, few)) == tuple(map(len, many)) == expected


@pytest.mark.parametrize("held", [10, 1000])
def test_a_successor_taking_every_node_starts_on_its_predecessors_set(held):
    """No node set is copied: the frozenset the predecessor held is handed on."""
    allocated, freed, before, successor = _update(held, 0)
    assert allocated == freed == []
    assert successor.node_ids is before


def test_a_successor_needing_fewer_nodes_carries_the_lowest_ids():
    """Unannounced shrink: the start gives back the highest retained ID."""
    allocated, freed, before, successor = _update(10, -1, announced=False)
    assert successor.node_ids == frozenset(sorted(before)[:9])
    assert allocated == [] and freed == [max(before)]


def test_the_success_path_of_transfer_touches_no_node():
    cluster = Cluster("c", 1000)
    ids = cluster.allocate(1000, "a")
    cluster.node_ids = lookups = _CountingSet(cluster.node_ids)
    cluster.transfer(ids, "a")
    assert lookups.count == 0
