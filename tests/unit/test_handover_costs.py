"""Work counts, not timings: a hand-over pays for the nodes that change hands.

A ``NEXT`` update re-binds an application's nodes to its successor request.
Node ownership is one map in the cluster, one set per application, so the
hand-over itself changes no owner: how many node IDs an update passes to
``Cluster.allocate`` / ``release`` must not depend on how many nodes the
application already holds.
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


def _update(held, change):
    """Node IDs passed to ``Cluster.allocate`` / ``release`` by one ``NEXT``
    update by *change* nodes of an application holding *held*: the ``done``
    and the pass that starts the successor."""
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
    released = sorted(before)[held + change:] if change < 0 else None
    cluster = platform.cluster("cluster0")
    allocated, freed = [], []
    allocate, release = cluster.allocate, cluster.release

    def counted_allocate(count, app_id, preferred=None):
        ids = allocate(count, app_id, preferred)
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
    return len(allocated), len(freed)


@pytest.mark.parametrize("change, expected", [(+1, (1, 0)), (-1, (0, 1))])
def test_an_update_by_one_node_costs_the_same_at_10_and_1000_held_nodes(change, expected):
    few, many = _update(10, change), _update(1000, change)
    assert few == many == expected


def test_the_success_path_of_transfer_touches_no_node():
    cluster = Cluster("c", 1000)
    ids = cluster.allocate(1000, "a")
    cluster.node_ids = lookups = _CountingSet(cluster.node_ids)
    cluster.transfer(ids, "a")
    assert lookups.count == 0
