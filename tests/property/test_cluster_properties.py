"""Property tests: the Cluster's incremental free-node pool and ownership map.

``Cluster`` keeps the IDs of its free nodes in a pool, and one set of held
node IDs per application, both updated by ``allocate`` / ``release`` /
``release_all_of`` / ``add_nodes`` / ``remove_nodes`` instead of scanning
every node per query.  Under random operation sequences both must stay equal
to a brute-force scan of ``cluster.nodes``, and allocation must still pick
the preferred free nodes first, then the lowest free IDs -- node identities
feed ``RequestStarted`` events and the goldens.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, NodeState
from repro.core import AllocationError

_APPS = ("a", "b", "c")
_OP = st.tuples(
    st.sampled_from(
        ["allocate", "allocate-preferred", "release", "release-all", "transfer",
         "transfer-bad", "add", "remove"]
    ),
    st.integers(0, 16),  # a count, an index, or a node for "transfer-bad"
    st.integers(0, 2),  # the application
    st.lists(st.integers(0, 15), max_size=6),  # preferred IDs / a node subset
)


def _scan_free(cluster):
    return sorted(nid for nid, node in cluster.nodes.items() if node.is_free())


def _scan_held(cluster, app):
    return sorted(
        nid for nid, node in cluster.nodes.items()
        if node.state is NodeState.ALLOCATED and node.owner_app == app
    )


def _assert_pool_matches_scan(cluster):
    free = _scan_free(cluster)
    allocated = sum(1 for n in cluster.nodes.values() if n.state is NodeState.ALLOCATED)
    assert cluster.free_nodes() == free
    assert cluster.free_count() == len(free)
    assert cluster.allocated_count() == allocated
    assert cluster.node_count == len(free) + allocated
    for app in _APPS:
        assert sorted(cluster.held_by(app)) == _scan_held(cluster, app)
        assert cluster.allocated_to(app) == _scan_held(cluster, app)


def _snapshot(cluster):
    return (
        {nid: (n.state, n.owner_app, n.busy_seconds) for nid, n in cluster.nodes.items()},
        cluster.free_nodes(),
        {app: sorted(cluster.held_by(app)) for app in _APPS},
    )


def _expected_allocation(free, count, preferred):
    chosen = []
    for nid in preferred:
        if nid in free and nid not in chosen and len(chosen) < count:
            chosen.append(nid)
    chosen += [nid for nid in free if nid not in chosen][: count - len(chosen)]
    return frozenset(chosen)


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, 12), ops=st.lists(_OP, max_size=25))
def test_free_pool_equals_a_scan_of_the_nodes(size, ops):
    cluster = Cluster("c", size)
    _assert_pool_matches_scan(cluster)
    for step, (op, number, app_index, ids) in enumerate(ops):
        app, now = _APPS[app_index], float(step)
        free = _scan_free(cluster)
        held = cluster.allocated_to(app)
        if op in ("allocate", "allocate-preferred"):
            preferred = ids if op == "allocate-preferred" else None
            if number > len(free):
                with pytest.raises(AllocationError):
                    cluster.allocate(number, app, now, preferred=preferred)
            else:
                got = cluster.allocate(number, app, now, preferred=preferred)
                assert got == _expected_allocation(free, number, preferred or [])
                assert all(cluster.nodes[nid].owner_app == app for nid in got)
        elif op == "release":
            cluster.release([nid for nid in held if nid in ids], now)
        elif op == "release-all":
            assert cluster.release_all_of(app, now) == frozenset(held)
        elif op == "transfer":
            cluster.transfer(held, app)
        elif op == "transfer-bad":
            # A node this application does not hold, or no node at all.
            if number in held:
                number = size + 20
            before = _snapshot(cluster)
            with pytest.raises(AllocationError):
                cluster.transfer(held + [number], app)
            assert _snapshot(cluster) == before
        elif op == "add":
            added = cluster.add_nodes(number % 4, now)
            assert all(cluster.nodes[nid].is_free() for nid in added)
        elif op == "remove":
            cluster.remove_nodes(free[max(0, len(free) - number % 4):], now)
        _assert_pool_matches_scan(cluster)


def test_failed_calls_leave_the_pool_untouched():
    cluster = Cluster("c", 4)
    cluster.allocate(3, "a", now=0.0)
    with pytest.raises(AllocationError):
        cluster.allocate(2, "b", now=0.0)
    with pytest.raises(AllocationError):
        cluster.release([3], now=0.0)  # free already
    with pytest.raises(AllocationError):
        cluster.remove_nodes([0], now=0.0)  # still allocated
    _assert_pool_matches_scan(cluster)
    assert cluster.free_nodes() == [3]

