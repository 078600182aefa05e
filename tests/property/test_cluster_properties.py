"""Property tests: the Cluster's free-node pool and ownership map.

``Cluster`` keeps three ID sets -- its nodes, the free pool and one set of
held node IDs per application -- updated by ``allocate`` / ``release`` /
``release_all_of`` / ``add_nodes`` / ``remove_nodes``.  Under random operation
sequences every query must agree with a test-side model, ``{node_id: owner or
None}``, driven by the same operations, and allocation must still pick the
lowest free IDs -- node identities feed ``RequestStarted`` events and the
goldens.  A call that raises must change nothing.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import AllocationError

_APPS = ("a", "b", "c")
_OP = st.tuples(
    st.sampled_from(
        ["allocate", "release", "release-all", "release-bad",
         "transfer", "transfer-bad", "add", "remove", "remove-bad"]
    ),
    st.integers(0, 16),  # a count, an index, or a node for the "-bad" ops
    st.integers(0, 2),  # the application
    st.lists(st.integers(0, 15), max_size=6),  # a node subset
)


def _model_free(model):
    return sorted(nid for nid, owner in model.items() if owner is None)


def _model_held(model, app):
    return sorted(nid for nid, owner in model.items() if owner == app)


def _assert_cluster_matches_model(cluster, model):
    free = _model_free(model)
    assert cluster.node_ids == set(model)
    assert cluster.free_nodes() == free
    assert cluster.free_count() == len(free)
    assert cluster.allocated_count() == len(model) - len(free)
    assert cluster.node_count == len(model)
    for app in _APPS:
        assert sorted(cluster.held_by(app)) == _model_held(model, app)
        assert cluster.allocated_to(app) == _model_held(model, app)


def _snapshot(cluster):
    return (
        sorted(cluster.node_ids),
        cluster.free_nodes(),
        {app: sorted(cluster.held_by(app)) for app in _APPS},
    )


def _not_held_by(model, app, number):
    """A node *app* does not hold: free, another's, or no node at all."""
    return number if model.get(number, "") != app else max(model, default=0) + 20


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, 12), ops=st.lists(_OP, max_size=25))
def test_cluster_agrees_with_an_owner_model(size, ops):
    cluster = Cluster("c", size)
    model = {nid: None for nid in range(size)}
    _assert_cluster_matches_model(cluster, model)
    for op, number, app_index, ids in ops:
        app = _APPS[app_index]
        free = _model_free(model)
        held = _model_held(model, app)
        before = _snapshot(cluster)
        if op == "allocate":
            if number > len(free):
                with pytest.raises(AllocationError):
                    cluster.allocate(number, app)
                assert _snapshot(cluster) == before
            else:
                got = cluster.allocate(number, app)
                assert got == frozenset(free[:number])
                model.update(dict.fromkeys(got, app))
        elif op == "release":
            chosen = [nid for nid in held if nid in ids]
            cluster.release(chosen, app)
            model.update(dict.fromkeys(chosen, None))
        elif op == "release-all":
            assert cluster.release_all_of(app) == frozenset(held)
            model.update(dict.fromkeys(held, None))
        elif op == "release-bad":
            with pytest.raises(AllocationError):
                cluster.release(held + [_not_held_by(model, app, number)], app)
            assert _snapshot(cluster) == before
        elif op == "transfer":
            cluster.transfer(held, app)
        elif op == "transfer-bad":
            with pytest.raises(AllocationError):
                cluster.transfer(held + [_not_held_by(model, app, number)], app)
            assert _snapshot(cluster) == before
        elif op == "add":
            added = cluster.add_nodes(number % 4)
            missing = [nid for nid in range(len(model) + 4) if nid not in model]
            assert added == missing[: number % 4]
            model.update(dict.fromkeys(added))
        elif op == "remove":
            victims = free[max(0, len(free) - number % 4):]
            cluster.remove_nodes(victims)
            for nid in victims:
                del model[nid]
        elif op == "remove-bad":
            # Free victims plus one that is held or unknown.
            bad = number if model.get(number) is not None else max(model, default=0) + 20
            with pytest.raises(AllocationError):
                cluster.remove_nodes(free[:2] + [bad])
            assert _snapshot(cluster) == before
        _assert_cluster_matches_model(cluster, model)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda c: c.allocate(2, "b"), id="allocate-more-than-free"),
        pytest.param(lambda c: c.allocate(-1, "b"), id="allocate-negative"),
        pytest.param(lambda c: c.release([3], "a"), id="release-free"),
        pytest.param(lambda c: c.release([0, 3], "a"), id="release-held-and-free"),
        pytest.param(lambda c: c.release([0, 7], "a"), id="release-held-and-unknown"),
        pytest.param(lambda c: c.release([0], "b"), id="release-anothers"),
        pytest.param(lambda c: c.transfer([0, 3], "a"), id="transfer-held-and-free"),
        pytest.param(lambda c: c.remove_nodes([0]), id="remove-allocated"),
        pytest.param(lambda c: c.remove_nodes([3, 0]), id="remove-free-and-allocated"),
        pytest.param(lambda c: c.remove_nodes([3, 7]), id="remove-free-and-unknown"),
        pytest.param(lambda c: c.add_nodes(-1), id="add-negative"),
    ],
)
def test_failed_calls_leave_the_pool_untouched(call):
    """Each call raises and changes nothing, not even the valid IDs it names
    before the bad one: node 3 is free, nodes 0-2 are held by "a"."""
    cluster = Cluster("c", 4)
    cluster.allocate(3, "a")
    before = _snapshot(cluster)
    with pytest.raises(AllocationError):
        call(cluster)
    assert _snapshot(cluster) == before
    assert cluster.free_nodes() == [3]
    assert cluster.node_count == 4
