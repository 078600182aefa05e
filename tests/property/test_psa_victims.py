"""Property tests: which running tasks a PSA kills when it must shrink.

``ParameterSweepApplication`` gives back idle nodes first, then the tasks
with the least elapsed work.  It finds those by walking back from its latest
start batch instead of ranking every running task (batches of one start time
run together, the earliest first); the pick must still be
exactly ``heapq.nsmallest(k, running.items(), key=now - start)``, element
for element -- ties in start order, and starts that round to one elapsed
time tied as well -- because the victims' order feeds the float sum behind
``waste_node_seconds`` and their IDs the ``done`` the RMS records.
"""
from __future__ import annotations

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ParameterSweepApplication


class _Handle:
    def cancel(self):
        pass


class _Clock:
    """What of an RMS the PSA's task bookkeeping reads: a clock and a queue."""

    def __init__(self, now=0.0):
        self.now = now
        self.simulator = self

    def schedule(self, delay, callback, *args):
        return _Handle()


def _psa(now=0.0):
    psa = ParameterSweepApplication("psa", task_duration=1e9)
    psa.rms = _Clock(now)
    return psa


def _start(psa, nids):
    psa._idle_nodes.update(nids)
    psa._start_tasks(nids)


def _reference(psa, k):
    now = psa.rms.now
    running = psa._running_tasks.items()
    return [nid for nid, _ in heapq.nsmallest(k, running, key=lambda item: now - item[1].start)]


_EVENT = st.one_of(
    # A task starts on a fresh node, after a delay (0: the same instant, but
    # a batch of its own), or 1-3 tasks start now as one batch.
    st.tuples(st.just("start"), st.sampled_from([0.0, 0.0, 0.0, 1e-9, 0.1, 1.0, 2.5])),
    st.tuples(st.just("start"), st.integers(1, 3)),
    # A node whose task ended earlier starts a new one (re-inserted at the end).
    st.tuples(st.just("restart"), st.integers(0, 1000)),
    # A running task's batch completes, or the task is aborted.
    st.tuples(st.sampled_from(["finish", "abort"]), st.integers(0, 1000)),
)


@settings(max_examples=300, deadline=None)
@given(
    origin=st.sampled_from([0.0, 7.3, 1000.0]),
    events=st.lists(_EVENT, max_size=40),
    age=st.sampled_from([0.0, 0.5, 3.0, 1e16]),  # 1e16: distinct starts round to one elapsed time
)
def test_victims_are_what_nsmallest_picks(origin, events, age):
    psa = _psa(origin)
    ended, fresh = [], 0
    for kind, value in events:
        running = list(psa._running_tasks)
        if kind == "start":
            if isinstance(value, float):
                psa.rms.now += value
                value = 1
            _start(psa, list(range(fresh, fresh + value)))
            fresh += value
        elif kind == "restart" and ended:
            _start(psa, [ended.pop(value % len(ended))])
        elif kind in ("finish", "abort") and running:
            nid = running[value % len(running)]
            if kind == "finish":
                nids = list(psa._running_tasks[nid].nodes)
                psa._tasks_finished(psa._running_tasks[nid])
                psa._idle_nodes.difference_update(nids)
            else:
                nids = [nid]
                psa._abort_task(nid, count_waste=False)
            ended.extend(nids)
    psa.rms.now += age
    assert not psa._idle_nodes
    for k in range(len(psa._running_tasks) + 1):
        assert psa._pick_release_victims(k) == _reference(psa, k)


class _Tally(dict):
    """A dict that counts the keys its iterations hand out (a view: all)."""

    handed = [0]

    def items(self):
        self.handed[0] += len(self)
        return dict.items(self)

    def __iter__(self):
        for key in dict.__iter__(self):
            self.handed[0] += 1
            yield key

    def __reversed__(self):
        for key in dict.__reversed__(self):
            self.handed[0] += 1
            yield key


def _visits(running, k, one_batch):
    """Start batches and tasks a shrink by *k* visits among *running* tasks."""
    psa = _psa()
    if one_batch:
        _start(psa, list(range(running)))
    for nid in range(0 if one_batch else running):
        psa.rms.now += 1.0
        _start(psa, [nid])
    psa.rms.now += 10.0
    expected = _reference(psa, k)
    psa._running_tasks = _Tally(psa._running_tasks)
    for batch in psa._batches:
        batch.nodes = _Tally(batch.nodes)
    psa._batches = _Tally(psa._batches)
    _Tally.handed[0] = 0
    assert psa._pick_release_victims(k) == expected
    return _Tally.handed[0]


def test_a_shrink_by_k_visits_o_k_running_tasks():
    for one_batch in (True, False):
        for k in (1, 3, 7):
            few, many = _visits(10, k, one_batch), _visits(1000, k, one_batch)
            assert few == many <= 2 * k + 1, (one_batch, k)
