"""The PSA's start batches: one completion event for the tasks one
reconciliation starts, finishing its surviving nodes in start order."""
from __future__ import annotations

import math

import pytest

from repro.apps import ParameterSweepApplication
from repro.sim import Simulator


class _Rms:
    """What of an RMS the PSA's task bookkeeping reads: a clock and a queue."""

    def __init__(self):
        self.simulator = Simulator()

    @property
    def now(self):
        return self.simulator.now


def _psa(task_duration=10.0):
    psa = ParameterSweepApplication("psa", task_duration=task_duration)
    psa.rms = _Rms()
    psa._flush_pending = True  # no reconciliation: each test drives the tasks itself
    return psa, psa.rms.simulator


def test_k_starts_schedule_one_event():
    psa, sim = _psa()
    psa._start_tasks([4, 1, 7])
    sim.run()
    assert (sim.processed_events, sim.now) == (1, 10.0)
    assert psa.stats.completed_tasks == 3 and psa._idle_nodes == {1, 4, 7}


def test_a_full_abort_cancels_the_event():
    psa, sim = _psa()
    psa._start_tasks([1, 2])
    psa._abort_task(2, count_waste=True)
    psa._abort_task(1, count_waste=True)
    assert sim.empty() and not psa._batches
    assert sim.run() == 0.0 and psa.stats.completed_tasks == 0


def test_a_partial_abort_finishes_the_survivors_in_start_order():
    psa, sim = _psa()
    psa._start_tasks([5, 3, 9])
    psa._abort_task(3, count_waste=False)
    assert list(psa._running_tasks) == [5, 9] and not sim.empty()
    sim.run()
    assert (sim.processed_events, psa.stats.completed_tasks, psa.stats.killed_tasks) == (1, 2, 0)
    assert psa._idle_nodes == {5, 9} and not psa._running_tasks


def test_a_node_restarted_in_a_later_batch_is_finished_by_it_alone():
    psa, sim = _psa()
    psa._start_tasks([1, 2])
    sim.run(until=5.0)
    psa._abort_task(1, count_waste=False)
    psa._start_tasks([1])
    sim.run(until=10.0)  # the first batch finishes node 2 only
    assert psa.stats.completed_tasks == 1 and list(psa._running_tasks) == [1]
    sim.run()
    assert (sim.now, psa.stats.completed_tasks, sim.processed_events) == (15.0, 2, 2)


def test_waste_is_measured_from_the_batch_start():
    psa, sim = _psa()
    psa._start_tasks([1])
    sim.schedule(2.0, psa._start_tasks, [2, 3])
    sim.run(until=9.5)
    psa._abort_task(3, count_waste=True)
    assert (psa.stats.killed_tasks, psa.stats.waste_node_seconds) == (1, 7.5)


def test_completed_node_seconds_is_the_per_task_float_sum():
    psa, sim = _psa(task_duration=0.1)
    psa._start_tasks(list(range(10)))
    sim.run()
    expected = 0.0
    for _ in range(10):
        expected += 0.1
    assert psa.stats.completed_node_seconds == expected != 10 * 0.1


@pytest.mark.parametrize("duration", [math.nan, math.inf, 0.0])
def test_the_task_duration_must_be_positive_and_finite(duration):
    with pytest.raises(ValueError, match="positive and finite"):
        ParameterSweepApplication("psa", task_duration=duration)
