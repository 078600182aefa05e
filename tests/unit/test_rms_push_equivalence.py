"""Differential world test: the per-pair view push vs the per-session one.

``CooRMv2._run_schedule`` used to prune the request sets of every live
session and to ask every session ``views_changed`` -- two deep view
comparisons per session per pass.  It now prunes only the sessions in which
the RMS finished a request since the last pass, decides "did this view
change" once per distinct (last pushed object, new object) pair, and reads
each pushed view's ``value_at(now)`` once.

``ReferencePushRMS`` keeps the previous ``_run_schedule`` -- prune-everything
loop and per-session ``reference_push`` -- verbatim as the oracle;
``PushMachine`` drives it and ``CooRMv2`` through the same steps of the
protocol machine (``tests/support/protocol.py``), whose ``twins`` rule swaps
a session's last-pushed views for equal but *distinct* objects, as an
application that joined one pass later holds.
"""
from __future__ import annotations

import math
import time

from hypothesis import settings
from support.protocol import NP, P, PA, ProtocolMachine

from repro.core import CooRMv2
from repro.core.events import ViewsPushed
from repro.core.request_set import ApplicationRequests
from repro.core.types import NEXT
from repro.core.view import View
from repro.obs import hooks as _obs


def reference_push(rms, result, metrics):
    """The push loop as it was: every session compares both views deeply."""
    default_cid = rms.platform.default_cluster_id()
    empty_view = View.empty()
    for session in rms.connected_sessions():
        non_preemptive = result.non_preemptive_views.get(session.app_id, empty_view)
        preemptive = result.preemptive_views.get(session.app_id, empty_view)
        if session.views_changed(non_preemptive, preemptive):
            session.remember_views(non_preemptive, preemptive)
            if metrics is not None:
                metrics.inc("rms.views_pushed")
            rms.event_log.record(
                ViewsPushed(
                    rms.now,
                    session.app_id,
                    non_preemptive_total=non_preemptive[default_cid].value_at(rms.now),
                    preemptive_total=preemptive[default_cid].value_at(rms.now),
                )
            )
            session.application.on_views(non_preemptive, preemptive)


class ReferencePushRMS(CooRMv2):
    """The RMS with the previous ``_run_schedule``, verbatim."""

    def _run_schedule(self) -> None:
        self._schedule_handle = None
        self._last_schedule_time = self.now

        sessions = self.connected_sessions()
        for session in sessions:
            session.requests.prune_finished()

        applications = {session.app_id: session.requests for session in sessions}
        if not applications:
            return
        usage = None
        if self.scheduler.policy.ordering.needs_usage:
            usage = self.accountant.used_node_seconds_by_app()
        metrics = _obs.METRICS[0]
        profiler = _obs.PROFILER[0]
        if metrics is not None:
            metrics.inc("rms.passes")
        if profiler is None:
            result = self.scheduler.schedule(applications, self.now, usage=usage)
        else:
            started = time.perf_counter()
            try:
                result = self.scheduler.schedule(applications, self.now, usage=usage)
            finally:
                profiler.add("scheduler.pass", time.perf_counter() - started)

        deferred = False
        for request in result.to_start:
            session = self.sessions.get(request.app_id)
            if session is None or not session.alive:
                continue
            if not self._start_request(session, request):
                deferred = True
        if deferred:
            if metrics is not None:
                metrics.inc("rms.deferred_starts")
            self.simulator.schedule(self.rescheduling_interval, self._trigger_schedule)

        reference_push(self, result, metrics)

        if self.kill_protocol_violators:
            self.simulator.schedule(self.violation_grace, self._check_protocol_violations)


class PushMachine(ProtocolMachine):
    reference = ReferencePushRMS


TestPushMachine = PushMachine.TestCase
TestPushMachine.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)


# --------------------------------------------------------------------- #
# The cases the push loop is about, named rather than left to chance
# --------------------------------------------------------------------- #
def test_settled_rigid_applications_and_one_more_joining():
    machine = PushMachine.started()
    machine.steps(
        *[("submit", app, "cluster0", 2, 100.0, NP) for app in "abc"],
        ("advance", 1.0), ("connect", "d"), ("submit", "d", "cluster0", 12, 20.0, NP),
        ("advance", 1.0), ("advance", 10.0),
    )
    pushes = [e for e in machine.worlds[0].rms.event_log if isinstance(e, ViewsPushed)]
    assert {e.app_id for e in pushes} == set("abcd")


def test_twins_compare_equal_and_are_not_pushed_again():
    """Equal but distinct last views: one deep verdict, no push, both worlds."""
    machine = PushMachine.started()
    machine.steps(
        ("submit", "a", "cluster0", 2, math.inf, NP),
        ("submit", "b", "cluster0", 3, math.inf, NP),
        ("advance", 1.0), ("advance", 1.0), ("twins", "a"), ("twins", "b"), ("connect", "d"),
        ("submit", "d", "cluster0", 1, math.inf, NP), ("advance", 5.0),
    )
    for world in machine.worlds:
        world.rms.force_schedule()  # whatever was still due
        before = len(world.rms.event_log)
        world.twins("a")
        world.twins("d")
        world.rms.force_schedule()  # nothing changed but the objects
        assert len(world.rms.event_log) == before


def test_a_resizing_sweep_next_to_a_preallocation_and_a_capacity_change():
    """"a" sweeps and resizes, "b" works inside a pre-allocation, "c" is rigid."""
    PushMachine.started().steps(
        ("submit", "a", "cluster0", 16, math.inf, P),
        ("submit", "b", "cluster0", 6, math.inf, PA), ("submit", "b", "cluster0", 3, 20.0, NP),
        ("submit", "c", "cluster0", 4, 100.0, NP), ("advance", 1.0),
        ("update", 0, NEXT, P, 8, math.inf), ("done", 0, 0), ("advance", 1.0),
        ("set_capacity", 10), ("advance", 1.0),
        ("update", 4, NEXT, P, 12, math.inf), ("done", 4, 0),
        ("twins", "b"), ("advance", 2.5), ("disconnect", "a"), ("advance", 50.0),
    )


def test_only_sessions_that_finished_something_are_pruned(monkeypatch):
    """Entered for the sweep that resized, not for the rigid application."""
    machine = ProtocolMachine.started()
    machine.steps(
        ("submit", "a", "cluster0", 2, math.inf, NP), ("submit", "b", "cluster0", 6, math.inf, P),
        ("advance", 1.0), ("update", 1, NEXT, P, 4, math.inf), ("done", 1, 0),
    )
    pruned = []
    real = ApplicationRequests.prune_finished

    def counting(self):
        pruned.append(self.app_id)
        return real(self)

    monkeypatch.setattr(ApplicationRequests, "prune_finished", counting)
    machine.advance(1.0)
    assert pruned == ["b"]
    # The finished link the resize left behind is still named by its successor.
    rms = machine.worlds[0].rms
    assert len(rms.sessions["b"].requests.preemptible) == 2
    machine.advance(1.0)  # a pass in which nobody finished anything
    rms.force_schedule()
    assert pruned == ["b"]


def test_a_request_finished_behind_the_rms_back_stays_until_pruned_by_hand():
    """The documented contract of the touched-session prune."""
    machine = ProtocolMachine.started()
    machine.steps(("submit", "a", "cluster0", 2, math.inf, NP), ("advance", 1.0))
    world = machine.worlds[0]
    request = world.requests[0]
    request.mark_finished(world.sim.now)  # not through ``rms.done``
    world.rms.force_schedule()
    requests = world.rms.sessions["a"].requests
    assert requests.find(request.request_id) is request
    requests.prune_finished()
    assert requests.find(request.request_id) is None
