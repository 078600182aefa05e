"""Unit tests of the main scheduling algorithm (paper Algorithm 4)."""
from __future__ import annotations

import contextlib
import math
from unittest import mock

import pytest

import repro.core.eqschedule as eqschedule
import repro.core.toview as toview
import repro.policies.sharing as policies_sharing
from repro.core import RelatedHow, Scheduler
from repro.core.events import ViewsPushed
from repro.core.profile import StepFunction
from repro.core.request_set import ApplicationRequests
from repro.core.view import View
from repro.testing import RecordingApp, app_with, make_env, np_, p_, p_set, pa


class TestSchedulerBasics:
    def test_requires_clusters(self):
        with pytest.raises(ValueError):
            Scheduler({})
        with pytest.raises(ValueError):
            Scheduler({"c0": 0})

    def test_full_view(self):
        s = Scheduler({"c0": 32, "c1": 8})
        v = s.full_view()
        assert v.value_at("c0", 1e9) == 32
        assert v.value_at("c1", 0) == 8
        assert s.total_nodes() == 40

    def test_everything_fits_starts_now(self):
        sched = Scheduler({"c0": 32})
        prealloc, nonp = pa(10), np_(5)
        result = sched.schedule({"app": app_with(prealloc, nonp)}, now=0.0)
        started_ids = {r.request_id for r in result.to_start}
        assert prealloc.request_id in started_ids
        assert nonp.request_id in started_ids
        assert prealloc.scheduled_at == pytest.approx(0.0)
        assert nonp.scheduled_at == pytest.approx(0.0)

    def test_non_preemptive_view_shows_whole_free_cluster(self):
        sched = Scheduler({"c0": 32})
        result = sched.schedule({"app": app_with()}, now=0.0)
        assert result.non_preemptive_views["app"]["c0"].value_at(0) == 32

    def test_preemptive_view_excludes_non_preemptible_but_not_preallocations(self):
        sched = Scheduler({"c0": 32})
        prealloc, nonp = pa(20), np_(5)
        prealloc.mark_started(0.0)
        nonp.mark_started(0.0)
        result = sched.schedule({"app": app_with(prealloc, nonp)}, now=10.0)
        # Pre-allocated but unused resources remain available preemptibly:
        # only the 5 non-preemptibly allocated nodes are removed.
        assert result.preemptive_views["app"]["c0"].value_at(10.0) == 27

    def test_preallocation_blocks_other_apps_non_preemptive_view(self):
        sched = Scheduler({"c0": 32})
        prealloc = pa(20)
        prealloc.mark_started(0.0)
        first = app_with(prealloc, app_id="first")
        second = app_with(app_id="second")
        result = sched.schedule({"first": first, "second": second}, now=1.0)
        assert result.non_preemptive_views["second"]["c0"].value_at(1.0) == 12
        # The owner still sees its own pre-allocated space.
        assert result.non_preemptive_views["first"]["c0"].value_at(1.0) == 32


class TestOrderingAndBackfilling:
    def test_applications_are_served_in_connection_order(self):
        sched = Scheduler({"c0": 10})
        first = app_with(np_(8, duration=100), app_id="first")
        second = app_with(np_(8, duration=100), app_id="second")
        result = sched.schedule({"first": first, "second": second}, now=0.0)
        r1 = first.non_preemptible.roots()[0]
        r2 = second.non_preemptible.roots()[0]
        assert r1.scheduled_at == pytest.approx(0.0)
        assert r2.scheduled_at == pytest.approx(100.0)
        assert [r.request_id for r in result.to_start] == [r1.request_id]

    def test_later_small_job_backfills(self):
        sched = Scheduler({"c0": 10})
        first = app_with(np_(8, duration=100), app_id="first")
        second = app_with(np_(10, duration=100), app_id="second")
        third = app_with(np_(2, duration=50), app_id="third")
        result = sched.schedule(
            {"first": first, "second": second, "third": third}, now=0.0
        )
        r3 = third.non_preemptible.roots()[0]
        r2 = second.non_preemptible.roots()[0]
        # The 2-node job fits alongside the 8-node job without delaying the
        # 10-node reservation: conservative back-filling.
        assert r3.scheduled_at == pytest.approx(0.0)
        assert r2.scheduled_at == pytest.approx(100.0)

    def test_non_preemptible_fits_inside_preallocation(self):
        sched = Scheduler({"c0": 10})
        # Another application already pre-allocated 8 nodes forever.
        blocker = pa(8)
        blocker.mark_started(0.0)
        first = app_with(blocker, app_id="first")
        # The second application asks for 6 nodes non-preemptibly: they do
        # not fit outside the pre-allocation, so they can never start.
        second = app_with(np_(6, duration=100), app_id="second")
        sched.schedule({"first": first, "second": second}, now=0.0)
        r2 = second.non_preemptible.roots()[0]
        assert math.isinf(r2.scheduled_at)

    def test_own_preallocation_guarantees_update(self):
        sched = Scheduler({"c0": 10})
        prealloc = pa(8)
        prealloc.mark_started(0.0)
        running = np_(4)
        running.mark_started(0.0)
        grow = np_(8, related_how=RelatedHow.NEXT, related_to=running)
        own = app_with(prealloc, running, grow, app_id="own")
        # Another application's preemptible request fills the rest.
        other = app_with(p_(10), app_id="other")
        sched.schedule({"own": own, "other": other}, now=5.0)
        # The update is guaranteed: it can start as soon as the current
        # request ends, because it fits inside the pre-allocation.
        running_end = running.scheduled_at + running.duration
        assert grow.scheduled_at <= max(5.0, running_end) or not math.isinf(grow.scheduled_at)

    def test_preemptible_requests_share_leftover(self):
        sched = Scheduler({"c0": 12})
        nonp = np_(4)
        nonp.mark_started(0.0)
        a = app_with(nonp, p_(8), app_id="a")
        b = app_with(p_(8), app_id="b")
        result = sched.schedule({"a": a, "b": b}, now=1.0)
        va = result.preemptive_views["a"]["c0"].value_at(1.0)
        vb = result.preemptive_views["b"]["c0"].value_at(1.0)
        assert va + vb <= 12 - 4 + 4  # fairness sanity: both see at most the free pool
        assert va == 4 and vb == 4

    def test_strict_equipartition_flag(self):
        sched = Scheduler({"c0": 16}, policy="coorm-strict")
        a = app_with(p_(2), app_id="a")
        b = app_with(p_(16), app_id="b")
        result = sched.schedule({"a": a, "b": b}, now=0.0)
        assert result.preemptive_views["a"]["c0"].value_at(0) == 8
        assert result.preemptive_views["b"]["c0"].value_at(0) == 8

    def test_repr_mentions_mode(self):
        assert "strict" in repr(Scheduler({"c0": 4}, policy="coorm-strict"))
        assert "filling" in repr(Scheduler({"c0": 4}))


@contextlib.contextmanager
def _counting():
    """Count the calls a pass makes into its expensive primitives.

    ``merges`` counts profile merges (sums and max/min), ``deep_eq`` the
    profile comparisons that identity does not settle, ``views`` the ``View``
    objects built and ``shared_views`` those built while sharing, ``prunes``
    the request-set walks, ``fit`` the fits sharing runs.
    """
    counts = dict.fromkeys(
        (
            "to_view", "merges", "value_at", "partition",
            "deep_eq", "views", "shared_views", "prunes", "fit",
        ),
        0,
    )

    def counted(name, function):
        def wrapper(*args, **kwargs):
            if name != "deep_eq" or args[0] is not args[1]:
                counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def sharing(function):
        def wrapper(*args, **kwargs):
            before = counts["views"]
            result = function(*args, **kwargs)
            counts["shared_views"] += counts["views"] - before
            return result

        return wrapper

    with contextlib.ExitStack() as stack:
        for owner, attribute, name in (
            (toview, "to_view", "to_view"),
            (eqschedule, "to_view", "to_view"),
            (StepFunction, "_combine", "merges"),
            (StepFunction, "value_at", "value_at"),
            (eqschedule, "_partition_interval", "partition"),
            (eqschedule, "fit", "fit"),
            (StepFunction, "__eq__", "deep_eq"),
            (View, "__init__", "views"),
            (View, "_adopt", "views"),
            (ApplicationRequests, "prune_finished", "prunes"),
        ):
            wrapper = counted(name, getattr(owner, attribute))
            stack.enter_context(mock.patch.object(owner, attribute, wrapper))
        share = sharing(policies_sharing.eq_schedule)
        stack.enter_context(mock.patch.object(policies_sharing, "eq_schedule", share))
        yield counts


class TestAPassCostsWhatChanged:
    """Work counts, not timings: what a pass redoes must not depend on how
    many applications are merely running."""

    @staticmethod
    def _second_and_third_pass(n_running):
        scheduler = Scheduler({"c0": 2 * n_running})
        applications = {}
        for i in range(n_running):
            running = np_(1, duration=100.0)
            running.mark_started(0.0)
            applications[f"run{i}"] = app_with(running, app_id=f"run{i}")
        scheduler.schedule(applications, now=0.0)
        applications["new"] = app_with(np_(1, duration=50.0), app_id="new")
        with _counting() as second:
            result = scheduler.schedule(applications, now=1.0)
        assert [r.app_id for r in result.to_start] == ["new"]
        assert result.non_preemptive_views["new"]["c0"].value_at(1.0) == n_running
        with _counting() as third:  # nothing at all changed
            scheduler.schedule(applications, now=1.0)
        return second, third

    def test_one_submit_costs_the_same_among_10_and_80_running_applications(self):
        few, few_unchanged = self._second_and_third_pass(10)
        many, many_unchanged = self._second_and_third_pass(80)
        assert few == many
        assert few_unchanged == many_unchanged
        # One toView (the submitted set) and the merges of one fit.
        assert few["to_view"] == 1
        assert 0 < few["merges"] <= 8
        # Sharing with nobody holding a preemptible request: the closed form,
        # no partition row, no evaluation, one view for everybody.
        assert few["partition"] == 0
        assert few["shared_views"] == 1
        assert few["value_at"] == 0
        assert few_unchanged["partition"] == 0 and few_unchanged["shared_views"] == 1

    def test_a_pass_without_any_change_runs_no_to_view(self):
        _, unchanged = self._second_and_third_pass(10)
        assert unchanged["to_view"] == 0


class TestASettledApplicationCostsItsPush:
    """Work counts through a real ``CooRMv2`` pass: a running rigid
    application costs the pass its view push and no comparison, view or walk
    of its own."""

    @staticmethod
    def _submit_pass_and_quiet_pass(n_running):
        simulator, _, rms = make_env(nodes=2 * n_running + 3)
        for i in range(n_running):
            rms.connect(RecordingApp(f"run{i}"), f"run{i}")
            rms.submit(f"run{i}", np_(1 + i % 2, duration=100.0, cluster="cluster0"))
        simulator.run(until=3.0)
        assert all(len(s.requests.non_preemptible.started()) == 1 for s in rms.connected_sessions())
        rms.force_schedule()  # what the first pass placed is folded in: everybody is settled
        rms.connect(RecordingApp("new"), "new")
        rms.submit("new", np_(1, duration=50.0, cluster="cluster0"))
        pushed_before = len(rms.event_log.of_kind(ViewsPushed))
        with _counting() as submit_pass:
            simulator.run(until=4.0)  # the pass that places and starts the request
        # Everybody's views changed, everybody is told: that is what a pass owes.
        assert len(rms.event_log.of_kind(ViewsPushed)) - pushed_before == n_running + 1
        # The started request moves from placed to folded: those served before
        # its application now see it too.
        rms.force_schedule()
        pushed_before = len(rms.event_log.of_kind(ViewsPushed))
        with _counting() as quiet_pass:
            rms.force_schedule()  # nothing at all changed
        assert len(rms.event_log.of_kind(ViewsPushed)) == pushed_before
        return submit_pass, quiet_pass

    def test_one_submit_costs_the_same_among_10_and_80_running_applications(self):
        few, few_quiet = self._submit_pass_and_quiet_pass(10)
        many, many_quiet = self._submit_pass_and_quiet_pass(80)
        assert few == many
        assert few_quiet == many_quiet
        # One verdict per distinct (last pushed, new) pair of view objects --
        # the running applications share theirs -- not two per session.
        assert 0 < few["deep_eq"] <= 4
        assert 0 < few["views"] <= 12
        # Sharing among idle applications is closed-form: no partition row,
        # one view for all of them.
        assert few["partition"] == 0
        assert few["shared_views"] == 1
        # The totals a push records are read once per verdict, with it, not
        # once per session: the idle applications share one verdict, the new
        # one has its own.
        assert few["value_at"] <= 4
        # Nobody finished anything: no request set is walked.
        assert few["prunes"] == 0

    def test_a_pass_in_which_nothing_changed_compares_nothing(self):
        _, quiet = self._submit_pass_and_quiet_pass(10)
        assert quiet["deep_eq"] == 0
        assert quiet["to_view"] == quiet["merges"] == quiet["prunes"] == quiet["partition"] == 0
        assert quiet["shared_views"] == 1

    def test_a_finished_request_is_pruned_where_it_finished_and_only_there(self):
        simulator, _, rms = make_env(nodes=8)
        for name in ("stays", "updates"):
            rms.connect(RecordingApp(name), name)
        rms.submit("stays", np_(2, cluster="cluster0"))
        first = rms.submit("updates", p_(4, cluster="cluster0"))
        simulator.run(until=2.0)
        rms.submit("updates", p_(2, cluster="cluster0", related_how=RelatedHow.NEXT, related_to=first))
        rms.done("updates", first)
        with _counting() as counts:
            simulator.run(until=4.0)
        assert counts["prunes"] == 1


class TestSharingRefitsOnlyPendingRequests:
    """Work counts: sharing fits only where a pending preemptible request is
    left to place, and reschedules nobody against the availability itself."""

    @staticmethod
    def _two_sweeps(second_started):
        """Two sweeps asking 8 of 10 nodes each; the first one runs."""
        first, second = p_(8), p_(8)
        first.mark_started(0.0)
        if second_started:
            second.mark_started(0.0)
        applications = {
            "psa1": app_with(first, app_id="psa1"),
            "psa2": app_with(second, app_id="psa2"),
        }
        with _counting() as counts:
            result = Scheduler({"c0": 10}).schedule(applications, now=1.0)
        return counts, result, first, second

    def test_a_settled_sweep_costs_sharing_no_fit(self):
        counts, result, first, second = self._two_sweeps(second_started=True)
        assert counts["fit"] == 0
        # Steps 1 and 3 still toView both: n_alloc is read off each own view.
        assert counts["to_view"] == 4
        assert first.n_alloc == second.n_alloc == 5  # congested: 5 each
        assert result.to_start == []

    def test_only_the_waiting_sweep_is_fitted(self):
        counts, result, first, second = self._two_sweeps(second_started=False)
        assert counts["fit"] == 2  # steps 1 and 3, for the second sweep only
        assert counts["to_view"] == 4
        # Placed beside the first sweep's 8 nodes, it asks for 2 and is shown 5.
        assert (second.scheduled_at, second.n_alloc) == (1.0, 5)
        assert result.to_start == [second]

    @staticmethod
    def _lone_sweep(strict):
        """One pending sweep of 3 nodes beside an idle application, against an
        availability of 6 nodes until t=100 and 10 after: the sweep's own
        placement adds a breakpoint at t=1 that the availability lacks."""
        available = View({"c0": StepFunction([0.0, 100.0], [6.0, 10.0])})
        sweep = p_(3)
        sets = {"psa": p_set(sweep), "rigid": p_set()}
        with _counting() as counts:
            views = eqschedule.eq_schedule(sets, available, 1.0, strict=strict)
        assert (sweep.scheduled_at, sweep.n_alloc) == (1.0, 3)
        return counts, views["psa"]["c0"], available["c0"]

    def test_a_lone_busy_application_under_filling_is_shown_the_availability_itself(self):
        counts, shown, own = self._lone_sweep(strict=False)
        assert shown is own
        assert counts["to_view"] == 1 and counts["fit"] == 1

    def test_under_strict_sharing_it_is_rescheduled_against_its_half(self):
        counts, shown, own = self._lone_sweep(strict=True)
        assert (shown.times, shown.values) == ((0.0, 100.0), (3.0, 5.0))
        # Strict views read no demand: only the reschedule against its half.
        assert counts["to_view"] == 1 and counts["fit"] == 1
