"""Unit tests of the pluggable scheduling-policy subsystem."""
from __future__ import annotations

import math

import pytest

from repro.core import Scheduler
from repro.core.cbf import CbfJob, ConservativeBackfillQueue
from repro.core.eqschedule import weighted_max_min_fair
from repro.experiments.runner import EvaluationScale, run_scenario
from repro.federation.spec import ClusterSpec, FederationSpec
from repro.policies import (
    BACKFILLS,
    DEFAULT_POLICY,
    ORDERINGS,
    POLICIES,
    SHARINGS,
    EasyBackfillQueue,
    SchedulingContext,
    SchedulingPolicy,
    WeightedMaxMinSharing,
    get_policy,
    resolve_policy,
)
from repro.policies.registry import policy_label
from repro.testing import RecordingApp, app_with, make_env, np_, p_, p_set, pa
from repro.workloads.generator import RigidJobSpec


class TestRegistry:
    def test_default_policy_is_registered(self):
        assert DEFAULT_POLICY in POLICIES
        assert "coorm-strict" in POLICIES

    def test_get_policy_builds_fresh_instances(self):
        a, b = get_policy("coorm"), get_policy("coorm")
        assert a.ordering is not b.ordering
        assert a.backfill is not b.backfill
        assert a.sharing is not b.sharing

    def test_default_composition_is_algorithm_4(self):
        stages = POLICIES.get(DEFAULT_POLICY)
        assert stages.ordering == "fcfs"
        assert stages.backfill == "conservative"
        assert stages.sharing == "eq-filling"

    def test_unknown_policy_raises_with_known_names(self):
        with pytest.raises(KeyError, match="coorm"):
            get_policy("nope")

    def test_resolve_none_is_default(self):
        assert resolve_policy(None).name == DEFAULT_POLICY

    def test_resolve_policy_object_is_identity(self):
        policy = get_policy("easy")
        assert resolve_policy(policy) is policy

    def test_resolve_stage_mapping(self):
        policy = resolve_policy({"ordering": "sjf", "sharing": "strict-eq"})
        assert policy.ordering.name == "sjf"
        assert policy.backfill.name == "conservative"  # defaulted
        assert policy.sharing.name == "strict-eq"
        assert policy.name == "custom"

    def test_resolve_rejects_unknown_mapping_keys(self):
        with pytest.raises(ValueError, match="does not understand"):
            resolve_policy({"ordering": "fcfs", "color": "blue"})

    def test_resolve_rejects_other_types(self):
        with pytest.raises(TypeError):
            resolve_policy(42)

    def test_policy_label(self):
        assert policy_label(None) == DEFAULT_POLICY
        assert policy_label("easy") == "easy"
        assert policy_label({"ordering": "sjf", "name": "mine"}) == "mine"
        with pytest.raises(KeyError):
            policy_label("unknown-policy")

    def test_to_dict_round_trips_through_resolve(self):
        policy = get_policy("maxmin-weighted")
        again = resolve_policy(policy.to_dict())
        assert again.stage_names() == policy.stage_names()

    def test_describe_mentions_stages(self):
        text = get_policy("easy").describe()
        assert "easy" in text and "ordering=fcfs" in text


class TestOrderings:
    def _apps(self):
        return {
            "slow": app_with(np_(4, duration=500.0), app_id="slow"),
            "fast": app_with(np_(2, duration=50.0), app_id="fast"),
            "big": app_with(np_(8, duration=400.0), app_id="big"),
        }

    def test_fcfs_keeps_connection_order(self):
        ordering = ORDERINGS.get("fcfs")()
        apps = self._apps()
        assert ordering.order(apps, SchedulingContext(now=0.0)) == ["slow", "fast", "big"]

    def test_sjf_puts_shortest_pending_first(self):
        ordering = ORDERINGS.get("sjf")()
        apps = self._apps()
        assert ordering.order(apps, SchedulingContext(now=0.0)) == ["fast", "big", "slow"]

    def test_largest_area_puts_biggest_first(self):
        ordering = ORDERINGS.get("largest-area")()
        apps = self._apps()
        # areas: slow 2000, fast 100, big 3200.
        assert ordering.order(apps, SchedulingContext(now=0.0)) == ["big", "slow", "fast"]

    def test_fair_share_prefers_light_consumers(self):
        ordering = ORDERINGS.get("fair-share")()
        apps = self._apps()
        ctx = SchedulingContext(now=0.0, usage={"slow": 10.0, "fast": 9000.0})
        # 'big' has no usage at all -> first; then slow; the hog goes last.
        assert ordering.order(apps, ctx) == ["big", "slow", "fast"]

    def test_infinite_durations_order_last_under_sjf(self):
        ordering = ORDERINGS.get("sjf")()
        apps = {
            "open": app_with(pa(4), app_id="open"),
            "short": app_with(np_(1, duration=5.0), app_id="short"),
        }
        assert ordering.order(apps, SchedulingContext(now=0.0)) == ["short", "open"]

    def test_job_ordering_disciplines(self):
        jobs = [
            RigidJobSpec("a", 2.0, 5, 100.0),
            RigidJobSpec("b", 0.0, 1, 10.0),
            RigidJobSpec("c", 1.0, 8, 50.0),
        ]
        ids = lambda ordered: [j.job_id for j in ordered]  # noqa: E731
        assert ids(ORDERINGS.get("fcfs")().order_jobs(jobs)) == ["b", "c", "a"]
        assert ids(ORDERINGS.get("sjf")().order_jobs(jobs)) == ["b", "c", "a"]
        assert ids(ORDERINGS.get("largest-area")().order_jobs(jobs)) == ["a", "c", "b"]


class TestSchedulerPolicyIntegration:
    def test_ordering_must_be_a_permutation(self):
        bad = get_policy("coorm")
        bad.ordering.order = lambda apps, ctx: ["only-one"]
        scheduler = Scheduler({"c0": 8}, policy=bad)
        with pytest.raises(ValueError, match="permutation"):
            scheduler.schedule({"a": app_with(app_id="a")}, now=0.0)

    @pytest.mark.parametrize(
        "order",
        [["a"], ["a", "a"], ["a", "b", "b"], ["a", "c"], []],
        ids=["dropped", "duplicated", "extra", "unknown", "empty"],
    )
    def test_ordering_that_drops_or_duplicates_an_id_is_rejected(self, order):
        bad = get_policy("coorm")
        bad.ordering.order = lambda apps, ctx: order
        scheduler = Scheduler({"c0": 8}, policy=bad)
        applications = {"a": app_with(app_id="a"), "b": app_with(app_id="b")}
        with pytest.raises(ValueError, match="'fcfs' did not return a permutation"):
            scheduler.schedule(applications, now=0.0)

    def test_scheduler_accepts_policy_name_and_mapping(self):
        assert Scheduler({"c0": 8}, policy="easy").policy.backfill.name == "easy"
        mapped = Scheduler({"c0": 8}, policy={"sharing": "strict-eq"})
        assert mapped.policy.sharing.name == "strict-eq"

    def test_strict_flag_conflicting_with_policy_is_rejected(self):
        # A non-strict policy would silently drop the requested baseline.
        with pytest.raises(ValueError, match="conflicts with policy 'easy'"):
            run_scenario(EvaluationScale.tiny(), strict_equipartition=True, policy="easy")
        # Agreeing combinations stay valid.
        for policy in ("coorm-strict", None):
            result = run_scenario(
                EvaluationScale.tiny(), strict_equipartition=True, policy=policy
            )
            assert result.federation.rms_list()[0].policy.name == "coorm-strict"

    def test_strict_flag_conflicting_with_a_member_policy_is_rejected(self):
        """The member that pins its own policy is checked too."""
        federation = FederationSpec(
            clusters=(ClusterSpec(name="a"), ClusterSpec(name="b", policy="easy"))
        )
        with pytest.raises(ValueError, match="conflicts with policy 'easy'"):
            run_scenario(
                EvaluationScale.tiny(), strict_equipartition=True, federation=federation
            )

    def test_figure_runners_reject_policy_sweeps(self):
        from repro.campaign.registry import builtin_scenarios, get_runner
        from repro.core.errors import SpecError

        fig = builtin_scenarios()["fig1"]
        with pytest.raises(SpecError, match="ignores scheduling policies") as refused:
            fig.expand(policies=["coorm", "easy"])
        assert refused.value.path == "policy"
        # The default policy is what actually runs, so it stays accepted.
        (coorm,) = fig.expand(policies=["coorm"])
        assert get_runner(fig.runner)(coorm, seed=0)

    def test_sjf_lets_short_job_reserve_first(self):
        # 10 nodes; two 8-node jobs cannot run together.  Under FCFS the
        # long job (connected first) wins; under SJF the short one does.
        for policy, winner in (("coorm", "long"), ("sjf", "short")):
            long_app = app_with(np_(8, duration=500.0), app_id="long")
            short_app = app_with(np_(8, duration=50.0), app_id="short")
            scheduler = Scheduler({"c0": 10}, policy=policy)
            scheduler.schedule({"long": long_app, "short": short_app}, now=0.0)
            starts = {
                "long": long_app.non_preemptible.roots()[0].scheduled_at,
                "short": short_app.non_preemptible.roots()[0].scheduled_at,
            }
            assert starts[winner] == pytest.approx(0.0), (policy, starts)

    def test_easy_cancels_non_head_future_reservations(self):
        # Conservative: the second 8-node job reserves t=100.  EASY: it is
        # not the head, cannot start now, so it keeps no reservation at all.
        for policy, expected in (("coorm", 100.0), ("easy", math.inf)):
            first = app_with(np_(8, duration=100.0), app_id="first")
            second = app_with(np_(8, duration=100.0), app_id="second")
            scheduler = Scheduler({"c0": 10}, policy=policy)
            scheduler.schedule({"first": first, "second": second}, now=0.0)
            r2 = second.non_preemptible.roots()[0]
            if math.isinf(expected):
                assert math.isinf(r2.scheduled_at)
                assert r2.n_alloc == 0
            else:
                assert r2.scheduled_at == pytest.approx(expected)

    def test_easy_head_keeps_its_reservation(self):
        blocker = pa(8)
        blocker.mark_started(0.0)
        first = app_with(blocker, app_id="first")
        waiting = app_with(np_(8, duration=100.0), app_id="waiting")
        scheduler = Scheduler({"c0": 10}, policy="easy")
        scheduler.schedule({"first": first, "waiting": waiting}, now=0.0)
        # 'waiting' is the head (first app with pending work): conservative
        # treatment, so its request is scheduled (inside the blocker's
        # pre-allocation it can never run; outside there are only 2 nodes),
        # i.e. it keeps whatever reservation fit() computed.
        r = waiting.non_preemptible.roots()[0]
        assert math.isinf(r.scheduled_at)  # genuinely never fits: blocked forever

    @pytest.mark.parametrize("policy, first", [("fair-share", "light"), ("coorm", "hog")])
    def test_fair_share_through_the_rms(self, policy, first):
        # 'hog' uses the whole cluster for 100 s; then both ask for all of it
        # at once, 'hog' first.  Fair-share serves the application that used
        # less first; FCFS keeps connection order.
        sim, _platform, rms = make_env(nodes=10, policy=policy)
        apps = {name: RecordingApp(name) for name in ("hog", "light")}
        for name, app in apps.items():
            rms.connect(app, name)
        rms.submit("hog", np_(10, 100.0, "cluster0"))
        sim.run(until=200.0)
        assert rms.used_node_seconds == {"hog": 1000.0}
        for name in apps:
            rms.submit(name, np_(10, 50.0, "cluster0"))
        sim.run(until=400.0)
        started = {name: app.started[-1][0].started_at for name, app in apps.items()}
        assert min(started, key=started.get) == first
        assert abs(started["hog"] - started["light"]) == 50.0


class TestWeightedMaxMin:
    def test_uniform_weights_match_max_min(self):
        from repro.core import max_min_fair

        demands = [7, 1, 4, 9]
        assert weighted_max_min_fair(demands, [1, 1, 1, 1], 12) == max_min_fair(demands, 12)

    def test_weights_skew_the_split(self):
        alloc = weighted_max_min_fair([10, 10], [3, 1], 12)
        assert sum(alloc) == 12
        assert alloc[0] > alloc[1]

    def test_never_exceeds_demand_or_capacity(self):
        alloc = weighted_max_min_fair([2, 100, 5], [1, 2, 5], 20)
        assert sum(alloc) <= 20
        assert all(a <= d for a, d in zip(alloc, [2, 100, 5]))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            weighted_max_min_fair([1], [0.0], 4)
        with pytest.raises(ValueError):
            weighted_max_min_fair([1, 2], [1.0], 4)

    def test_sharing_strategy_splits_by_weight(self):
        from repro.core import View

        sharing = WeightedMaxMinSharing(weights={"a": 3.0, "b": 1.0})
        views = sharing.share(
            {"a": p_set(p_(16)), "b": p_set(p_(16))},
            View.constant({"c0": 16}),
            now=0.0,
        )
        va = views["a"]["c0"].value_at(0.0)
        vb = views["b"]["c0"].value_at(0.0)
        assert va + vb <= 16
        assert va == 12 and vb == 4

    def test_sharing_rejects_non_positive_weights(self):
        with pytest.raises(ValueError):
            WeightedMaxMinSharing(weights={"a": -1.0})

    def test_uncongested_filling_shows_leftover(self):
        from repro.core import View

        sharing = WeightedMaxMinSharing()
        views = sharing.share(
            {"a": p_set(p_(2)), "b": p_set()},
            View.constant({"c0": 16}),
            now=0.0,
        )
        # 'a' sees everything 'b' leaves free; idle 'b' sees its slice.
        assert views["a"]["c0"].value_at(0.0) == 16
        assert views["b"]["c0"].value_at(0.0) >= 8


class TestEasyBackfillQueue:
    JOBS = [
        ("j0", 4, 100.0, 0.0),
        ("j1", 2, 100.0, 1.0),
        ("j2", 9, 50.0, 2.0),
        ("j3", 10, 150.0, 3.0),
        ("j4", 1, 50.0, 4.0),
        ("j5", 1, 150.0, 5.0),
    ]

    @staticmethod
    def _cbf_jobs(spec):
        return [CbfJob(j, n, d, s) for j, n, d, s in spec]

    def test_backfills_aggressively_where_cbf_reserves(self):
        easy = EasyBackfillQueue(10)
        jobs = self._cbf_jobs(self.JOBS)
        easy.submit_many(jobs)
        starts = {j.job_id: j.start_time for j in jobs}
        # j5 (1 node) fits beside the head's shadow and starts immediately;
        # under conservative backfilling it would wait until t=301.
        assert starts["j5"] == pytest.approx(5.0)

        conservative = ConservativeBackfillQueue(10)
        cjobs = self._cbf_jobs(self.JOBS)
        conservative.submit_many(cjobs)
        cstarts = {j.job_id: j.start_time for j in cjobs}
        assert cstarts["j5"] == pytest.approx(301.0)
        # The backfiller may delay the later wide job -- the EASY trade-off.
        assert starts["j3"] >= cstarts["j3"]

    def test_never_delays_the_queue_head(self):
        easy = EasyBackfillQueue(10)
        jobs = self._cbf_jobs(
            [("a", 8, 100.0, 0.0), ("b", 10, 50.0, 1.0), ("c", 2, 40.0, 2.0)]
        )
        easy.submit_many(jobs)
        starts = {j.job_id: j.start_time for j in jobs}
        # c backfills [2, 42) on the 2 free nodes; b (the head) still starts
        # exactly when a ends.
        assert starts == {"a": 0.0, "b": 100.0, "c": 2.0}

    def test_rejects_oversized_jobs(self):
        from repro.core import CapacityError

        with pytest.raises(CapacityError):
            EasyBackfillQueue(4).submit_many([CbfJob("big", 5, 10.0)])
        with pytest.raises(CapacityError):
            EasyBackfillQueue(0)

    def test_metrics_mirror_conservative_queue(self):
        easy = EasyBackfillQueue(10)
        easy.submit_many(self._cbf_jobs([("a", 4, 100.0, 0.0), ("b", 4, 50.0, 0.0)]))
        assert easy.makespan() == pytest.approx(100.0)
        assert easy.mean_wait_time() == pytest.approx(0.0)
        assert 0.0 < easy.utilisation() <= 1.0

    def test_empty_submit(self):
        easy = EasyBackfillQueue(4)
        assert easy.submit_many([]) == []
        assert easy.makespan() == 0.0
        assert easy.mean_wait_time() == 0.0
        assert easy.utilisation() == 0.0


class TestPolicyCli:
    def test_policy_list_prints_every_policy(self, capsys):
        from repro.campaign.cli import main

        assert main(["policy", "list"]) == 0
        out = capsys.readouterr().out
        for name in POLICIES.names():
            assert name in out

    def test_policy_describe(self, capsys):
        from repro.campaign.cli import main

        assert main(["policy", "describe", "easy"]) == 0
        out = capsys.readouterr().out
        assert "easy" in out and "fcfs" in out

    def test_policy_describe_json(self, capsys):
        import json

        from repro.campaign.cli import main

        assert main(["policy", "describe", "coorm", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "name": "coorm",
            "ordering": "fcfs",
            "backfill": "conservative",
            "sharing": "eq-filling",
        }

    def test_policy_describe_unknown_fails(self, capsys):
        from repro.campaign.cli import main

        assert main(["policy", "describe", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_policy_stages_lists_every_stage(self, capsys):
        from repro.campaign.cli import main

        assert main(["policy", "stages"]) == 0
        out = capsys.readouterr().out
        for name in ORDERINGS.names() + BACKFILLS.names() + SHARINGS.names():
            assert name in out

    def test_campaign_run_rejects_unknown_policy(self, capsys):
        from repro.campaign.cli import main

        assert main(["campaign", "run", "--scenarios", "fig1", "--policies", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err


class TestBatchBaselinePolicies:
    JOBS = [
        RigidJobSpec("j1", 0.0, 8, 100.0),
        RigidJobSpec("j2", 1.0, 10, 50.0),
        RigidJobSpec("j3", 2.0, 2, 300.0),
        RigidJobSpec("j4", 3.0, 2, 30.0),
    ]

    def test_default_policy_is_classical_fcfs_cbf(self):
        from repro.baselines import BatchSchedulerBaseline

        baseline = BatchSchedulerBaseline(10)
        baseline.run(self.JOBS)
        starts = {job.job_id: job.start_time for job in baseline.queue.jobs}
        assert starts == {"j1": 0.0, "j2": 100.0, "j3": 150.0, "j4": 3.0}
        assert isinstance(baseline.queue, ConservativeBackfillQueue)

    def test_sjf_policy_changes_the_queue_order(self):
        from repro.baselines import BatchSchedulerBaseline

        baseline = BatchSchedulerBaseline(10, policy="sjf")
        baseline.run(self.JOBS)
        starts = {job.job_id: job.start_time for job in baseline.queue.jobs}
        assert starts["j2"] < 100.0  # the 50 s job no longer waits for j1

    def test_easy_policy_uses_the_easy_queue(self):
        from repro.baselines import BatchSchedulerBaseline

        baseline = BatchSchedulerBaseline(10, policy="easy")
        assert isinstance(baseline.queue, EasyBackfillQueue)
        baseline.run(self.JOBS)
        assert len(baseline.queue.jobs) == len(self.JOBS)

    def test_policy_object_is_accepted(self):
        from repro.baselines import BatchSchedulerBaseline

        policy = get_policy("largest-area")
        baseline = BatchSchedulerBaseline(10, policy=policy)
        assert isinstance(baseline.policy, SchedulingPolicy)
        jobs = baseline.run(self.JOBS)
        # largest area first: j3 (600 node-seconds) outranks j4 (60).
        assert jobs[0].job_id in {"j1", "j3"}
