"""Unit tests of the fault-injection layer: plans, admission, injector."""
from __future__ import annotations

import json

import pytest

from repro.apps.rigid import RigidApplication
from repro.campaign import ScenarioSpec
from repro.core import AdmissionError, Request, RequestType
from repro.core.errors import SpecError
from repro.faults import (
    FAULT_PLANS,
    AdmissionController,
    AdmissionSpec,
    CircuitBreaker,
    ElasticRule,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    TokenBucket,
    get_fault_plan,
    resolve_fault_plan,
)
from repro.experiments.runner import EvaluationScale, run_scenario
from repro.federation import ClusterSpec, Federation, FederationSpec, locality_group
from repro.sim import Simulator
from repro.testing import make_env, RecordingApp
from repro.traces.convert import ConvertedJob


# --------------------------------------------------------------------- #
# Declarative plans
# --------------------------------------------------------------------- #
class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError, match="time must be >= 0"):
            FaultEvent(time=-1.0, kind="crash", member="c0", nodes=1)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(time=0.0, kind="meteor", member="c0")
        with pytest.raises(ValueError, match="member name"):
            FaultEvent(time=0.0, kind="crash", member="", nodes=1)
        with pytest.raises(ValueError, match="member: must be a string, got list"):
            FaultEvent(time=0.0, kind="crash", member=["#0"], nodes=1)
        with pytest.raises(ValueError, match="positive node count"):
            FaultEvent(time=0.0, kind="crash", member="c0", nodes=0)
        with pytest.raises(ValueError, match="whole member"):
            FaultEvent(time=0.0, kind="outage", member="c0", nodes=4)

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="does not understand"):
            FaultEvent.from_dict(
                {"time": 0.0, "kind": "crash", "member": "c0", "nodes": 1, "oops": 1}
            )


class TestElasticRule:
    def test_validation(self):
        with pytest.raises(ValueError, match="interval must be positive"):
            ElasticRule(member="c0", interval=0.0, until=10.0)
        with pytest.raises(ValueError, match="member: must be a string, got int"):
            ElasticRule(member=1, interval=1.0, until=10.0)
        with pytest.raises(ValueError, match="start <= until"):
            ElasticRule(member="c0", interval=1.0, until=5.0, start=10.0)
        with pytest.raises(ValueError, match="low_util < high_util"):
            ElasticRule(member="c0", interval=1.0, until=5.0,
                        low_util=0.9, high_util=0.5)
        with pytest.raises(ValueError, match="max_nodes must be >= min_nodes"):
            ElasticRule(member="c0", interval=1.0, until=5.0,
                        min_nodes=8, max_nodes=4)

    def test_check_grid_is_finite_and_excludes_start(self):
        rule = ElasticRule(member="c0", interval=10.0, until=35.0, start=5.0)
        assert rule.check_times() == [15.0, 25.0, 35.0]

    def test_check_grid_tolerates_float_endpoints(self):
        rule = ElasticRule(member="c0", interval=0.1, until=0.3)
        assert len(rule.check_times()) == 3


class TestAdmissionSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            AdmissionSpec(rate=-1.0)
        with pytest.raises(ValueError, match="burst"):
            AdmissionSpec(burst=0)
        with pytest.raises(ValueError, match="failure_threshold"):
            AdmissionSpec(failure_threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            AdmissionSpec(cooldown=0.0)


class TestFaultPlan:
    def test_promotes_mappings_and_round_trips_through_json(self):
        plan = FaultPlan(
            name="p",
            events=({"time": 5.0, "kind": "crash", "member": "#0", "nodes": 2},),
            elastic=({"member": "#1", "interval": 10.0, "until": 50.0},),
            admission={"rate": 1.0, "burst": 4},
            jitter=3.0,
            max_respawns=2,
        )
        assert isinstance(plan.events[0], FaultEvent)
        assert isinstance(plan.elastic[0], ElasticRule)
        assert isinstance(plan.admission, AdmissionSpec)
        text = json.dumps(plan.to_dict(), sort_keys=True, allow_nan=False)
        assert FaultPlan.from_dict(json.loads(text)) == plan

    def test_validation(self):
        with pytest.raises(ValueError, match="needs a name"):
            FaultPlan(name="")
        with pytest.raises(ValueError, match="jitter"):
            FaultPlan(name="p", jitter=-1.0)
        with pytest.raises(ValueError, match="max_respawns"):
            FaultPlan(name="p", max_respawns=-1)

    def test_label_mentions_every_section(self):
        plan = get_fault_plan("flaky-nodes")
        assert "events" in plan.label() and "admission" in plan.label()

    def test_registry(self):
        assert {"flaky-nodes", "blackout", "elastic-tide"} <= set(FAULT_PLANS.names())
        with pytest.raises(KeyError, match="unknown fault plan"):
            get_fault_plan("nope")

    def test_resolve_accepts_name_mapping_and_plan(self):
        plan = get_fault_plan("blackout")
        assert resolve_fault_plan("blackout") == plan
        assert resolve_fault_plan(plan) is plan
        assert resolve_fault_plan(plan.to_dict()) == plan
        with pytest.raises(TypeError, match="plan name, mapping or FaultPlan"):
            resolve_fault_plan(42)



# --------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------- #
class TestTokenBucket:
    def test_zero_rate_never_throttles(self):
        bucket = TokenBucket(rate=0.0, burst=1)
        assert all(bucket.try_take(0.0) for _ in range(100))

    def test_burst_exhausts_then_refills_in_sim_time(self):
        bucket = TokenBucket(rate=0.5, burst=2)
        assert bucket.try_take(0.0) and bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst spent
        assert not bucket.try_take(1.0)  # only half a token back
        assert bucket.try_take(2.0)  # one full token refilled
        assert not bucket.try_take(2.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        bucket.try_take(0.0)
        assert bucket.try_take(1000.0) and bucket.try_take(1000.0)
        assert not bucket.try_take(1000.0)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=10.0)
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.CLOSED and breaker.allows(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allows(5.0)
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(1.0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        assert not breaker.allows(9.0)
        assert breaker.allows(10.0)  # cooldown elapsed: one probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_re_trips_immediately(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=10.0)
        for _ in range(3):
            breaker.record_failure(0.0)
        assert breaker.allows(10.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        # One probe failure re-trips at once -- no second streak of three.
        breaker.record_failure(10.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2
        assert breaker.opened_at == 10.0  # cooldown restarted
        assert not breaker.allows(15.0)


class TestAdmissionController:
    def make(self, **spec_kwargs):
        spec = AdmissionSpec(**spec_kwargs)
        return AdmissionController(spec, ["east", "west"])

    def test_admits_by_default(self):
        controller = self.make()
        assert controller.admit("east", 0.0) == (True, None)
        assert controller.rejections == 0

    def test_throttles_per_member(self):
        controller = self.make(rate=0.001, burst=1)
        assert controller.admit("east", 0.0) == (True, None)
        assert controller.admit("east", 0.0) == (False, "throttled")
        assert controller.admit("west", 0.0) == (True, None)  # separate bucket
        assert controller.rejections == 1

    def test_open_breaker_rejects_without_burning_tokens(self):
        controller = self.make(rate=0.001, burst=1, failure_threshold=1,
                               cooldown=100.0)
        controller.record_failure("east", 0.0)
        assert controller.admit("east", 0.0) == (False, "breaker-open")
        assert controller.buckets["east"].tokens == 1.0  # untouched
        assert controller.breaker_trips() == 1
        assert ("east", "open") in controller.states()

    def test_success_closes_the_half_open_probe(self):
        controller = self.make(failure_threshold=1, cooldown=10.0)
        controller.record_failure("east", 0.0)
        ok, _reason = controller.admit("east", 10.0)
        assert ok
        controller.record_success("east")
        assert ("east", "closed") in controller.states()


# --------------------------------------------------------------------- #
# RMS capacity mutation (the crash/restart primitive)
# --------------------------------------------------------------------- #
class TestCapacityMutation:
    def test_shrink_kills_victim_owners_and_reports_them(self):
        sim, platform, rms = make_env(nodes=4)
        app = RecordingApp("a")
        rms.connect(app, "a")
        rms.submit("a", Request("cluster0", 4, 100.0, RequestType.NON_PREEMPTIBLE))
        sim.run(10.0)
        killed = rms.set_capacity(2, reason="test crash")
        assert killed == ["a"]
        assert app.killed_reason == "test crash"
        assert platform.total_nodes() == 2

    def test_grow_after_shrink_restores_the_same_node_ids(self):
        _sim, platform, rms = make_env(nodes=8)
        cluster = platform.cluster("cluster0")
        before = sorted(cluster.node_ids)
        rms.set_capacity(3)
        assert sorted(cluster.node_ids) == before[:3]  # highest IDs shed first
        rms.set_capacity(8)
        assert sorted(cluster.node_ids) == before  # lowest missing IDs re-added

    def test_noop_and_negative_capacity(self):
        _sim, _platform, rms = make_env(nodes=4)
        assert rms.set_capacity(4) == []
        with pytest.raises(ValueError, match="negative"):
            rms.set_capacity(-1)

    def test_release_capacity_never_kills_running_apps(self):
        sim, platform, rms = make_env(nodes=8)
        app = RecordingApp("a")
        rms.connect(app, "a")
        rms.submit("a", Request("cluster0", 4, 100.0, RequestType.NON_PREEMPTIBLE))
        sim.run(10.0)
        # Only 4 nodes are free; asking for 6 sheds just those 4.
        assert rms.release_capacity(6) == 4
        assert platform.total_nodes() == 4
        assert app.killed_reason is None
        assert rms.release_capacity(1) == 0  # nothing free any more
        assert rms.release_capacity(0) == 0

    def test_shrink_kills_owners_in_ascending_victim_id_order(self):
        """Not connection order: "a" connected first, but "b" holds the lowest
        victim, so "b" dies first."""
        sim, platform, rms = make_env(nodes=5)
        rms.connect(RecordingApp("a"), "a")
        rms.connect(RecordingApp("b"), "b")
        rms.submit("b", Request("cluster0", 2, 100.0, RequestType.NON_PREEMPTIBLE))
        sim.run(5.0)
        rms.submit("a", Request("cluster0", 2, 100.0, RequestType.NON_PREEMPTIBLE))
        sim.run(10.0)
        cluster = platform.cluster("cluster0")
        assert (cluster.allocated_to("b"), cluster.allocated_to("a")) == ([0, 1], [2, 3])
        assert rms.set_capacity(1) == ["b", "a"]
        assert cluster.node_ids == {0} and cluster.free_nodes() == [0]


# --------------------------------------------------------------------- #
# The injector against a live federation
# --------------------------------------------------------------------- #
def federation(nodes=(8, 8), routing="round-robin", cluster_kwargs=None):
    cluster_kwargs = cluster_kwargs or [{} for _ in nodes]
    spec = FederationSpec(
        clusters=tuple(
            ClusterSpec(name=f"c{i}", nodes=n, **cluster_kwargs[i])
            for i, n in enumerate(nodes)
        ),
        routing=routing,
    )
    simulator = Simulator()
    return Federation(spec, simulator), simulator


def arm(fed, **plan_kwargs):
    injector = FaultInjector(FaultPlan(**plan_kwargs), fed)
    injector.arm()
    return injector


def rigid_spawn(fed, apps, nodes):
    """A submission factory: a rigid job of *nodes* nodes, kept in *apps*."""

    def spawn(name):
        app = RigidApplication(name, node_count=nodes, duration=100.0)
        fed.submit(app, node_count=nodes)
        apps.append(app)

    return spawn


class TestFaultInjector:
    def test_arm_twice_raises(self):
        fed, _sim = federation()
        injector = arm(fed, name="p")
        with pytest.raises(ValueError, match="already armed"):
            injector.arm()

    def test_member_resolution_errors(self):
        # One rule: the spec refuses the plan while it loads, the injector
        # when it arms (for a plan built by hand).
        fed, _sim = federation()
        for ref in ("#5", "#x", "nope"):
            plan = FaultPlan(name="p", events=(FaultEvent(time=1.0, kind="outage", member=ref),))
            with pytest.raises(SpecError, match="^faults: fault plan 'p'"):
                ScenarioSpec(name="s", runner="amr_psa", federation=fed.spec, faults=plan)
            with pytest.raises(SpecError, match="^fault plan 'p'"):
                FaultInjector(plan, fed).arm()

    def test_crash_kills_and_respawns_the_victim(self):
        fed, sim = federation()
        injector = arm(
            fed,
            name="p",
            events=(
                FaultEvent(time=10.0, kind="crash", member="#0", nodes=8),
                FaultEvent(time=20.0, kind="restart", member="#0", nodes=8),
            ),
        )
        apps = []
        injector.submit("j", rigid_spawn(fed, apps, nodes=8))
        assert apps[0].cluster_id == "c0"
        sim.run()
        assert injector.counts["crashes"] == 1
        assert injector.counts["restarts"] == 1
        assert injector.counts["jobs_rescheduled"] == 1
        assert injector.counts["jobs_lost"] == 0
        # The respawn landed on the surviving member and finished there.
        assert [a.name for a in apps] == ["j", "j:r1"]
        assert fed.routed_counts()["c1"] == 1
        assert injector.sla_attainment_pct() == 100.0

    def test_kill_past_the_respawn_budget_counts_lost(self):
        fed, sim = federation()
        injector = arm(
            fed,
            name="p",
            max_respawns=0,
            events=(FaultEvent(time=10.0, kind="crash", member="#0", nodes=8),),
        )
        injector.submit("j", rigid_spawn(fed, [], nodes=8))
        sim.run()
        assert injector.counts["jobs_lost"] == 1
        assert injector.sla_attainment_pct() == 0.0

    def test_refused_first_submission_counts_rejected(self):
        fed, sim = federation()
        injector = arm(fed, name="p")
        injector.submit("huge", rigid_spawn(fed, [], nodes=64))
        sim.run()
        assert injector.counts["jobs_rejected"] == 1
        assert injector.submitted == 1
        assert injector.sla_attainment_pct() == 0.0

    def test_max_respawns_bounds_the_retry_chain(self):
        fed, sim = federation()
        injector = arm(
            fed,
            name="p",
            max_respawns=1,
            events=(
                FaultEvent(time=10.0, kind="crash", member="#0", nodes=8),
                FaultEvent(time=30.0, kind="crash", member="#1", nodes=8),
            ),
        )
        injector.submit("j", rigid_spawn(fed, [], nodes=8))
        sim.run()
        # The c0 crash respawns j as j:r1 on c1; the c1 crash finds the
        # retry budget exhausted and the chain ends as lost.
        assert injector.counts["jobs_rescheduled"] == 1
        assert injector.counts["jobs_lost"] == 1

    def test_kill_all_members_outage_terminates_cleanly(self):
        fed, sim = federation()
        injector = arm(
            fed,
            name="total-blackout",
            max_respawns=0,
            events=(
                FaultEvent(time=5.0, kind="outage", member="#0"),
                FaultEvent(time=5.0, kind="outage", member="#1"),
            ),
        )
        for i in range(2):
            injector.submit(f"j{i}", rigid_spawn(fed, [], nodes=4))
        sim.run()  # must drain: no capacity ever comes back
        assert all(m.down for m in fed.members)
        assert fed.total_nodes() == 0
        assert injector.counts["jobs_lost"] == 2
        assert injector.sla_attainment_pct() == 0.0
        assert injector.time_to_recover() == 0.0  # nothing ever recovered

    def test_respawned_trace_job_routes_by_its_original_id(self):
        spec = FederationSpec(clusters=(ClusterSpec("c0", 8), ClusterSpec("c1", 8)))
        crash = FaultEvent(time=10.0, kind="crash", member="#0", nodes=8)
        job = ConvertedJob("rigid", "t1", submit_time=1.0, node_count=8, duration=100.0)
        result = run_scenario(
            EvaluationScale.tiny(), include_amr=False, psa_task_durations=(),
            federation=spec, faults=FaultPlan(name="p", events=(crash,)), adaptive_jobs=[job],
        )
        decisions = result.federation.meta.decisions
        assert [d.app_id for d in decisions] == ["t1", "t1:r1"]
        assert {d.group for d in decisions} == {locality_group("t1")}

    def test_outage_and_recover_fill_the_recovery_ledger(self):
        fed, sim = federation()
        injector = arm(
            fed,
            name="p",
            events=(
                FaultEvent(time=10.0, kind="outage", member="c0"),
                FaultEvent(time=60.0, kind="recover", member="c0"),
            ),
        )
        sim.run()
        assert injector.counts["outages"] == 1
        assert injector.counts["recoveries"] == 1
        assert injector.recovery_seconds == [50.0]
        assert injector.time_to_recover() == 50.0
        assert not fed.members[0].down
        assert fed.members[0].capacity == 8

    def test_duplicate_outage_and_recover_are_idempotent(self):
        fed, sim = federation()
        injector = arm(
            fed,
            name="p",
            events=(
                FaultEvent(time=10.0, kind="outage", member="c0"),
                FaultEvent(time=11.0, kind="outage", member="c0"),
                FaultEvent(time=60.0, kind="recover", member="c0"),
                FaultEvent(time=61.0, kind="recover", member="c0"),
            ),
        )
        sim.run()
        assert injector.counts["outages"] == 1
        assert injector.counts["recoveries"] == 1
        assert fed.members[0].capacity == 8

    def test_down_member_is_rerouted_around(self):
        fed, _sim = federation()
        fed.members[0].down = True
        app = RigidApplication("j", node_count=2, duration=5.0)
        fed.submit(app, node_count=2)  # round-robin would pick c0 first
        assert app.cluster_id == "c1"

    def test_all_members_down_raises_admission_error(self):
        fed, _sim = federation()
        for member in fed.members:
            member.down = True
        with pytest.raises(AdmissionError, match="down"):
            fed.submit(RigidApplication("j", node_count=2, duration=5.0), node_count=2)

    def test_elastic_grow_respects_rule_and_spec_ceilings(self):
        fed, sim = federation(
            nodes=(8,),
            routing="any",
            cluster_kwargs=[{"max_nodes": 12}],
        )
        injector = arm(
            fed,
            name="p",
            elastic=(
                ElasticRule(
                    member="#0", interval=10.0, until=10.0,
                    high_util=0.5, low_util=0.1, grow_step=8, max_nodes=32,
                ),
            ),
        )
        fed.submit(RigidApplication("j", node_count=8, duration=50.0), node_count=8)
        sim.run()
        # util 1.0 at the check: grow 8 -> 16, clamped by the spec's 12.
        assert injector.counts["elastic_grows"] == 1
        assert fed.members[0].capacity == 12

    def test_elastic_shrink_floors_at_spec_min_nodes(self):
        fed, sim = federation(
            nodes=(8,),
            routing="any",
            cluster_kwargs=[{"min_nodes": 6}],
        )
        injector = arm(
            fed,
            name="p",
            elastic=(
                ElasticRule(
                    member="#0", interval=10.0, until=10.0,
                    high_util=0.9, low_util=0.5, shrink_step=4, min_nodes=2,
                ),
            ),
        )
        sim.run()
        # Idle member: shrink wants 4 but the spec floor keeps 6 nodes.
        assert injector.counts["elastic_shrinks"] == 1
        assert fed.members[0].capacity == 6

    def test_elastic_rules_sit_out_degraded_members(self):
        fed, sim = federation(nodes=(8,), routing="any")
        injector = arm(
            fed,
            name="p",
            events=(FaultEvent(time=5.0, kind="crash", member="#0", nodes=4),),
            elastic=(
                ElasticRule(
                    member="#0", interval=10.0, until=10.0,
                    high_util=0.9, low_util=0.5, shrink_step=4, min_nodes=1,
                ),
            ),
        )
        sim.run()
        # The member is degraded (4 < baseline 8): elasticity must not
        # shrink it further while the fault path owns it.
        assert injector.counts["elastic_shrinks"] == 0
        assert fed.members[0].capacity == 4

    def test_jittered_plans_replay_identically_per_seed(self):
        plan = FaultPlan(
            name="p",
            jitter=30.0,
            events=(
                FaultEvent(time=10.0, kind="outage", member="c0"),
                FaultEvent(time=100.0, kind="recover", member="c0"),
            ),
        )

        def run(seed):
            fed, sim = federation()
            injector = FaultInjector(plan, fed, seed=seed)
            injector.arm()
            sim.run()
            return injector.summary(), injector.recovery_seconds

        assert run(7) == run(7)
        assert run(7)[1] != run(8)[1]  # jitter actually draws from the seed

    def test_admission_plan_installs_the_controller(self):
        fed, _sim = federation()
        injector = arm(fed, name="p", admission=AdmissionSpec(rate=1.0))
        assert fed.meta.admission is injector.admission
        assert injector.summary()["fault_breaker_trips"] == 0.0

    def test_summary_is_flat_and_json_safe(self):
        fed, sim = federation()
        injector = arm(
            fed,
            name="p",
            events=(
                FaultEvent(time=10.0, kind="outage", member="c0"),
                FaultEvent(time=60.0, kind="recover", member="c0"),
            ),
        )
        sim.run()
        summary = injector.summary()
        assert summary["fault_time_to_recover"] == 50.0
        assert summary["fault_sla_attainment_pct"] == 100.0
        assert all(isinstance(v, float) for v in summary.values())
        json.dumps(summary, allow_nan=False)  # must not raise
