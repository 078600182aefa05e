"""Integration tests of the evaluation scenarios (paper Section 5).

These tests run the same scenario the figures use -- at a tiny scale -- and
assert the *qualitative* findings of the paper:

* dynamic allocation inside a pre-allocation uses fewer node-seconds than a
  static allocation, and the gap grows with the overcommit factor (Fig. 9);
* spontaneous updates cause PSA waste, announced updates reduce it and
  eliminate it once the announce interval reaches the task duration, at the
  price of a longer AMR end time (Fig. 10);
* with two PSAs, equi-partitioning with filling uses more resources than
  strict equi-partitioning (Fig. 11).
"""
from __future__ import annotations

import pytest

from repro.experiments import EvaluationScale, run_scenario
from repro.experiments.runner import build_evolution
from repro.metrics.collector import allocations
from repro.obs.invariants import violations

SCALE = EvaluationScale.tiny()


@pytest.fixture(scope="module")
def evolution():
    return build_evolution(SCALE, seed=3)


class TestFigure9Behaviour:
    def test_dynamic_beats_static_and_gap_grows_with_overcommit(self, evolution):
        gaps = []
        for overcommit in (1.0, 2.0):
            static = run_scenario(
                SCALE, overcommit=overcommit, static_allocation=True, evolution=evolution
            )
            dynamic = run_scenario(
                SCALE, overcommit=overcommit, static_allocation=False, evolution=evolution
            )
            assert static.metrics.amr_used_node_seconds > dynamic.metrics.amr_used_node_seconds
            gaps.append(
                static.metrics.amr_used_node_seconds - dynamic.metrics.amr_used_node_seconds
            )
        assert gaps[1] > gaps[0]

    def test_dynamic_usage_stays_flat_as_overcommit_grows(self, evolution):
        usage = [
            run_scenario(SCALE, overcommit=oc, evolution=evolution).metrics.amr_used_node_seconds
            for oc in (1.0, 2.0)
        ]
        # Within 25 %: the application does not consume more just because the
        # user overestimated its needs.
        assert usage[1] <= usage[0] * 1.25

    def test_spontaneous_updates_cause_waste(self, evolution):
        result = run_scenario(SCALE, overcommit=1.0, evolution=evolution)
        assert result.metrics.psa_waste_node_seconds > 0
        # but the waste is smaller than what an inefficient static AMR would burn
        static = run_scenario(
            SCALE, overcommit=2.0, static_allocation=True, evolution=evolution
        )
        dynamic = run_scenario(SCALE, overcommit=2.0, evolution=evolution)
        extra_static = (
            static.metrics.amr_used_node_seconds - dynamic.metrics.amr_used_node_seconds
        )
        assert dynamic.metrics.psa_waste_node_seconds < extra_static


class TestFigure10Behaviour:
    def test_announced_updates_trade_end_time_for_waste(self, evolution):
        spontaneous = run_scenario(SCALE, announce_interval=0.0, evolution=evolution)
        announced = run_scenario(
            SCALE, announce_interval=SCALE.psa1_task_duration, evolution=evolution
        )
        # Waste disappears once the announce interval reaches the task duration.
        assert announced.metrics.psa_waste_node_seconds == pytest.approx(0.0, abs=1e-6)
        assert spontaneous.metrics.psa_waste_node_seconds > 0
        # The AMR pays with a longer end time.
        assert announced.metrics.amr_end_time > spontaneous.metrics.amr_end_time

    def test_waste_decreases_monotonically_enough(self, evolution):
        intervals = (0.0, SCALE.psa1_task_duration / 2, SCALE.psa1_task_duration)
        wastes = [
            run_scenario(SCALE, announce_interval=i, evolution=evolution).metrics.psa_waste_node_seconds
            for i in intervals
        ]
        assert wastes[-1] <= wastes[0]
        assert wastes[-1] == pytest.approx(0.0, abs=1e-6)


class TestFigure11Behaviour:
    def test_filling_beats_strict_equipartitioning(self, evolution):
        durations = (SCALE.psa1_task_duration, SCALE.psa2_task_duration)
        filling = run_scenario(
            SCALE,
            announce_interval=SCALE.psa1_task_duration / 2,
            psa_task_durations=durations,
            strict_equipartition=False,
            evolution=evolution,
        )
        strict = run_scenario(
            SCALE,
            announce_interval=SCALE.psa1_task_duration / 2,
            psa_task_durations=durations,
            strict_equipartition=True,
            evolution=evolution,
        )
        assert (
            filling.metrics.used_resources_percent
            > strict.metrics.used_resources_percent
        )
        # The AMR itself is not disadvantaged by the filling policy.
        assert filling.metrics.amr_end_time == pytest.approx(
            strict.metrics.amr_end_time, rel=0.2
        )


class TestConservation:
    def test_all_nodes_returned_and_accounting_consistent(self, evolution):
        result = run_scenario(SCALE, overcommit=1.0, evolution=evolution)
        (rms,) = result.federation.rms_list()
        assert not list(violations(rms.event_log))
        cluster = rms.platform.cluster("cluster0")
        assert cluster.free_count() == result.cluster_nodes
        # Accounting: every allocated node-second was charged to somebody.
        total = sum(finished.node_seconds for finished in allocations(rms))
        psa_busy = sum(p.stats.total_busy_node_seconds for p in result.psas)
        assert total >= result.metrics.amr_used_node_seconds
        assert total == pytest.approx(
            result.metrics.amr_used_node_seconds + psa_busy, rel=0.15
        )

    def test_metrics_percentages_are_sane(self, evolution):
        result = run_scenario(SCALE, overcommit=1.0, evolution=evolution)
        assert 0.0 < result.metrics.used_resources_percent <= 100.0
        assert 0.0 <= result.metrics.psa_waste_percent < 50.0
