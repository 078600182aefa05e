"""Unit tests of the shared experiment runner and evaluation scales."""
from __future__ import annotations

import pytest

from repro.experiments import EvaluationScale, run_scenario
from repro.experiments.runner import build_evolution, ideal_preallocation_nodes
from repro.models import PAPER_SPEEDUP_MODEL
from repro.models.amr_evolution import AmrEvolutionParameters


class TestEvaluationScale:
    def test_paper_scale_matches_section_5(self):
        scale = EvaluationScale.paper()
        assert scale.num_steps == 1000
        assert scale.s_max_mib == pytest.approx(3.16 * 1024 * 1024)
        assert scale.psa1_task_duration == 600.0
        assert scale.psa2_task_duration == 60.0
        assert scale.rescheduling_interval == 1.0
        assert scale.target_efficiency == 0.75

    def test_reduced_and_tiny_are_smaller(self):
        paper, reduced, tiny = (
            EvaluationScale.paper(),
            EvaluationScale.reduced(),
            EvaluationScale.tiny(),
        )
        assert tiny.num_steps < reduced.num_steps < paper.num_steps
        assert tiny.s_max_mib < reduced.s_max_mib < paper.s_max_mib

    def test_with_steps(self):
        assert EvaluationScale.reduced().with_steps(42).num_steps == 42


class TestScaledEvolutionParameters:
    def test_scaled_keeps_shape_for_short_runs(self):
        from repro.models.amr_evolution import normalized_profile

        params = AmrEvolutionParameters.scaled(50)
        profile = normalized_profile(seed=0, params=params)
        diffs = [b - a for a, b in zip(profile, profile[1:])]
        # Even a 50-step profile must stay mostly increasing (the raw paper
        # constants would give a noise-dominated profile here).
        assert sum(d >= 0 for d in diffs) / len(diffs) > 0.55
        assert profile[-1] > 0.6 * max(profile)

    def test_scaled_validates_input(self):
        with pytest.raises(ValueError):
            AmrEvolutionParameters.scaled(0)

    def test_scaled_at_1000_steps_matches_paper_constants(self):
        params = AmrEvolutionParameters.scaled(1000)
        assert params.acceleration == pytest.approx(0.01)
        assert params.phase_max_steps == 200


class TestIdealPreallocation:
    def test_ideal_preallocation_is_the_equivalent_static_allocation(self):
        scale = EvaluationScale.tiny()
        evolution = build_evolution(scale, seed=0)
        ideal = ideal_preallocation_nodes(evolution, scale, PAPER_SPEEDUP_MODEL)
        peak = PAPER_SPEEDUP_MODEL.nodes_for_efficiency(
            evolution.peak_size_mib, scale.target_efficiency
        )
        assert 1 <= ideal <= peak


class TestRunScenarioValidation:
    def test_rejects_non_positive_overcommit(self):
        with pytest.raises(ValueError):
            run_scenario(EvaluationScale.tiny(), overcommit=0.0)

    def test_scenario_result_contents(self):
        scale = EvaluationScale.tiny()
        result = run_scenario(scale, seed=1, overcommit=1.0)
        assert result.amr.finished()
        assert result.cluster_nodes > result.ideal_preallocation
        assert len(result.psas) == 1
        assert result.metrics.capacity_node_seconds > 0
        # The cluster honours the paper's headroom rule (~1.16x the pre-allocation).
        assert result.cluster_nodes >= int(result.ideal_preallocation * 1.0)
