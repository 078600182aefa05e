"""Integration tests of the experiment drivers (one per paper figure).

Each driver is run at a very small scale and checked for the qualitative
shape the corresponding figure shows.  Larger sweeps run from
``benchmarks/`` or ``python -m repro campaign run --scale paper``.
"""
from __future__ import annotations

import pytest

from repro.experiments import (
    EvaluationScale,
    fig1_amr_profiles,
    fig2_speedup_fit,
    fig3_static_endtime,
    fig4_static_choices,
    fig9_spontaneous,
    fig10_announced,
    fig11_two_psas,
)

TINY = EvaluationScale.tiny()


class TestAnalyticFigures:
    def test_fig1_profiles_have_the_documented_shape(self):
        profiles = fig1_amr_profiles.run(seeds=(0, 1, 2))
        assert len(profiles) == 3
        for profile in profiles.values():
            assert len(profile) == 1000
            assert max(profile) == pytest.approx(1000.0)
            diffs = [b - a for a, b in zip(profile, profile[1:])]
            assert sum(d >= 0 for d in diffs) / len(diffs) > 0.5
        assert "Figure 1" in fig1_amr_profiles.main(seeds=(0, 1))

    def test_fig2_speedup_curves(self):
        curves = fig2_speedup_fit.run(node_counts=(1, 16, 256, 4096))
        for size, curve in curves.items():
            # Strong scaling: 256 nodes is faster than 1 node for every size.
            assert curve.duration_at(256) < curve.duration_at(1)
        # Larger meshes take longer at any node count.
        assert curves[3136.0].duration_at(16) > curves[12.0].duration_at(16)
        assert "Figure 2" in fig2_speedup_fit.main(node_counts=(1, 16))

    def test_fig3_end_time_increase_is_bounded(self):
        points = fig3_static_endtime.run(
            target_efficiencies=(0.3, 0.5, 0.7), seeds=(0, 1), num_steps=200
        )
        for point in points.values():
            assert point.feasible_fraction == 1.0
            assert 0.0 <= point.median_increase < 0.06
        assert "Figure 3" in fig3_static_endtime.main(
            target_efficiencies=(0.5,), seeds=(0,), num_steps=100
        )

    def test_fig4_range_narrows_with_data_size(self):
        rows = fig4_static_choices.run(relative_sizes=(0.5, 1.0, 4.0), num_steps=200)
        assert rows[0.5].feasible
        widths = {rel: (row.range_width if row.feasible else -1) for rel, row in rows.items()}
        # Larger problems leave the user less room to guess a static size.
        assert widths[4.0] < widths[0.5]
        assert "Figure 4" in fig4_static_choices.main(relative_sizes=(1.0,), num_steps=100)


class TestSimulationFigures:
    def test_fig9_shape(self):
        points = fig9_spontaneous.run(overcommit_factors=(1.0, 2.0), scale=TINY)
        assert len(points) == 2
        for point in points:
            assert point.static_amr_used_node_seconds > point.dynamic_amr_used_node_seconds
        # Static usage grows with the overcommit factor, dynamic barely moves.
        assert points[1].static_amr_used_node_seconds > points[0].static_amr_used_node_seconds
        assert points[1].dynamic_amr_used_node_seconds <= points[0].dynamic_amr_used_node_seconds * 1.25
        assert "Figure 9" in fig9_spontaneous.main(overcommit_factors=(1.0,), scale=TINY)

    def test_fig10_shape(self):
        intervals = (0.0, TINY.psa1_task_duration)
        points = fig10_announced.run(announce_intervals=intervals, scale=TINY)
        assert points[0].psa_waste_percent > 0
        assert points[1].psa_waste_percent == pytest.approx(0.0, abs=1e-6)
        assert points[1].amr_end_time_increase_percent > 0
        assert points[0].amr_end_time_increase_percent == pytest.approx(0.0, abs=1e-6)
        assert "Figure 10" in fig10_announced.main(announce_intervals=(0.0,), scale=TINY)

    def test_fig11_shape(self):
        intervals = (TINY.psa1_task_duration / 2,)
        points = fig11_two_psas.run(announce_intervals=intervals, scale=TINY)
        assert len(points) == 1
        assert points[0].filling_gain_percent > 0
        assert "Figure 11" in fig11_two_psas.main(announce_intervals=intervals, scale=TINY)
