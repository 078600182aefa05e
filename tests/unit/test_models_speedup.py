"""Unit tests of the AMR speed-up model (paper Section 2.2)."""
from __future__ import annotations

import pytest

from repro.models import GIB_IN_MIB, PAPER_SPEEDUP_MODEL, SpeedupModel, TIB_IN_MIB


class TestModelDefinition:
    def test_paper_constants(self):
        m = PAPER_SPEEDUP_MODEL
        assert m.a == pytest.approx(7.26e-3)
        assert m.b == pytest.approx(1.23e-4)
        assert m.c == pytest.approx(1.13e-6)
        assert m.d == pytest.approx(1.38)
        assert m.s_max_mib == pytest.approx(3.16 * TIB_IN_MIB)

    def test_formula(self):
        m = SpeedupModel(a=1.0, b=2.0, c=3.0, d=4.0)
        # t(n, S) = A*S/n + B*n + C*S + D
        assert m.step_duration(2, 10) == pytest.approx(1.0 * 10 / 2 + 2.0 * 2 + 3.0 * 10 + 4.0)

    def test_invalid_constants_rejected(self):
        with pytest.raises(ValueError):
            SpeedupModel(a=-1.0)
        with pytest.raises(ValueError):
            SpeedupModel(s_max_mib=0.0)

    def test_invalid_arguments_rejected(self):
        m = PAPER_SPEEDUP_MODEL
        with pytest.raises(ValueError):
            m.step_duration(0, 100)
        with pytest.raises(ValueError):
            m.step_duration(4, -1)
        with pytest.raises(ValueError):
            m.efficiency(0, 100)
        with pytest.raises(ValueError):
            m.nodes_for_efficiency(100, 0.0)

    def test_array_form_matches_scalar(self):
        m = PAPER_SPEEDUP_MODEL
        nodes = (1, 16, 256)
        got = m.step_duration_array(nodes, 1e6)
        expected = [m.step_duration(n, 1e6) for n in nodes]
        assert got == expected


class TestScalingBehaviour:
    def test_strong_scaling_then_overhead(self):
        m = PAPER_SPEEDUP_MODEL
        size = 784 * GIB_IN_MIB
        # Adding nodes helps at first...
        assert m.step_duration(16, size) < m.step_duration(1, size)
        assert m.step_duration(256, size) < m.step_duration(16, size)
        # ...but far beyond the optimum the overhead term dominates.
        optimum = m.optimal_nodes(size)
        assert m.step_duration(int(optimum * 20), size) > m.step_duration(int(optimum), size)

    def test_larger_data_takes_longer(self):
        m = PAPER_SPEEDUP_MODEL
        for nodes in (1, 64, 4096):
            assert m.step_duration(nodes, 3136 * GIB_IN_MIB) > m.step_duration(nodes, 12 * GIB_IN_MIB)

    def test_efficiency_decreases_with_node_count(self):
        m = PAPER_SPEEDUP_MODEL
        size = 196 * GIB_IN_MIB
        effs = [m.efficiency(n, size) for n in (1, 2, 8, 64, 512)]
        assert all(e1 >= e2 for e1, e2 in zip(effs, effs[1:]))
        assert m.efficiency(1, size) == pytest.approx(1.0)

    def test_speedup_at_one_node_is_one(self):
        assert PAPER_SPEEDUP_MODEL.speedup(1, 1e6) == pytest.approx(1.0)

    def test_consumed_area(self):
        m = PAPER_SPEEDUP_MODEL
        assert m.consumed_area(10, 1e5) == pytest.approx(10 * m.step_duration(10, 1e5))


class TestNodesForEfficiency:
    def test_target_is_met_but_not_exceeded(self):
        m = PAPER_SPEEDUP_MODEL
        size = m.s_max_mib
        n = m.nodes_for_efficiency(size, 0.75)
        assert m.efficiency(n, size) >= 0.75
        assert m.efficiency(n + 1, size) < 0.75

    def test_peak_size_needs_about_1500_nodes_at_75_percent(self):
        # Sanity anchor: with the paper's constants the 3.16 TiB mesh runs at
        # 75 % efficiency on roughly 1.5k nodes, consistent with the paper's
        # cluster of 1400 x overcommit nodes.
        n = PAPER_SPEEDUP_MODEL.nodes_for_efficiency(3.16 * TIB_IN_MIB, 0.75)
        assert 1200 <= n <= 1800

    def test_small_data_runs_on_one_node(self):
        assert PAPER_SPEEDUP_MODEL.nodes_for_efficiency(0.0, 0.75) == 1

    def test_higher_target_means_fewer_nodes(self):
        m = PAPER_SPEEDUP_MODEL
        size = 784 * GIB_IN_MIB
        assert m.nodes_for_efficiency(size, 0.9) < m.nodes_for_efficiency(size, 0.5)

    def test_duration_series_helper(self):
        series = PAPER_SPEEDUP_MODEL.duration_series([1, 2, 4], 1e5)
        assert [n for n, _ in series] == [1, 2, 4]
        assert series[0][1] > series[2][1]


class TestMemoization:
    def test_step_duration_is_cached(self):
        model = SpeedupModel()
        SpeedupModel.clear_caches()
        first = model.step_duration(64, 1e5)
        before = SpeedupModel.cache_stats()["step_duration"]
        second = model.step_duration(64, 1e5)
        after = SpeedupModel.cache_stats()["step_duration"]
        assert first == second
        assert after[0] == before[0] + 1  # one more cache hit

    def test_nodes_for_efficiency_is_cached(self):
        model = SpeedupModel()
        SpeedupModel.clear_caches()
        first = model.nodes_for_efficiency(1e6, 0.75)
        second = model.nodes_for_efficiency(1e6, 0.75)
        after = SpeedupModel.cache_stats()["nodes_for_efficiency"]
        assert first == second
        assert after[0] >= 1

    def test_cache_distinguishes_models(self):
        a = SpeedupModel()
        b = SpeedupModel(a=2 * a.a)
        assert a.step_duration(8, 1e5) != b.step_duration(8, 1e5)

    def test_validation_still_raises(self):
        with pytest.raises(ValueError):
            SpeedupModel().step_duration(0, 1e5)
        with pytest.raises(ValueError):
            SpeedupModel().nodes_for_efficiency(1e5, 0.0)

    def test_int_and_float_arguments_agree(self):
        model = SpeedupModel()
        assert model.step_duration(8, 1e5) == model.step_duration(8.0, 1e5)
