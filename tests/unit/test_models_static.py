"""Unit tests of the dynamic vs equivalent-static analysis (paper Section 2.3)."""
from __future__ import annotations

import pytest

from repro.models import (
    PAPER_SPEEDUP_MODEL,
    WorkingSetEvolution,
    pairwise_sum,
    dynamic_allocation,
    end_time_increase,
    equivalent_static_allocation,
    static_allocation_range,
)
from repro.models.amr_evolution import AmrEvolutionParameters


@pytest.fixture(scope="module")
def evolution() -> WorkingSetEvolution:
    params = AmrEvolutionParameters(num_steps=300)
    return WorkingSetEvolution.generate(3.16 * 1024 * 1024 / 4, seed=11, params=params)


class TestDynamicAllocation:
    def test_tracks_target_efficiency(self, evolution):
        dyn = dynamic_allocation(evolution, 0.75)
        model = PAPER_SPEEDUP_MODEL
        for step in (0, 100, 299):
            n = int(dyn.node_counts[step])
            size = evolution.size_at(step)
            assert model.efficiency(n, size) >= 0.75
        assert dyn.consumed_area > 0
        assert dyn.end_time == pytest.approx(pairwise_sum(dyn.step_durations))

    def test_allocation_grows_with_the_working_set(self, evolution):
        dyn = dynamic_allocation(evolution, 0.75)
        # The working set is mostly increasing, so the peak allocation comes
        # late in the run and exceeds the initial one.
        assert dyn.peak_nodes >= dyn.node_counts[0]
        assert dyn.peak_nodes == int(max(dyn.node_counts))

    def test_lower_target_uses_more_nodes(self, evolution):
        loose = dynamic_allocation(evolution, 0.5)
        tight = dynamic_allocation(evolution, 0.9)
        assert loose.peak_nodes > tight.peak_nodes
        assert loose.end_time < tight.end_time


class TestEquivalentStaticAllocation:
    def test_exists_for_moderate_targets(self, evolution):
        result = equivalent_static_allocation(evolution, 0.75)
        assert result is not None
        # Same consumed area by construction.
        dyn = dynamic_allocation(evolution, 0.75)
        static_area = result.n_eq * result.static_end_time
        assert static_area == pytest.approx(dyn.consumed_area, rel=1e-3)

    def test_end_time_increase_is_small(self, evolution):
        # The paper reports at most ~2.5 % for targets below 0.8; allow a
        # little slack because our profiles are random.
        for target in (0.3, 0.5, 0.75):
            increase = end_time_increase(evolution, target)
            assert increase is not None
            assert 0.0 <= increase < 0.06

    def test_very_high_target_collapses_to_few_nodes(self, evolution):
        # At a target efficiency close to 1 the dynamic allocation uses only
        # a handful of nodes, and so does its equivalent static allocation.
        result = equivalent_static_allocation(evolution, 0.999)
        dyn = dynamic_allocation(evolution, 0.999)
        assert result is not None
        assert 1.0 <= result.n_eq <= dyn.peak_nodes
        assert dyn.peak_nodes <= 5
        # With so few nodes the integer quantisation makes the end-time
        # increase larger than in the paper's 0.1-0.8 range; it must still be
        # non-negative (the dynamic allocation is never slower).
        increase = end_time_increase(evolution, 0.999)
        assert increase is not None and increase >= 0.0

    def test_n_eq_between_min_and_peak_dynamic_allocation(self, evolution):
        result = equivalent_static_allocation(evolution, 0.75)
        dyn = dynamic_allocation(evolution, 0.75)
        assert min(dyn.node_counts) <= result.n_eq <= dyn.peak_nodes


class TestStaticAllocationRange:
    def test_range_is_consistent(self, evolution):
        rng = static_allocation_range(evolution, 0.75, node_memory_mib=4096.0)
        assert rng is not None
        n_min, n_max = rng
        assert 1 <= n_min <= n_max

    def test_min_nodes_hold_the_peak_working_set(self, evolution):
        n_min, _ = static_allocation_range(evolution, 0.75, node_memory_mib=4096.0)
        assert n_min * 4096.0 >= evolution.peak_size_mib

    def test_smaller_node_memory_needs_more_nodes(self, evolution):
        small_mem = static_allocation_range(evolution, 0.75, node_memory_mib=1024.0)
        large_mem = static_allocation_range(evolution, 0.75, node_memory_mib=8192.0)
        if small_mem is not None and large_mem is not None:
            assert small_mem[0] >= large_mem[0]

    def test_range_can_be_empty_when_memory_forces_overuse(self, evolution):
        # With absurdly little memory per node, satisfying the no-OOM bound
        # forces far more nodes than the 10 % overuse budget allows.
        assert static_allocation_range(evolution, 0.75, node_memory_mib=0.5) is None

    def test_invalid_memory_rejected(self, evolution):
        with pytest.raises(ValueError):
            static_allocation_range(evolution, 0.75, node_memory_mib=0.0)
