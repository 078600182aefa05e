"""Unit tests of metric collection and text reporting."""
from __future__ import annotations

import math

import pytest

from repro.apps import AmrApplication, ParameterSweepApplication
from repro.cluster import Platform
from repro.core import CooRMv2
from repro.metrics import (
    SimulationMetrics,
    format_table,
    median_summary,
)
from repro.models import WorkingSetEvolution
from repro.sim import Simulator
from repro.testing import linspace


class TestReportFormatting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [("a", 1), ("long-name", 123.5)])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
        # All rows have the same width.
        assert len({len(line) for line in lines}) == 1

    def test_format_table_handles_missing_cells(self):
        out = format_table(["x", "y"], [(1, 10), (2,), (3,)])
        assert out.count("\n") == 4


class TestSimulationMetrics:
    def test_collect_from_a_small_scenario(self):
        evolution = WorkingSetEvolution(linspace(5_000.0, 100_000.0, 10))
        sim = Simulator()
        rms = CooRMv2(Platform.single_cluster(64), sim, rescheduling_interval=1.0)
        amr = AmrApplication("amr", evolution, preallocation_nodes=40)
        psa = ParameterSweepApplication("psa", task_duration=30.0)
        amr.on_finished = lambda _app: psa.shutdown()
        amr.connect(rms)
        psa.connect(rms)
        sim.run()

        metrics = SimulationMetrics.collect(rms, amr=amr, psas=[psa])
        assert metrics.horizon == pytest.approx(amr.computation_time())
        assert metrics.capacity_node_seconds == pytest.approx(64 * metrics.horizon)
        assert metrics.amr_used_node_seconds > 0
        assert metrics.total_allocated_node_seconds >= metrics.amr_used_node_seconds
        assert 0.0 <= metrics.used_resources_percent <= 100.0
        assert metrics.psa_waste_percent >= 0.0
        assert metrics.amr_end_time == pytest.approx(amr.computation_time())

    def test_explicit_horizon(self):
        sim = Simulator()
        rms = CooRMv2(Platform.single_cluster(4), sim)
        metrics = SimulationMetrics.collect(rms, horizon=100.0)
        assert metrics.capacity_node_seconds == pytest.approx(400.0)
        assert metrics.used_resources_percent == 0.0

    def test_zero_capacity_percentages(self):
        metrics = SimulationMetrics(
            horizon=0.0,
            capacity_node_seconds=0.0,
            amr_used_node_seconds=0.0,
            amr_end_time=0.0,
            psa_waste_node_seconds=0.0,
            psa_completed_node_seconds=0.0,
            total_allocated_node_seconds=0.0,
        )
        assert metrics.used_resources_percent == 0.0
        assert metrics.psa_waste_percent == 0.0


class TestZeroLengthWindow:
    def make(self, capacity):
        return SimulationMetrics(
            horizon=0.0,
            capacity_node_seconds=capacity,
            amr_used_node_seconds=0.0,
            amr_end_time=0.0,
            psa_waste_node_seconds=50.0,
            psa_completed_node_seconds=0.0,
            total_allocated_node_seconds=100.0,
        )

    @pytest.mark.parametrize("capacity", [0.0, -1.0, float("nan"), float("inf")])
    def test_degenerate_capacity_yields_zero_percent(self, capacity):
        metrics = self.make(capacity)
        assert metrics.psa_waste_percent == 0.0
        assert metrics.used_resources_percent == 0.0


class TestMedianSummary:
    def test_empty_input(self):
        assert median_summary([]) == {}

    def test_skips_non_numeric_and_non_finite(self):
        records = [
            {"x": 1.0, "label": "a", "flag": True, "bad": float("nan")},
            {"x": 3.0, "label": "b", "flag": False, "bad": float("inf")},
        ]
        summary = median_summary(records)
        assert summary == {"x": 2.0}

    def test_missing_keys_skipped_per_record(self):
        summary = median_summary([{"x": 1.0}, {"x": 3.0, "y": 7.0}])
        assert summary == {"x": 2.0, "y": 7.0}


class TestMedianOfRunMetrics:
    """``median_summary`` over ``SimulationMetrics.to_dict()`` rows, the form
    in which a campaign stores and summarises repeated runs."""

    def make(self, waste):
        return SimulationMetrics(
            horizon=100.0,
            capacity_node_seconds=1000.0,
            amr_used_node_seconds=500.0,
            amr_end_time=100.0,
            psa_waste_node_seconds=waste,
            psa_completed_node_seconds=100.0,
            total_allocated_node_seconds=800.0,
        )

    def make_unfinished(self, waste):
        """An unfinished AMR: NaN end time, zero-length (empty) capacity."""
        return SimulationMetrics(
            horizon=0.0,
            capacity_node_seconds=0.0,
            amr_used_node_seconds=0.0,
            amr_end_time=float("nan"),
            psa_waste_node_seconds=waste,
            psa_completed_node_seconds=0.0,
            total_allocated_node_seconds=0.0,
        )

    def summarize(self, runs):
        return median_summary(run.to_dict() for run in runs)

    def test_median_of_odd_count(self):
        summary = self.summarize([self.make(w) for w in (10.0, 30.0, 20.0)])
        assert summary["psa_waste_node_seconds"] == pytest.approx(20.0)

    def test_median_of_even_count(self):
        summary = self.summarize([self.make(w) for w in (10.0, 30.0)])
        assert summary["psa_waste_node_seconds"] == pytest.approx(20.0)

    def test_nan_samples_dropped_per_key(self):
        runs = [self.make(10.0), self.make_unfinished(30.0), self.make(20.0)]
        summary = self.summarize(runs)
        # The NaN end time is dropped for amr_end_time only; the run's
        # finite waste sample still participates in the waste median.
        assert summary["amr_end_time"] == pytest.approx(100.0)
        assert summary["psa_waste_node_seconds"] == pytest.approx(20.0)

    def test_key_with_no_finite_sample_is_omitted(self):
        summary = self.summarize([self.make_unfinished(5.0)])
        assert "amr_end_time" not in summary
        assert summary["psa_waste_node_seconds"] == pytest.approx(5.0)

    def test_summary_is_nan_free(self):
        runs = [self.make(10.0), self.make_unfinished(30.0)]
        assert all(math.isfinite(v) for v in self.summarize(runs).values())
