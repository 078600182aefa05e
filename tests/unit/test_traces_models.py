"""Unit tests of the statistical trace models (repro.traces.models)."""
from __future__ import annotations

import math

import pytest

from repro.core.errors import UnknownNameError, WorkloadError
from repro.sim.randomness import RandomSource
from repro.traces import (
    DailyCycleArrivals,
    LogNormalDuration,
    LogUniformDuration,
    LogUniformNodes,
    PoissonArrivals,
    TraceModel,
    model_from_dict,
)


class TestArrivals:
    def test_poisson_mean_rate(self):
        times = PoissonArrivals(rate=0.1).arrival_times(2000, RandomSource(1))
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(10.0, rel=0.2)

    def test_poisson_strictly_increasing(self):
        times = PoissonArrivals(rate=1.0).arrival_times(100, RandomSource(2))
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_daily_cycle_rate_peaks_at_peak_hour(self):
        model = DailyCycleArrivals(mean_rate=0.01, peak_to_trough=4.0, peak_hour=14.0)
        peak = model.rate_at(14.0 * 3600.0)
        trough = model.rate_at(2.0 * 3600.0)
        assert peak / trough == pytest.approx(4.0, rel=1e-6)

    def test_daily_cycle_concentrates_arrivals_near_peak(self):
        model = DailyCycleArrivals(
            mean_rate=1 / 600.0, peak_to_trough=10.0, peak_hour=12.0
        )
        times = model.arrival_times(400, RandomSource(3))
        in_day = [t % 86_400.0 for t in times]
        near_peak = sum(1 for t in in_day if 8 * 3600 <= t <= 16 * 3600)
        far_off = sum(1 for t in in_day if t <= 4 * 3600 or t >= 20 * 3600)
        assert near_peak > far_off

    def test_poisson_fit_recovers_rate(self):
        times = PoissonArrivals(rate=0.05).arrival_times(3000, RandomSource(4))
        assert PoissonArrivals.fit(times).rate == pytest.approx(0.05, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=0.0)
        with pytest.raises(ValueError):
            DailyCycleArrivals(peak_to_trough=0.5)
        with pytest.raises(ValueError):
            DailyCycleArrivals(peak_hour=24.0)


class TestDistributions:
    def test_log_uniform_duration_bounds(self):
        model = LogUniformDuration(min_seconds=10.0, max_seconds=1000.0)
        rng = RandomSource(5)
        samples = [model.sample(rng) for _ in range(500)]
        assert min(samples) >= 10.0 and max(samples) <= 1000.0

    def test_log_normal_duration_clipped(self):
        model = LogNormalDuration(
            log_mean=math.log(60.0), log_sigma=3.0, min_seconds=30.0, max_seconds=120.0
        )
        rng = RandomSource(6)
        samples = [model.sample(rng) for _ in range(200)]
        assert min(samples) >= 30.0 and max(samples) <= 120.0

    def test_log_normal_fit_recovers_parameters(self):
        model = LogNormalDuration(log_mean=math.log(300.0), log_sigma=0.5,
                                  min_seconds=1.0, max_seconds=10_000.0)
        rng = RandomSource(7)
        samples = [model.sample(rng) for _ in range(4000)]
        fitted = LogNormalDuration.fit(samples)
        assert fitted.log_mean == pytest.approx(math.log(300.0), abs=0.1)
        assert fitted.log_sigma == pytest.approx(0.5, abs=0.1)

    def test_nodes_power_of_two(self):
        model = LogUniformNodes(min_nodes=1, max_nodes=128, power_of_two=True)
        rng = RandomSource(8)
        samples = {model.sample(rng) for _ in range(300)}
        assert all(n & (n - 1) == 0 for n in samples)
        assert max(samples) <= 128

    def test_nodes_fit_detects_power_of_two(self):
        assert LogUniformNodes.fit([1, 2, 4, 64]).power_of_two is True
        assert LogUniformNodes.fit([3, 5, 7]).power_of_two is False


class TestTraceModel:
    def test_synthesize_is_deterministic(self):
        model = TraceModel()
        assert model.synthesize(80, seed=11) == model.synthesize(80, seed=11)

    def test_synthesize_differs_across_seeds(self):
        model = TraceModel()
        assert model.synthesize(80, seed=11) != model.synthesize(80, seed=12)

    def test_synthesize_sets_header_and_provenance(self):
        trace = TraceModel().synthesize(10, seed=0)
        assert trace.header.max_nodes == 128
        assert trace.provenance[0]["kind"] == "synthesize"
        assert trace.provenance[0]["seed"] == 0

    def test_synthesized_jobs_are_runnable(self):
        trace = TraceModel().synthesize(50, seed=1)
        assert len(trace.to_rigid_jobs()) == 50

    def test_fit_then_synthesize(self):
        original = TraceModel().synthesize(300, seed=2)
        fitted = TraceModel.fit(original)
        synthetic = fitted.synthesize(300, seed=3)
        assert synthetic.job_count == 300
        # The fitted model reproduces the load within a factor of ~2.
        assert synthetic.span == pytest.approx(original.span, rel=1.0)

    def test_fit_rejects_empty_trace(self):
        from repro.traces import Trace

        with pytest.raises(WorkloadError):
            TraceModel.fit(Trace())

    def test_model_from_dict_rejects_unknown_kind(self):
        with pytest.raises(UnknownNameError, match="unknown trace model kind"):
            model_from_dict({"kind": "zipf"})

    def test_job_count_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceModel().synthesize(0, seed=0)
