"""Unit tests of the trace transformation pipeline (repro.traces.transform)."""
from __future__ import annotations

import json

import pytest

from repro.core.errors import SpecError, UnknownNameError
from repro.traces import (
    ClampNodes,
    FilterJobs,
    LoadRescale,
    Pipeline,
    ShiftToZero,
    SwfJob,
    TimeWindow,
    Trace,
    TraceModel,
    transform_from_dict,
)


@pytest.fixture
def trace() -> Trace:
    return TraceModel().synthesize(60, seed=42)


def job(number: int, submit: float, nodes: int, runtime: float, status: int = 1) -> SwfJob:
    return SwfJob(
        job_number=number,
        submit_time=submit,
        run_time=runtime,
        req_procs=nodes,
        status=status,
    )


class TestFilterJobs:
    def test_bounds(self):
        trace = Trace(jobs=(job(1, 0, 4, 100), job(2, 10, 64, 100), job(3, 20, 4, 5)))
        out = FilterJobs(max_nodes=32, min_duration=50.0).apply(trace)
        assert [j.job_number for j in out.jobs] == [1]

    def test_statuses(self):
        trace = Trace(jobs=(job(1, 0, 4, 100, status=1), job(2, 1, 4, 100, status=5)))
        out = FilterJobs(statuses=(1,)).apply(trace)
        assert [j.job_number for j in out.jobs] == [1]

    def test_require_valid_drops_unrunnable(self):
        broken = SwfJob(job_number=9, submit_time=5.0)  # no size, no runtime
        trace = Trace(jobs=(job(1, 0, 4, 100), broken))
        out = FilterJobs().apply(trace)
        assert [j.job_number for j in out.jobs] == [1]

    def test_provenance_counts_dropped(self, trace):
        out = FilterJobs(min_nodes=1000).apply(trace)
        assert out.provenance[-1]["dropped"] == trace.job_count


class TestTimeWindow:
    def test_half_open_interval(self):
        trace = Trace(jobs=(job(1, 0, 1, 10), job(2, 50, 1, 10), job(3, 100, 1, 10)))
        out = TimeWindow(start=0, end=100).apply(trace)
        assert [j.job_number for j in out.jobs] == [1, 2]

    def test_open_end_serialises_as_none(self):
        step = TimeWindow(start=10).to_dict()
        assert step["end"] is None
        json.dumps(step)  # strict JSON
        assert transform_from_dict(step) == TimeWindow(start=10)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeWindow(start=5, end=5)


class TestLoadRescale:
    def test_preserves_job_count_and_work(self, trace):
        out = LoadRescale(factor=2.0).apply(trace)
        assert out.job_count == trace.job_count
        assert out.total_area() == pytest.approx(trace.total_area())

    def test_compresses_span(self, trace):
        out = LoadRescale(factor=2.0).apply(trace)
        assert out.span == pytest.approx(trace.span / 2.0)

    def test_factor_below_one_stretches(self, trace):
        out = LoadRescale(factor=0.5).apply(trace)
        assert out.span == pytest.approx(trace.span * 2.0)


class TestClampNodes:
    def test_never_exceeds_limit(self, trace):
        out = ClampNodes(max_nodes=8).apply(trace)
        assert all(j.node_count <= 8 for j in out.jobs)

    def test_updates_header(self, trace):
        out = ClampNodes(max_nodes=8).apply(trace)
        assert out.header.max_nodes == 8
        assert out.max_nodes == 8


class TestShiftToZero:
    def test_rebases_and_records_offset(self):
        trace = Trace(jobs=(job(1, 100, 1, 10), job(2, 130, 1, 10)))
        out = ShiftToZero().apply(trace)
        assert [j.submit_time for j in out.jobs] == [0.0, 30.0]
        assert out.provenance[-1]["shifted_by"] == 100.0


class TestPipeline:
    def test_applies_in_order_and_chains_provenance(self, trace):
        pipeline = Pipeline(
            (FilterJobs(), LoadRescale(factor=2.0), ClampNodes(max_nodes=16), ShiftToZero())
        )
        out = pipeline.apply(trace)
        kinds = [step["kind"] for step in out.provenance]
        assert kinds[-4:] == ["filter", "load_rescale", "clamp_nodes", "shift_to_zero"]

    def test_provenance_steps_are_reloadable(self, trace):
        # A recorded provenance step doubles as a transform description.
        out = ShiftToZero().apply(FilterJobs().apply(trace))
        for step in out.provenance[1:]:
            transform_from_dict(step)

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnknownNameError, match="unknown trace transform"):
            transform_from_dict({"kind": "reverse"})

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="does not understand"):
            transform_from_dict({"kind": "load_rescale", "factor": 2, "bogus": 1})
        with pytest.raises(SpecError, match="cannot convert float infinity"):
            transform_from_dict({"kind": "filter", "statuses": [float("inf")]})
