"""Shared configuration of the benchmark harness.

Every benchmark regenerates one figure (or one ablation) of the paper at a
configurable scale and prints the corresponding rows/series after timing the
run, so that ``pytest benchmarks/ --benchmark-only -s`` doubles as the
figure-reproduction harness.  The scale is kept small by default so the whole
suite completes in a few minutes; no run at the paper's scale is recorded yet.
"""
from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, ResultStore, resolve_scenarios
from repro.campaign.registry import run_sweep
from repro.campaign.store import medians, sweep_tables
from repro.experiments import EvaluationScale
from repro.metrics.report import format_table


@pytest.fixture(scope="session")
def bench_scale() -> EvaluationScale:
    """Scale used by the simulation benchmarks (tiny, a few seconds each)."""
    return EvaluationScale.tiny()


#: AMR steps of the printed figure sweeps (twice tiny's).
REPORT_STEPS = 80


@pytest.fixture
def sweep_report(benchmark, tmp_path):
    """``sweep_report(name, *axes)``: the built-in figure *name* over *axes*
    at :data:`REPORT_STEPS` steps.  Times its points as one in-process loop
    at seed 0, then runs it as a serial campaign and returns (and prints)
    its ``campaign report`` sweep table as ``(headers, rows)``."""

    def run(name, *axes):
        (spec,) = resolve_scenarios([name])
        params = {"axes": [list(axis) for axis in axes], "num_steps": REPORT_STEPS}
        spec = replace(spec, params=params)
        benchmark.pedantic(run_sweep, args=(spec, 0), rounds=1, iterations=1)
        store = ResultStore(tmp_path)
        campaign = CampaignSpec(name=name, scenarios=(spec,))
        CampaignRunner(campaign, store=store).run(workers=1)
        headers, rows = sweep_tables(campaign, medians(store.load_records(name)))[name]
        print()
        print(format_table(headers, rows))
        return headers, rows

    return run
