"""Shared configuration of the benchmark harness.

Every benchmark regenerates one figure (or one ablation) of the paper at a
configurable scale and prints the corresponding rows/series after timing the
run, so that ``pytest benchmarks/ --benchmark-only -s`` doubles as the
figure-reproduction harness.  The scale is kept small by default so the whole
suite completes in a few minutes; no run at the paper's scale is recorded yet.
"""
from __future__ import annotations

import pytest

from repro.experiments import EvaluationScale


@pytest.fixture(scope="session")
def bench_scale() -> EvaluationScale:
    """Scale used by the simulation benchmarks (tiny, a few seconds each)."""
    return EvaluationScale.tiny()


@pytest.fixture(scope="session")
def report_scale() -> EvaluationScale:
    """Scale used when printing figure tables (slightly larger than tiny)."""
    return EvaluationScale.tiny().with_steps(80)
