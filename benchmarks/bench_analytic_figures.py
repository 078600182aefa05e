"""Benchmark and reproduction of the analytic Figures 1--4.

Each figure is a campaign runner that evaluates the paper's models and
builds no RMS.  The benchmark times one run of each at the paper's scale
(1000 AMR steps, the 3.16 TiB reference mesh) at seed 0, then prints its
metrics -- the rows ``python -m repro campaign report`` shows for it.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_analytic_figures.py --benchmark-only -s
"""
from __future__ import annotations

import pytest

from repro.campaign import resolve_scenarios
from repro.campaign.registry import get_runner
from repro.metrics.report import format_table


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_analytic_figure(benchmark, name):
    """Time one paper-scale run of the figure's runner at seed 0."""
    (spec,) = resolve_scenarios([name], scale="paper")
    metrics = benchmark(get_runner(spec.runner), spec, 0)
    assert metrics
    print()
    print(format_table(["metric", name], sorted(metrics.items())))
