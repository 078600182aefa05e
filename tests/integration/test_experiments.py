"""Integration tests of the paper's figures: the analytic drivers and the
sweeps of figures 9--11.

Each figure is run at a very small scale and checked for the qualitative
shape the corresponding figure shows.  Larger sweeps run from
``benchmarks/`` or ``python -m repro campaign run --scale paper``.
"""
from __future__ import annotations

from dataclasses import replace
from itertools import product

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, ResultStore, ScenarioSpec
from repro.campaign.registry import builtin_scenarios, get_runner, resolve_scenarios, run_sweep
from repro.campaign.store import by_policy, comparisons, medians, sweep_tables
from repro.core.errors import SpecError
from repro.experiments import (
    EvaluationScale,
    fig1_amr_profiles,
    fig2_speedup_fit,
    fig3_static_endtime,
    fig4_static_choices,
)

TINY = EvaluationScale.tiny()

#: fig10's AMR end-time increase (%) and fig11's filling gain (percentage
#: points) per announce interval, at each figure's canonical campaign seed, as
#: the figure runners computed them before the figures became sweeps.
FIG10_END_TIME_INCREASE_PCT = [
    0.0, 10.260785965203102, 19.290047364817674, 33.10406270532668, 44.75291248666344,
    58.60298310548586, 62.52211051685097, 62.52211051685097, 72.38018248176081,
]
FIG11_FILLING_GAIN_PCT = [
    6.316155000952875, 12.66138978283476, 14.34461909073228, 15.000875301587556,
    14.103216199669944, 15.284359691904555, 10.834325720306737, 10.644570840935955,
    14.488413920730963,
]


def sweep(name: str, *axes) -> dict:
    """The built-in figure *name* over *axes* instead of its own, run at
    seed 0: ``{axis values: metrics}``."""
    spec = replace(builtin_scenarios()[name], params={"axes": [list(axis) for axis in axes]})
    points = run_sweep(spec, 0)
    return dict(zip(product(*(values for _path, values in axes)), (m for _v, m in points)))


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
    @pytest.mark.parametrize("name, points", [("fig9", 14), ("fig10", 9), ("fig11", 18)])
    def test_a_figure_never_runs_as_one_point(self, name, points):
        spec = builtin_scenarios()[name]
        assert spec.runner == "amr_psa" and len(spec.expand()) == points
        with pytest.raises(SpecError, match=f"scenario '{name}' is a sweep of {points} points"):
            get_runner(spec.runner)(spec, 0)

    def test_fig9_shape(self):
        points = sweep(
            "fig9",
            ("workload.overcommit", (1.0, 2.0)),
            ("workload.static_allocation", (True, False)),
        )
        assert len(points) == 4
        static = [points[(oc, True)]["amr_used_node_seconds"] for oc in (1.0, 2.0)]
        dynamic = [points[(oc, False)]["amr_used_node_seconds"] for oc in (1.0, 2.0)]
        for s, d in zip(static, dynamic):
            assert s > d
        # Static usage grows with the overcommit factor, dynamic barely moves.
        assert static[1] > static[0]
        assert dynamic[1] <= dynamic[0] * 1.25

    def test_fig10_shape(self):
        intervals = (0.0, TINY.psa1_task_duration)
        points = sweep("fig10", ("workload.announce_interval", intervals))
        spontaneous, announced = (points[(i,)] for i in intervals)
        # The end-time increase against spontaneous updates (interval 0).
        increase = [
            100.0 * (p["amr_end_time"] / spontaneous["amr_end_time"] - 1.0)
            for p in (spontaneous, announced)
        ]
        assert spontaneous["psa_waste_percent"] > 0
        assert announced["psa_waste_percent"] == pytest.approx(0.0, abs=1e-6)
        assert increase[1] > 0
        assert increase[0] == pytest.approx(0.0, abs=1e-6)

    def test_fig11_shape(self):
        interval = TINY.psa1_task_duration / 2
        points = sweep(
            "fig11",
            ("workload.announce_interval", (interval,)),
            ("rms.strict_equipartition", (True, False)),
        )
        assert len(points) == 2
        filling = points[(interval, False)]["used_resources_percent"]
        strict = points[(interval, True)]["used_resources_percent"]
        assert filling - strict > 0

    def test_report_deltas_are_the_derived_series(self, tmp_path):
        """fig10's end-time increase is its sweep table's Δ% of
        ``amr_end_time`` against interval 0, and fig11's filling gain the Δ
        of ``used_resources_percent`` on its filling rows -- to the bit."""
        store = ResultStore(tmp_path)
        spec = CampaignSpec(name="figs", scenarios=tuple(resolve_scenarios(["fig10", "fig11"])))
        CampaignRunner(spec, store=store).run(workers=1)
        tables = sweep_tables(spec, medians(store.load_records("figs")))
        headers, rows = tables["fig10"]
        assert [row[headers.index("Δ% amr_end_time")] for row in rows] == (
            FIG10_END_TIME_INCREASE_PCT
        )
        headers, rows = tables["fig11"]
        filling = [row for row in rows if row[headers.index("strict_equipartition")] == "false"]
        assert [row[headers.index("Δ used_resources_percent")] for row in filling] == (
            FIG11_FILLING_GAIN_PCT
        )

    def test_campaign_policies_keep_points_and_references_apart(self, tmp_path):
        """Under ``--policies`` a policy matrix cell is one point, and the
        Δ still compares the scenario's own last axis, policy held fixed."""
        spec = ScenarioSpec(
            name="s", params={"axes": [["workload.static_allocation", [True, False]]]}
        )
        store = ResultStore(tmp_path)
        campaign = CampaignSpec(name="c", scenarios=(spec,), policies=("coorm", "easy"))
        CampaignRunner(campaign, store=store).run(workers=1)
        records = store.load_records("c")
        summary = medians(records)
        matrix = comparisons(records, by_policy)
        assert sorted(matrix) == ["s[static_allocation=false]", "s[static_allocation=true]"]
        for point, policy in product(matrix, ("coorm", "easy")):
            assert matrix[point][policy] == summary[f"{point}@{policy}"]
        headers, rows = sweep_tables(campaign, summary)["s"]
        assert [row[:2] for row in rows] == [
            ("true", "coorm"), ("true", "easy"), ("false", "coorm"), ("false", "easy"),
        ]
        used = headers.index("amr_used_node_seconds")
        delta = headers.index("Δ amr_used_node_seconds")
        assert [row[delta] for row in rows] == [
            0.0, 0.0, rows[2][used] - rows[0][used], rows[3][used] - rows[1][used],
        ]
