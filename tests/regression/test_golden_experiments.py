"""Golden regression tests: the figure scenarios must reproduce their fixtures.

Every fixture under ``tests/data/golden/`` pins the metrics one figure
scenario produced at the campaign's canonical seed when the fixture was
generated (see ``generate_golden.py``).  These tests re-run the scenarios and
compare metric-by-metric with explicit tolerances, so refactors of the
scheduling path cannot silently drift the paper outputs.

The simulations are fully deterministic, so the tolerances only absorb
floating-point noise across platforms and library versions -- any visible
change is a real behaviour change and must come with regenerated fixtures and
an explanation in the commit that carries them.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from tests.regression.generate_golden import GOLDEN_DIR, GOLDEN_SCENARIOS, golden_record

#: Relative tolerance for metric comparison.  The runs are deterministic;
#: this only absorbs cross-platform floating-point differences.
REL_TOL = 1e-9
ABS_TOL = 1e-9


def load_fixture(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    assert path.is_file(), (
        f"missing golden fixture {path}; run "
        "'PYTHONPATH=src python tests/regression/generate_golden.py'"
    )
    return json.loads(path.read_text(encoding="utf-8"))


def assert_metric_equal(name: str, key: str, expected, actual) -> None:
    __tracebackhide__ = True
    if expected is None or actual is None:
        assert expected == actual, (
            f"{name}: metric {key!r} changed: expected {expected!r}, got {actual!r}"
        )
    elif isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
            f"{name}: metric {key!r} drifted: expected {expected!r}, got {actual!r}"
        )
    else:
        assert expected == actual, (
            f"{name}: metric {key!r} changed: expected {expected!r}, got {actual!r}"
        )


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_figure_scenario_matches_golden_fixture(name: str) -> None:
    fixture = load_fixture(name)
    fresh = golden_record(name)

    assert fresh["seed"] == fixture["seed"], (
        f"{name}: seed derivation changed "
        f"({fixture['seed']} -> {fresh['seed']}); campaign replays are broken"
    )
    # A sweep pins each point's metrics; a single run is its one point.
    expected_points = fixture.get("points", {name: fixture.get("metrics")})
    actual_points = fresh.get("points", {name: fresh.get("metrics")})
    assert sorted(actual_points) == sorted(expected_points), f"{name}: the sweep's points changed"
    for point, expected_metrics in expected_points.items():
        actual_metrics = actual_points[point]
        missing = sorted(set(expected_metrics) - set(actual_metrics))
        added = sorted(set(actual_metrics) - set(expected_metrics))
        assert not missing, f"{point}: metrics disappeared: {missing}"
        assert not added, f"{point}: unexpected new metrics: {added}"
        for key in sorted(expected_metrics):
            assert_metric_equal(point, key, expected_metrics[key], actual_metrics[key])


def test_every_fixture_has_a_scenario() -> None:
    """Stale fixtures (for deleted scenarios) must be removed, not ignored."""
    fixture_names = {p.stem for p in Path(GOLDEN_DIR).glob("*.json")}
    # wire_keys.json is the wire-format golden (see test_wire_golden.py).
    assert fixture_names - {"wire_keys"} == set(GOLDEN_SCENARIOS)
