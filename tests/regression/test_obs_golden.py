"""Golden regression of the deterministic trace export and its analytics.

The fixtures under ``tests/data/golden_obs/`` pin the byte-exact JSONL
trace of the fig9 scenario at its canonical campaign seed, plus the
byte-exact timeline and job-audit analytics derived from it (see
``generate_obs_golden.py``).  A drifting digest means the engine's event
order, the scheduler's decisions, the instrumentation or the analytics
changed -- all of which invalidate recorded traces and must be explicit.
"""
from __future__ import annotations

import json

import pytest

from tests.regression.generate_obs_golden import (
    GOLDEN_OBS_DIR,
    TRACED_SCENARIO,
    golden_digests,
)


def load_fixture(kind: str = "trace") -> dict:
    path = GOLDEN_OBS_DIR / f"{TRACED_SCENARIO}_{kind}.json"
    assert path.is_file(), (
        f"missing golden {kind} fixture {path}; run "
        "'PYTHONPATH=src python tests/regression/generate_obs_golden.py'"
    )
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fresh_digests() -> tuple:
    """One traced scenario run shared by every assertion in this module."""
    return golden_digests()


@pytest.fixture(scope="module")
def fresh(fresh_digests: tuple) -> dict:
    return fresh_digests[0]


@pytest.fixture(scope="module")
def fresh_analytics(fresh_digests: tuple) -> dict:
    return fresh_digests[1]


def _dispatch_labels(head_lines) -> list:
    labels = []
    for line in head_lines:
        event = json.loads(line)
        if event.get("cat") == "engine" and event.get("name") == "dispatch":
            labels.append(event["args"]["callback"])
    return labels


def _drifted(fresh: dict, pinned: dict) -> list:
    """The keys of two digest maps whose digests differ (or exist on one side only)."""
    return sorted(key for key in fresh.keys() | pinned.keys() if fresh.get(key) != pinned.get(key))


def test_trace_export_matches_golden_digest(fresh: dict) -> None:
    fixture = load_fixture()

    assert fresh["seed"] == fixture["seed"], "seed derivation changed"
    drifted = _drifted(fresh["kind_sha256"], fixture["kind_sha256"])
    assert not drifted, f"trace events of these kinds drifted: {drifted}"
    assert fresh["event_count"] == fixture["event_count"]
    assert fresh["count_by"] == fixture["count_by"], (
        "per-event-type counts drifted; the instrumentation or the "
        "simulation behaviour changed"
    )
    assert fresh["head"] == fixture["head"], "leading trace events changed"
    assert fresh["sha256"] == fixture["sha256"], (
        "trace bytes drifted despite identical counts -- event ordering or "
        "argument values changed"
    )


def test_dispatch_labels_match_golden(fresh: dict) -> None:
    """Memoized callback labels must equal the labels pinned in the golden.

    The label cache keys on code objects; if it ever returned a stale or
    identity-dependent string, the dispatch events would drift here first.
    """
    fixture = load_fixture()
    expected = _dispatch_labels(fixture["head"])
    actual = _dispatch_labels(fresh["head"])
    assert actual == expected, "engine dispatch callback labels drifted"


def test_analytics_match_golden_digest(fresh_analytics: dict) -> None:
    """Timeline and audit bytes derived from the trace are pinned too.

    The analytics are pure functions of the trace, so this digest can only
    drift when the trace itself drifted (caught above) or when the
    timeline/lifecycle derivation changed -- either way the recorded
    analytics of past campaigns are invalidated and the change must be
    deliberate.
    """
    fixture = load_fixture("analytics")

    assert fresh_analytics["seed"] == fixture["seed"], "seed derivation changed"
    assert fresh_analytics["timeline_series"] == fixture["timeline_series"], (
        "the set of timeline series changed"
    )
    drifted = _drifted(fresh_analytics["timeline_series_sha256"], fixture["timeline_series_sha256"])
    assert not drifted, f"these timeline series drifted: {drifted}"
    assert fresh_analytics["jobs"] == fixture["jobs"]
    assert fresh_analytics["wait_p95"] == fixture["wait_p95"]
    assert fresh_analytics["node_seconds"] == fixture["node_seconds"]
    assert fresh_analytics["timeline_sha256"] == fixture["timeline_sha256"], (
        "timeline bytes drifted -- sampling grid or series derivation changed"
    )
    assert fresh_analytics["audits_sha256"] == fixture["audits_sha256"], (
        "job-audit bytes drifted -- lifecycle derivation changed"
    )
