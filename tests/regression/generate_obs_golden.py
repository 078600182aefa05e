"""Regenerate the golden trace digests under ``tests/data/golden_obs/``.

Two fixtures are pinned, both from the fig9 scenario at its canonical
campaign seed:

* ``fig9_trace.json`` -- the **byte-exact** JSONL trace export: event
  count, per-(category, name) counts, the first few JSONL lines verbatim,
  the SHA-256 of the full export, and one SHA-256 per ``category/name``
  kind over its events with ``seq`` removed (so a drift names its kinds).
* ``fig9_analytics.json`` -- the **byte-exact** analytics derived from that
  trace: SHA-256 of the canonical timeline JSON (and of each series) and of
  the canonical audit list JSON, plus a few headline values for
  human-readable drift reports.

``tests/regression/test_obs_golden.py`` re-runs the scenario under the
tracer and compares -- the trace stream and everything derived from it are
required to be deterministic, so any drift is a real behaviour change in
the engine, the scheduler, the instrumentation or the analytics, and must
come with a regenerated fixture and an explanation in the commit that
carries it.

Run ONLY after verifying a change is intentional::

    PYTHONPATH=src python tests/regression/generate_obs_golden.py
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.campaign import builtin  # noqa: F401  (registers the scenarios)
from repro.campaign.registry import builtin_scenarios, run_sweep
from repro.obs import EventTracer, observe
from repro.sim.randomness import derive_seed

#: The traced scenario and the number of verbatim head lines pinned.
TRACED_SCENARIO = "fig9"
HEAD_LINES = 5

GOLDEN_OBS_DIR = Path(__file__).resolve().parent.parent / "data" / "golden_obs"


def _traced_scenario(name: str) -> tuple:
    """Run one scenario -- every point of its sweep, in order -- under the
    tracer at its canonical campaign seed."""
    spec = builtin_scenarios()[name]
    seed = derive_seed(0, name, 0)
    tracer = EventTracer()
    with observe(tracer=tracer):
        run_sweep(spec, seed)
    return tracer, seed


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _kind_digests(tracer: EventTracer) -> dict:
    """``cat/name`` -> SHA-256 of that kind's events, in order, ``seq`` removed."""
    lines: dict = {}
    for event in tracer.events:
        record = event.to_dict()
        del record["seq"]
        line = json.dumps(record, sort_keys=True, allow_nan=False)
        lines.setdefault(f"{event.cat}/{event.name}", []).append(line)
    return {kind: _sha256("\n".join(kind_lines)) for kind, kind_lines in sorted(lines.items())}


def _trace_digest(tracer: EventTracer, name: str, seed: int) -> dict:
    text = tracer.to_jsonl()
    return {
        "scenario": name,
        "seed": seed,
        "event_count": len(tracer),
        "count_by": {
            f"{cat}/{event}": count
            for (cat, event), count in sorted(tracer.count_by().items())
        },
        "head": text.splitlines()[:HEAD_LINES],
        "sha256": _sha256(text),
        "kind_sha256": _kind_digests(tracer),
    }


def _analytics_digest(tracer: EventTracer, name: str, seed: int) -> dict:
    from repro.obs.lifecycle import audits_to_json, build_audits, summarize_audits
    from repro.obs.timeline import TimelineBuilder

    timeline = TimelineBuilder().build(tracer.events)
    audits = build_audits(tracer.events)
    summary = summarize_audits(audits)
    return {
        "scenario": name,
        "seed": seed,
        "timeline_series": sorted(timeline.series),
        "timeline_sha256": _sha256(timeline.to_json()),
        "timeline_series_sha256": {
            series: _sha256(json.dumps(values, allow_nan=False))
            for series, values in sorted(timeline.series.items())
        },
        "jobs": int(summary["jobs"]),
        "wait_p95": summary["wait_p95"],
        "node_seconds": summary["node_seconds"],
        "audits_sha256": _sha256(audits_to_json(audits)),
    }


def golden_digests(name: str = TRACED_SCENARIO) -> tuple:
    """(trace digest, analytics digest) from one shared scenario run."""
    tracer, seed = _traced_scenario(name)
    return _trace_digest(tracer, name, seed), _analytics_digest(tracer, name, seed)


def golden_trace_digest(name: str = TRACED_SCENARIO) -> dict:
    """Run one scenario under the tracer and digest its JSONL export."""
    tracer, seed = _traced_scenario(name)
    return _trace_digest(tracer, name, seed)


def main() -> None:
    GOLDEN_OBS_DIR.mkdir(parents=True, exist_ok=True)
    trace, analytics = golden_digests()
    path = GOLDEN_OBS_DIR / f"{TRACED_SCENARIO}_trace.json"
    path.write_text(
        json.dumps(trace, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {path} ({trace['event_count']} events, sha {trace['sha256'][:12]})")
    path = GOLDEN_OBS_DIR / f"{TRACED_SCENARIO}_analytics.json"
    path.write_text(
        json.dumps(analytics, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"wrote {path} (timeline sha {analytics['timeline_sha256'][:12]}, "
        f"audits sha {analytics['audits_sha256'][:12]})"
    )


if __name__ == "__main__":
    main()
