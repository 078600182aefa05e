"""Declarative service-level objectives evaluated over traced runs.

An :class:`SLOSpec` is a named bundle of objectives -- queue-wait ceilings,
bounded-slowdown bounds, SLA attainment percentages, utilization floors --
declared as plain data and JSON round-trippable, so specs live in files next
to campaign configs rather than in code.  :func:`evaluate_slo` measures each
objective against the :class:`~repro.obs.lifecycle.JobAudit` list (and, for
utilization, the :class:`~repro.obs.timeline.Timeline`) of one run and
returns a report whose flat form slots straight into campaign records, where
the existing median machinery aggregates it across replicates.

Objective kinds:

``p95_wait``
    95th-percentile queue wait must not exceed ``max_seconds``.
``mean_bounded_slowdown``
    Mean bounded slowdown (tau = 10 s) must not exceed ``max``.
``attainment``
    At least ``min_percent`` % of started jobs must have waited no longer
    than ``wait_seconds`` (the classic SLA-attainment objective).
``utilization``
    Mean cluster utilization must be at least ``min_percent`` % (requires a
    timeline; the objective is skipped -- not failed -- without one).
``time_to_recover``
    The longest contiguous span with at least one federation member down
    (the timeline's ``fault.down`` series) must not exceed ``max_seconds``
    (requires a fault-traced timeline; skipped without one).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.errors import SpecError
from ..core.registry import unknown_name
from ..core.serde import Spec, located, read_json, require_text
from .lifecycle import JobAudit, percentile
from .timeline import Timeline

__all__ = ["SLOSpec", "SLOReport", "evaluate_slo", "DEFAULT_SLO"]

#: Objective kinds and the parameter each one requires.
OBJECTIVE_KINDS = {
    "p95_wait": ("max_seconds",),
    "mean_bounded_slowdown": ("max",),
    "attainment": ("wait_seconds", "min_percent"),
    "utilization": ("min_percent",),
    "time_to_recover": ("max_seconds",),
}


@dataclass(frozen=True)
class SLOSpec(Spec):
    """A named, declarative set of objectives (immutable, JSON-round-trip)."""

    name: str = "unnamed"
    objectives: Tuple[Mapping[str, object], ...] = ()

    def validate(self) -> None:
        require_text(self.name, "name")
        if not (isinstance(self.objectives, (list, tuple)) and self.objectives):
            raise SpecError(
                f"SLO spec {self.name!r} declares no objectives (a non-empty "
                "'objectives' list is required)"
            )
        objectives = []
        for index, obj in enumerate(self.objectives):
            with located(f"objectives[{index}]"):
                obj = dict(obj)  # a copy: the spec is frozen, the caller's dict is not
                kind = obj.get("kind")
                if kind not in OBJECTIVE_KINDS:
                    raise unknown_name("objective kind", kind, OBJECTIVE_KINDS)
                missing = [p for p in OBJECTIVE_KINDS[kind] if p not in obj]
                if missing:
                    raise SpecError(f"objective {kind!r} missing parameters {missing}")
            objectives.append(obj)
        object.__setattr__(self, "objectives", tuple(objectives))

    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "SLOSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid SLO spec JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "SLOSpec":
        """Read a spec from a JSON file (``--slo`` takes a path or a name)."""
        return read_json(path, cls.from_dict)


#: A deliberately loose baseline spec: the reference fig9 workload passes it
#: comfortably, so it works as a smoke-level regression tripwire out of the
#: box while serving as a template for stricter, scenario-specific specs.
DEFAULT_SLO = SLOSpec(
    name="default",
    objectives=(
        {"kind": "p95_wait", "max_seconds": 3600.0},
        {"kind": "mean_bounded_slowdown", "max": 10.0},
        {"kind": "attainment", "wait_seconds": 3600.0, "min_percent": 90.0},
    ),
)


@dataclass
class SLOReport:
    """Outcome of evaluating one spec against one run."""

    spec_name: str
    #: One entry per objective: kind, threshold params, measured, ok/skipped.
    results: List[Dict[str, object]]

    @property
    def evaluated(self) -> List[Dict[str, object]]:
        return [r for r in self.results if not r.get("skipped")]

    @property
    def violations(self) -> int:
        return sum(1 for r in self.evaluated if not r["ok"])

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec_name,
            "passed": self.passed,
            "violations": self.violations,
            "results": list(self.results),
        }

    def to_flat(self) -> Dict[str, float]:
        """Flat numeric view for campaign records (median-aggregatable)."""
        flat: Dict[str, float] = {
            "slo.passed": 1.0 if self.passed else 0.0,
            "slo.violations": float(self.violations),
        }
        for r in self.results:
            if not r.get("skipped"):
                flat[f"slo.{r['kind']}"] = float(r["measured"])
        return flat


def _measure(
    kind: str,
    obj: Mapping[str, object],
    audits: List[JobAudit],
    timeline: Optional[Timeline],
) -> Tuple[Optional[float], Optional[bool]]:
    """(measured value, ok) of one objective; (None, None) when skipped."""
    waits = [a.queue_wait for a in audits if a.queue_wait is not None]
    if kind == "p95_wait":
        measured = percentile(waits, 95.0)
        return measured, measured <= float(obj["max_seconds"])
    if kind == "mean_bounded_slowdown":
        slowdowns = [
            a.bounded_slowdown for a in audits if a.bounded_slowdown is not None
        ]
        measured = sum(slowdowns) / len(slowdowns) if slowdowns else 1.0
        return measured, measured <= float(obj["max"])
    if kind == "attainment":
        if not waits:
            return 100.0, 100.0 >= float(obj["min_percent"])
        ceiling = float(obj["wait_seconds"])
        attained = sum(1 for w in waits if w <= ceiling)
        measured = 100.0 * attained / len(waits)
        return measured, measured >= float(obj["min_percent"])
    if kind == "utilization":
        if timeline is None or "util.pct" not in timeline.series:
            return None, None
        measured = timeline.stats("util.pct")["mean"]
        return measured, measured >= float(obj["min_percent"])
    if kind == "time_to_recover":
        if timeline is None or "fault.down" not in timeline.series:
            return None, None
        # Longest contiguous grid span with any member down.  The series
        # is piecewise-constant over the grid, so summing the intervals
        # whose left point is down measures the outage span to within one
        # grid step -- deterministic and good enough for an objective.
        times = timeline.times()
        values = timeline.series["fault.down"]
        longest = current = 0.0
        for i in range(len(values) - 1):
            if values[i] > 0:
                current += times[i + 1] - times[i]
                longest = max(longest, current)
            else:
                current = 0.0
        return longest, longest <= float(obj["max_seconds"])
    raise ValueError(f"unknown objective kind {kind!r}")


def evaluate_slo(
    spec: SLOSpec,
    audits: List[JobAudit],
    timeline: Optional[Timeline] = None,
) -> SLOReport:
    """Evaluate every objective of *spec* against one run's audits.

    Objectives that cannot be measured with the inputs given (currently only
    ``utilization`` without a timeline) are marked ``skipped`` rather than
    failed, so one spec works across commands that do and do not build
    timelines.
    """
    results: List[Dict[str, object]] = []
    for obj in spec.objectives:
        kind = str(obj["kind"])
        measured, ok = _measure(kind, obj, audits, timeline)
        entry: Dict[str, object] = {
            "kind": kind,
            **{p: obj[p] for p in OBJECTIVE_KINDS[kind]},
        }
        if measured is None:
            entry["skipped"] = True
        else:
            entry["measured"] = round(measured, 6)
            entry["ok"] = bool(ok)
        results.append(entry)
    return SLOReport(spec_name=spec.name, results=results)
