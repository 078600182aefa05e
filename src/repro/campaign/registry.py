"""Registry of scenario runners and built-in scenario definitions.

The campaign layer separates *what* a scenario is (a
:class:`~repro.campaign.spec.ScenarioSpec`) from *how* it executes (a
**runner**: a callable ``(spec, seed) -> {metric: value}``).  Runners are
registered by name in :data:`RUNNERS` (``@RUNNERS.register("name")``) so
that specs stay serialisable -- a campaign JSON file only ever references
runners by their names.

Built-in scenarios (the paper's figures plus a few mixed-workload
configurations) register a builder ``EvaluationScale -> ScenarioSpec`` in
:data:`SCENARIOS` when :mod:`repro.campaign.builtin` is imported, which
:mod:`repro.campaign` guarantees; :func:`resolve_scenarios` builds them.
"""
from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.errors import SpecError
from ..core.registry import Registry
from ..experiments.runner import EvaluationScale
from .spec import SCALE_NAMES, ScenarioSpec

__all__ = [
    "ScenarioRunner",
    "RUNNERS",
    "SCENARIOS",
    "get_runner",
    "builtin_scenarios",
    "resolve_scenarios",
    "run_sweep",
    "record_provenance",
    "consume_provenance",
]

#: A scenario runner executes one (spec, seed) pair and returns a flat,
#: JSON-serialisable mapping of metric name to value.
ScenarioRunner = Callable[[ScenarioSpec, int], Mapping[str, object]]

#: Scenario runners by name.
RUNNERS = Registry("scenario runner")
#: Built-in scenario builders (``EvaluationScale -> ScenarioSpec``) by name.
SCENARIOS = Registry("scenario")

#: Workload provenance of the run currently executing in this process.
#: Runners publish it with :func:`record_provenance`; the campaign runner
#: pops it right after the runner returns.  Each worker process executes one
#: run at a time, so a single slot per process is race-free.
_PROVENANCE: List[Optional[Mapping]] = [None]


def record_provenance(provenance: Optional[Mapping]) -> None:
    """Publish the workload provenance of the currently executing run.

    Scenario runners call this with a JSON-friendly description of where
    their workload came from (trace file fingerprint, model parameters,
    transformation chain, generator knobs); the campaign runner attaches it
    to the run record so the result store can answer "what data produced
    these numbers?" long after the fact.
    """
    _PROVENANCE[0] = None if provenance is None else dict(provenance)


def consume_provenance() -> Optional[Dict]:
    """Pop the provenance published by the last runner invocation."""
    provenance = _PROVENANCE[0]
    _PROVENANCE[0] = None
    return None if provenance is None else dict(provenance)


def get_runner(name: str) -> ScenarioRunner:
    """Look up a runner, with a helpful error listing the known names."""
    return RUNNERS.get(name)


def builtin_scenarios() -> Dict[str, ScenarioSpec]:
    """Name -> spec of every built-in scenario at its default scale."""
    names = SCENARIOS.names()
    return dict(zip(names, resolve_scenarios(names)))


def resolve_scenarios(
    names: Iterable[str], scale: Optional[str] = None
) -> List[ScenarioSpec]:
    """Build the built-in scenarios *names* at *scale* (default ``tiny``).

    The one place a named built-in meets a scale, which is how ``python -m
    repro campaign run --scale`` works: a figure's sweep is laid out for the
    scale's task durations.
    """
    scale = scale or "tiny"
    if scale not in SCALE_NAMES:
        raise SpecError(f"scale must be one of {SCALE_NAMES}, got {scale!r}")
    evaluation = getattr(EvaluationScale, scale)()
    specs = [SCENARIOS.get(name)(evaluation) for name in names]
    return [spec if spec.scale == scale else spec.with_scale(scale) for spec in specs]


def run_sweep(spec: ScenarioSpec, seed: int) -> List[Tuple[ScenarioSpec, Dict[str, object]]]:
    """``(variant, metrics)`` per variant of *spec*, run at *seed* in
    expansion order on this thread, under whatever the caller observes.

    The loop a campaign spreads over its units, for callers that want every
    point of one scenario at one seed (a trace of a whole figure, a golden).
    """
    points = []
    for variant in spec.expand():
        points.append((variant, dict(get_runner(variant.runner)(variant, seed))))
        consume_provenance()
    return points
