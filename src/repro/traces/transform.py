"""Composable trace transformations with recorded provenance.

Each transformation is a small frozen dataclass mapping a
:class:`~repro.traces.swf.Trace` to a new trace; applying one appends a
``{"kind": ..., **params}`` step to the trace's provenance, so any trace can
tell exactly how it was derived from its source.  A :class:`Pipeline` chains
transformations and round-trips through a list of dictionaries, which is how
campaign scenario specs describe trace preprocessing declaratively.

The transformations cover the standard preprocessing steps of trace-driven
evaluation: dropping non-runnable records (:class:`FilterJobs`), cutting a
time window (:class:`TimeWindow`), rescaling the offered load
(:class:`LoadRescale`), clamping jobs into a smaller cluster
(:class:`ClampNodes`) and re-basing submit times (:class:`ShiftToZero`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Tuple

from ..core.registry import Registry
from ..core.serde import Spec, located
from .swf import SwfJob, Trace

__all__ = [
    "FilterJobs",
    "TimeWindow",
    "LoadRescale",
    "ClampNodes",
    "ShiftToZero",
    "Pipeline",
    "transform_from_dict",
]


@dataclass(frozen=True)
class _Transform(Spec):
    """Base class: `apply`; the codec writes a step as its fields plus kind."""

    def apply(self, trace: Trace) -> Trace:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class FilterJobs(_Transform):
    """Keep only jobs inside the given node/duration/status bounds.

    ``None`` bounds are inactive; ``require_valid`` additionally drops
    records that cannot run at all (unknown size or duration), which real
    archive traces are full of.
    """

    kind = "filter"
    min_nodes: Optional[int] = None
    max_nodes: Optional[int] = None
    min_duration: Optional[float] = None
    max_duration: Optional[float] = None
    statuses: Optional[Tuple[int, ...]] = None
    require_valid: bool = True

    def validate(self) -> None:
        # A NaN bound compares False against everything, silently turning
        # the filter into a no-op (or dropping nothing) -- reject it.
        for name in ("min_nodes", "max_nodes", "min_duration", "max_duration"):
            value = getattr(self, name)
            if value is not None and math.isnan(value):
                raise ValueError(f"{name} must not be NaN")
        if self.statuses is not None:
            object.__setattr__(
                self, "statuses", tuple(int(s) for s in self.statuses)
            )

    def _keep(self, job: SwfJob) -> bool:
        if self.require_valid and not job.is_valid_job():
            return False
        if self.min_nodes is not None and job.node_count < self.min_nodes:
            return False
        if self.max_nodes is not None and job.node_count > self.max_nodes:
            return False
        if self.min_duration is not None and job.duration < self.min_duration:
            return False
        if self.max_duration is not None and job.duration > self.max_duration:
            return False
        if self.statuses is not None and job.status not in self.statuses:
            return False
        return True

    def apply(self, trace: Trace) -> Trace:
        kept = [job for job in trace.jobs if self._keep(job)]
        step = self.to_dict()
        step["dropped"] = trace.job_count - len(kept)
        return trace.with_jobs(kept, step=step)


@dataclass(frozen=True)
class TimeWindow(_Transform):
    """Keep jobs submitted inside ``[start, end)`` (seconds from trace start)."""

    kind = "time_window"
    start: float = 0.0
    end: Optional[float] = None  # None (or infinity): open-ended

    def validate(self) -> None:
        if self.end == math.inf:
            object.__setattr__(self, "end", None)  # an open window stays strict JSON
        # `not start < end` (instead of `end <= start`) also rejects NaN
        # bounds, which would otherwise silently drop every job.
        if not math.isfinite(self.start) or not (self.end is None or self.start < self.end):
            raise ValueError("time window must satisfy finite start < end")

    def apply(self, trace: Trace) -> Trace:
        end = math.inf if self.end is None else self.end
        kept = [job for job in trace.jobs if self.start <= job.submit_time < end]
        step = self.to_dict()
        step["dropped"] = trace.job_count - len(kept)
        return trace.with_jobs(kept, step=step)


@dataclass(frozen=True)
class LoadRescale(_Transform):
    """Rescale the offered load by compressing or stretching arrivals.

    A factor of 2 doubles the load: inter-arrival gaps halve while job sizes
    and durations stay untouched.  The job count is always preserved -- the
    transformation changes *when* work arrives, never *how much*.
    """

    kind = "load_rescale"
    factor: float = 1.0

    def validate(self) -> None:
        if not 0 < self.factor < math.inf:  # also rejects NaN
            raise ValueError("load factor must be positive and finite")

    def apply(self, trace: Trace) -> Trace:
        if not trace.jobs:
            return trace.with_jobs((), step=self.to_dict())
        origin = min(job.submit_time for job in trace.jobs)
        rescaled = [
            replace(
                job,
                submit_time=origin + (job.submit_time - origin) / self.factor,
            )
            for job in trace.jobs
        ]
        return trace.with_jobs(rescaled, step=self.to_dict())


@dataclass(frozen=True)
class ClampNodes(_Transform):
    """Clamp per-job node counts to *max_nodes* (e.g. the simulated cluster).

    Both the requested and the used processor counts are clamped, and the
    header's ``MaxNodes``/``MaxProcs`` directives are updated to match, so a
    clamped trace never asks for more than the cluster it targets.
    """

    kind = "clamp_nodes"
    max_nodes: int = 1

    def validate(self) -> None:
        if not 0 < self.max_nodes < math.inf:  # also rejects NaN
            raise ValueError("max_nodes must be positive and finite")

    def apply(self, trace: Trace) -> Trace:
        clamped = [
            replace(
                job,
                req_procs=min(job.req_procs, self.max_nodes),
                used_procs=min(job.used_procs, self.max_nodes),
            )
            for job in trace.jobs
        ]
        header = trace.header.with_directive("MaxNodes", self.max_nodes)
        header = header.with_directive("MaxProcs", self.max_nodes)
        return trace.with_header(header).with_jobs(clamped, step=self.to_dict())


@dataclass(frozen=True)
class ShiftToZero(_Transform):
    """Re-base submit times so the first submission happens at t=0."""

    kind = "shift_to_zero"

    def apply(self, trace: Trace) -> Trace:
        if not trace.jobs:
            return trace.with_jobs((), step=self.to_dict())
        origin = min(job.submit_time for job in trace.jobs)
        shifted = [
            replace(job, submit_time=job.submit_time - origin) for job in trace.jobs
        ]
        step = self.to_dict()
        step["shifted_by"] = origin
        return trace.with_jobs(shifted, step=step)


#: kind tag -> transformation class, for deserialisation.
TRANSFORM_KINDS = Registry("trace transform kind")
for _cls in (FilterJobs, TimeWindow, LoadRescale, ClampNodes, ShiftToZero):
    TRANSFORM_KINDS.register(_cls.kind, _cls)


def transform_from_dict(data: Mapping) -> _Transform:
    """Rebuild a transformation from its ``{"kind": ...}`` dictionary.

    Bookkeeping keys that :meth:`apply` adds to provenance steps (job drop
    counts, shift offsets) are ignored, so a recorded provenance step is
    itself a valid transformation description.
    """
    cleaned = {
        k: v for k, v in dict(data).items() if k not in ("dropped", "shifted_by")
    }
    return TRANSFORM_KINDS.get(cleaned.pop("kind", None)).from_dict(cleaned)


@dataclass(frozen=True)
class Pipeline:
    """An ordered chain of transformations applied left to right."""

    steps: Tuple[_Transform, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    def apply(self, trace: Trace) -> Trace:
        for step in self.steps:
            trace = step.apply(trace)
        return trace

    @classmethod
    def from_dicts(cls, data: Sequence[Mapping]) -> "Pipeline":
        steps = []
        for index, step in enumerate(data):
            with located(f"[{index}]"):
                steps.append(transform_from_dict(step))
        return cls(steps=tuple(steps))
