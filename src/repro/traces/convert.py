"""Converting rigid traces into mixes of adaptive applications.

Archived traces only know rigid jobs, but the paper's whole point (Section 4)
is a protocol under which rigid, moldable, malleable and evolving
applications coexist.  This module maps each rigid trace record onto one of
those four application kinds -- deterministically, using a per-job derived
seed, so the assignment never depends on iteration order or worker count --
and builds the corresponding simulator application objects:

* **rigid** jobs replay exactly as recorded;
* **moldable** jobs may reshape to nearby power-of-two node counts under a
  work-conserving walltime model (same node-seconds at any size);
* **malleable** jobs keep half their nodes as a firm minimum and treat the
  rest as an elastic, preemptible extra;
* **evolving** jobs declare a grow-shrink phase plan (half / full / half)
  whose node-seconds match the original record.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..apps.base import BaseApplication
from ..apps.evolving_predictable import (
    EvolutionPhase,
    FullyPredictableEvolvingApplication,
)
from ..apps.malleable import MalleableApplication, power_of_two_selector
from ..apps.moldable import MoldableApplication
from ..apps.rigid import RigidApplication, RigidJobSpec
from ..core.errors import SpecError, WorkloadError
from ..core.serde import Spec
from ..sim.randomness import MAX_DERIVED_SEED, derive_seed
from .swf import Trace

__all__ = [
    "APP_KINDS",
    "AdaptiveMix",
    "ConvertedJob",
    "convert_trace",
    "build_application",
    "mix_counts",
    "replay_horizon",
]

#: Application kinds a trace job can be converted into, in mix order.
APP_KINDS: Tuple[str, ...] = ("rigid", "moldable", "malleable", "evolving")


@dataclass(frozen=True)
class AdaptiveMix(Spec):
    """Target fractions of each application kind (normalised on use)."""

    rigid: float = 1.0
    moldable: float = 0.0
    malleable: float = 0.0
    evolving: float = 0.0

    def validate(self) -> None:
        # `not 0 <= f` (instead of `f < 0`) also rejects NaN fractions,
        # which would otherwise send every job to the last kind.
        if any(not 0 <= getattr(self, kind) < math.inf for kind in APP_KINDS):
            raise SpecError("mix fractions must be >= 0 and finite")
        if not self.total > 0:
            raise SpecError("at least one mix fraction must be positive")

    @property
    def total(self) -> float:
        return sum(getattr(self, kind) for kind in APP_KINDS)

    def pick(self, draw: float) -> str:
        """Map a uniform draw in [0, 1) onto a kind via cumulative fractions."""
        cumulative = 0.0
        for kind in APP_KINDS:
            cumulative += getattr(self, kind) / self.total
            if draw < cumulative:
                return kind
        return APP_KINDS[-1]

    @classmethod
    def parse(cls, text: str) -> "AdaptiveMix":
        """Parse ``"rigid=0.5,moldable=0.3,evolving=0.2"``-style CLI mixes."""
        if not text.strip():
            return cls()
        values: Dict[str, float] = {kind: 0.0 for kind in APP_KINDS}
        for item in text.split(","):
            kind, sep, fraction = item.partition("=")
            kind = kind.strip()
            if not sep or kind not in APP_KINDS:
                raise WorkloadError(
                    f"bad mix component {item!r}; expected kind=fraction with "
                    f"kind in {APP_KINDS}"
                )
            try:
                values[kind] = float(fraction)
            except ValueError:
                raise WorkloadError(f"bad mix fraction in {item!r}") from None
        return cls(**values)


@dataclass(frozen=True)
class ConvertedJob:
    """One trace job assigned to an application kind."""

    kind: str
    job_id: str
    submit_time: float
    node_count: int
    duration: float

    def __post_init__(self) -> None:
        if self.kind not in APP_KINDS:
            raise ValueError(f"kind must be one of {APP_KINDS}, got {self.kind!r}")

    @property
    def area(self) -> float:
        return self.node_count * self.duration

    @property
    def end_of_work(self) -> float:
        """Earliest possible completion (submit + duration)."""
        return self.submit_time + self.duration


def _as_rigid_jobs(trace) -> List[RigidJobSpec]:
    if isinstance(trace, Trace):
        return trace.to_rigid_jobs()
    return sorted(trace, key=lambda j: (j.submit_time, j.job_id))


def convert_trace(
    trace,
    mix: AdaptiveMix = AdaptiveMix(),
    seed: Optional[int] = 0,
    max_nodes: Optional[int] = None,
) -> List[ConvertedJob]:
    """Assign every job of *trace* to an application kind.

    *trace* is a :class:`~repro.traces.swf.Trace` or any iterable of
    :class:`~repro.apps.rigid.RigidJobSpec`.  The kind of each job
    is drawn from ``derive_seed(seed, "convert", job_id)``, so the assignment
    of one job never depends on the other jobs, on ordering, or on which
    worker process performs the conversion.  *max_nodes* (when given) clamps
    node counts so converted jobs fit the target cluster.
    """
    converted: List[ConvertedJob] = []
    for job in _as_rigid_jobs(trace):
        # The derived seed is already a uniform 63-bit hash of (seed, job id);
        # dividing by the bound turns it into the kind-selection draw without
        # paying for a numpy Generator per job on this hot path.
        draw = derive_seed(seed, "convert", job.job_id) / MAX_DERIVED_SEED
        nodes = job.node_count if max_nodes is None else min(job.node_count, max_nodes)
        converted.append(
            ConvertedJob(
                kind=mix.pick(draw),
                job_id=job.job_id,
                submit_time=job.submit_time,
                node_count=max(1, nodes),
                duration=job.duration,
            )
        )
    return converted


def _power_of_two_candidates(nodes: int, max_nodes: int) -> List[int]:
    """Power-of-two node counts around *nodes* (always including *nodes*)."""
    lower = max(1, nodes // 2)
    upper = max(nodes, min(2 * nodes, max_nodes))
    candidates = {nodes}
    power = 1
    while power <= upper:
        if power >= lower:
            candidates.add(power)
        power <<= 1
    return sorted(min(c, max_nodes) for c in candidates if c > 0)


def _evolution_phases(job: ConvertedJob) -> List[EvolutionPhase]:
    """A half / full / half phase plan preserving the job's node-seconds.

    With the ramp node count at half the peak, splitting the *area* into
    thirds means the two ramp phases each run twice as long as a third of
    the original duration would -- the plan keeps the work, not the span.
    """
    half = max(1, job.node_count // 2)
    if half == job.node_count or job.duration < 3.0:
        return [EvolutionPhase(node_count=job.node_count, duration=job.duration)]
    area_third = job.area / 3.0
    return [
        EvolutionPhase(node_count=half, duration=area_third / half),
        EvolutionPhase(node_count=job.node_count, duration=area_third / job.node_count),
        EvolutionPhase(node_count=half, duration=area_third / half),
    ]


def build_application(job: ConvertedJob, cluster_nodes: int) -> BaseApplication:
    """Instantiate the simulator application a converted job maps to."""
    nodes = max(1, min(job.node_count, cluster_nodes))
    if job.kind == "rigid":
        return RigidApplication(job.job_id, node_count=nodes, duration=job.duration)
    if job.kind == "moldable":
        area = nodes * job.duration
        return MoldableApplication(
            job.job_id,
            candidate_node_counts=_power_of_two_candidates(nodes, cluster_nodes),
            walltime_model=lambda n: area / n,
        )
    if job.kind == "malleable":
        return MalleableApplication(
            job.job_id,
            min_nodes=max(1, nodes // 2),
            duration=job.duration,
            extra_selector=lambda available: min(
                power_of_two_selector(available), cluster_nodes
            ),
        )
    if job.kind == "evolving":
        return FullyPredictableEvolvingApplication(
            job.job_id, phases=_evolution_phases(job)
        )
    raise WorkloadError(f"unknown application kind {job.kind!r}")


def mix_counts(jobs: Sequence[ConvertedJob]) -> Dict[str, int]:
    """How many jobs of each kind a conversion produced."""
    counts = {kind: 0 for kind in APP_KINDS}
    for job in jobs:
        counts[job.kind] += 1
    return counts


def replay_horizon(jobs: Sequence[ConvertedJob]) -> float:
    """A lower bound on when the whole converted stream can be done."""
    return max((job.end_of_work for job in jobs), default=0.0)
