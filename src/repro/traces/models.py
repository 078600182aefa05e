"""Statistical workload models: synthesize SWF traces from fitted parameters.

A :class:`TraceModel` combines three independent component models -- an
arrival process, a duration distribution and a node-count distribution --
and synthesizes arbitrarily many :class:`~repro.traces.swf.SwfJob` records
from them.  Component models mirror the classic Parallel Workloads Archive
observations:

* arrivals are Poisson (:class:`PoissonArrivals`) or follow a daily cycle
  (:class:`DailyCycleArrivals`, a non-homogeneous Poisson process thinned
  against a sinusoidal rate);
* durations are log-uniform (:class:`LogUniformDuration`) or log-normal
  (:class:`LogNormalDuration`);
* node counts are log-uniform, optionally rounded down to powers of two
  (:class:`LogUniformNodes`).

Every model round-trips through a ``{"kind": ...}`` dictionary so trace
sources in campaign scenario specs stay plain JSON, and every model can be
*fitted* from an existing trace, which turns a short real trace into an
arbitrarily long statistically-similar synthetic one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..core.errors import SpecError, WorkloadError
from ..core.registry import Registry
from ..core.serde import Spec, from_strict_dict
from ..sim.randomness import RandomSource
from .swf import SwfHeader, SwfJob, Trace

__all__ = [
    "PoissonArrivals",
    "DailyCycleArrivals",
    "LogUniformDuration",
    "LogNormalDuration",
    "LogUniformNodes",
    "TraceModel",
    "model_from_dict",
]

SECONDS_PER_DAY = 86_400.0


# --------------------------------------------------------------------- #
# Arrival processes
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PoissonArrivals(Spec):
    """Homogeneous Poisson arrivals with a constant rate (jobs/second)."""

    kind = "poisson"
    rate: float = 1.0 / 300.0

    def validate(self) -> None:
        # The comparison-based check alone would let nan/inf through (nan
        # compares False everywhere) and hang or poison the synthesis.
        if not 0 < self.rate < math.inf:
            raise ValueError("arrival rate must be positive and finite")

    def arrival_times(self, count: int, rng: RandomSource) -> List[float]:
        clock = 0.0
        times: List[float] = []
        for _ in range(count):
            clock += rng.exponential(1.0 / self.rate)
            times.append(clock)
        return times

    @classmethod
    def fit(cls, submit_times: List[float]) -> "PoissonArrivals":
        if len(submit_times) < 2:
            return cls()
        span = max(submit_times) - min(submit_times)
        if span <= 0:
            return cls()
        return cls(rate=(len(submit_times) - 1) / span)


@dataclass(frozen=True)
class DailyCycleArrivals(Spec):
    """Non-homogeneous Poisson arrivals with a sinusoidal daily cycle.

    The instantaneous rate is ``mean_rate * (1 + a*cos(2*pi*(t - peak)/day))``
    with the amplitude *a* chosen so that the peak-to-trough rate ratio equals
    ``peak_to_trough``; samples are drawn by thinning a homogeneous process
    running at the peak rate, the textbook construction.
    """

    kind = "daily_cycle"
    mean_rate: float = 1.0 / 300.0
    peak_to_trough: float = 4.0
    peak_hour: float = 14.0

    def validate(self) -> None:
        if not 0 < self.mean_rate < math.inf:
            raise ValueError("mean arrival rate must be positive and finite")
        # An infinite ratio makes the amplitude nan, and the thinning loop in
        # arrival_times would then never accept a sample -- reject it here.
        if not 1.0 <= self.peak_to_trough < math.inf:
            raise ValueError("peak_to_trough must be >= 1 and finite")
        if not 0.0 <= self.peak_hour < 24.0:
            raise ValueError("peak_hour must be in [0, 24)")

    @property
    def amplitude(self) -> float:
        return (self.peak_to_trough - 1.0) / (self.peak_to_trough + 1.0)

    def rate_at(self, t: float) -> float:
        phase = 2.0 * math.pi * (t - self.peak_hour * 3600.0) / SECONDS_PER_DAY
        return self.mean_rate * (1.0 + self.amplitude * math.cos(phase))

    def arrival_times(self, count: int, rng: RandomSource) -> List[float]:
        peak_rate = self.mean_rate * (1.0 + self.amplitude)
        clock = 0.0
        times: List[float] = []
        while len(times) < count:
            clock += rng.exponential(1.0 / peak_rate)
            if rng.uniform() * peak_rate <= self.rate_at(clock):
                times.append(clock)
        return times

    @classmethod
    def fit(cls, submit_times: List[float]) -> "DailyCycleArrivals":
        """Fit the mean rate; keep the default cycle shape.

        Fitting the full cycle needs multi-day traces; the mean rate alone
        already reproduces the load, and the shape knobs stay adjustable.
        """
        base = PoissonArrivals.fit(submit_times)
        return cls(mean_rate=base.rate)


# --------------------------------------------------------------------- #
# Duration and node-count distributions
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class LogUniformDuration(Spec):
    """Runtimes drawn log-uniformly from ``[min_seconds, max_seconds]``."""

    kind = "log_uniform_duration"
    min_seconds: float = 60.0
    max_seconds: float = 86_400.0

    def validate(self) -> None:
        if not 0 < self.min_seconds <= self.max_seconds < math.inf:
            raise ValueError("duration bounds must satisfy 0 < min <= max, finite")

    def sample(self, rng: RandomSource) -> float:
        return math.exp(
            rng.uniform(math.log(self.min_seconds), math.log(self.max_seconds))
        )

    @classmethod
    def fit(cls, durations: List[float]) -> "LogUniformDuration":
        positive = [d for d in durations if d > 0]
        if not positive:
            return cls()
        return cls(min_seconds=min(positive), max_seconds=max(positive))


@dataclass(frozen=True)
class LogNormalDuration(Spec):
    """Log-normal runtimes, clipped to ``[min_seconds, max_seconds]``."""

    kind = "log_normal_duration"
    log_mean: float = math.log(1800.0)
    log_sigma: float = 1.0
    min_seconds: float = 1.0
    max_seconds: float = 86_400.0

    def validate(self) -> None:
        if not math.isfinite(self.log_mean) or not 0 <= self.log_sigma < math.inf:
            raise ValueError("log_mean must be finite and log_sigma >= 0 and finite")
        if not 0 < self.min_seconds <= self.max_seconds < math.inf:
            raise ValueError("duration bounds must satisfy 0 < min <= max, finite")

    def sample(self, rng: RandomSource) -> float:
        value = rng.lognormal(self.log_mean, self.log_sigma)
        return min(self.max_seconds, max(self.min_seconds, value))

    @classmethod
    def fit(cls, durations: List[float]) -> "LogNormalDuration":
        logs = [math.log(d) for d in durations if d > 0]
        if not logs:
            return cls()
        mean = sum(logs) / len(logs)
        variance = sum((x - mean) ** 2 for x in logs) / len(logs)
        positive = [d for d in durations if d > 0]
        return cls(
            log_mean=mean,
            log_sigma=math.sqrt(variance),
            min_seconds=min(positive),
            max_seconds=max(positive),
        )


@dataclass(frozen=True)
class LogUniformNodes(Spec):
    """Node counts drawn log-uniformly, optionally snapped to powers of two."""

    kind = "log_uniform_nodes"
    min_nodes: int = 1
    max_nodes: int = 128
    power_of_two: bool = True

    def validate(self) -> None:
        if not 1 <= self.min_nodes <= self.max_nodes:
            raise ValueError("node bounds must satisfy 1 <= min <= max")

    def sample(self, rng: RandomSource) -> int:
        nodes = int(
            round(
                math.exp(rng.uniform(math.log(self.min_nodes), math.log(self.max_nodes)))
            )
        )
        nodes = max(self.min_nodes, min(self.max_nodes, nodes))
        if self.power_of_two:
            nodes = 1 << (nodes.bit_length() - 1)
            while nodes < self.min_nodes:  # e.g. min_nodes=3 -> snap up to 4
                nodes <<= 1
            # Only an unsatisfiable range (no power of two in [min, max])
            # falls back to a non-power-of-two count.
            nodes = min(self.max_nodes, nodes)
        return nodes

    @classmethod
    def fit(cls, node_counts: List[int]) -> "LogUniformNodes":
        positive = [n for n in node_counts if n > 0]
        if not positive:
            return cls()
        power_of_two = all(n & (n - 1) == 0 for n in positive)
        return cls(
            min_nodes=min(positive), max_nodes=max(positive), power_of_two=power_of_two
        )


#: TraceModel slot name -> component classes that may fill it.
_SLOT_TYPES: Dict[str, tuple] = {
    "arrivals": (PoissonArrivals, DailyCycleArrivals),
    "durations": (LogUniformDuration, LogNormalDuration),
    "nodes": (LogUniformNodes,),
}

#: kind tag -> component model class, for deserialisation.
MODEL_KINDS = Registry("trace model kind")
for _cls in (
    PoissonArrivals,
    DailyCycleArrivals,
    LogUniformDuration,
    LogNormalDuration,
    LogUniformNodes,
):
    MODEL_KINDS.register(_cls.kind, _cls)


def model_from_dict(data: Mapping):
    """Rebuild any component model from its ``{"kind": ...}`` dictionary."""
    fields = dict(data)
    return from_strict_dict(MODEL_KINDS.get(fields.pop("kind", None)), fields)


# --------------------------------------------------------------------- #
# The combined trace model
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TraceModel(Spec):
    """Arrivals x durations x node counts, synthesizing full SWF traces."""

    arrivals: PoissonArrivals = PoissonArrivals()
    durations: LogNormalDuration = LogNormalDuration()
    nodes: LogUniformNodes = LogUniformNodes()

    NESTED = dict.fromkeys(_SLOT_TYPES, model_from_dict)

    def validate(self) -> None:
        for slot, allowed in _SLOT_TYPES.items():
            if not isinstance(getattr(self, slot), allowed):
                raise SpecError(
                    f"expected a model of kind {sorted(c.kind for c in allowed)}", slot
                )

    def synthesize(self, job_count: int, seed: Optional[int] = None) -> Trace:
        """Draw *job_count* jobs; fully determined by the model and *seed*."""
        if job_count <= 0:
            raise ValueError("job_count must be positive")
        rng = RandomSource(seed)
        submit_times = self.arrivals.arrival_times(job_count, rng)
        jobs = []
        for index, submit in enumerate(submit_times):
            duration = self.durations.sample(rng)
            nodes = self.nodes.sample(rng)
            jobs.append(
                SwfJob(
                    job_number=index + 1,
                    submit_time=round(submit, 3),
                    run_time=round(duration, 3),
                    used_procs=nodes,
                    req_procs=nodes,
                    req_time=round(duration, 3),
                    status=1,
                )
            )
        header = SwfHeader(
            directives={
                "UnixStartTime": "0",
                "MaxNodes": str(self.nodes.max_nodes),
                "MaxProcs": str(self.nodes.max_nodes),
            },
            comments=("Synthesized by repro.traces.models.TraceModel",),
        )
        step = {
            "kind": "synthesize",
            "model": self.to_dict(),
            "job_count": job_count,
            "seed": seed,
        }
        return Trace(header=header, jobs=tuple(jobs), provenance=(step,))

    @classmethod
    def fit(cls, trace: Trace, daily_cycle: bool = False) -> "TraceModel":
        """Fit all three component models from an existing trace."""
        jobs = [job for job in trace.jobs if job.is_valid_job()]
        if not jobs:
            raise WorkloadError("cannot fit a model to a trace with no valid jobs")
        submit_times = sorted(job.submit_time for job in jobs)
        arrivals = (
            DailyCycleArrivals.fit(submit_times)
            if daily_cycle
            else PoissonArrivals.fit(submit_times)
        )
        return cls(
            arrivals=arrivals,
            durations=LogNormalDuration.fit([job.duration for job in jobs]),
            nodes=LogUniformNodes.fit([job.node_count for job in jobs]),
        )
