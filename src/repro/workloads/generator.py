"""Synthetic workload generation.

The paper's evaluation focuses on one evolving application plus one or two
malleable PSAs, but Section 4 shows that CooRMv2 also supports classical
rigid and moldable workloads.  This module generates such workloads (rigid
job streams with log-uniform sizes and exponential inter-arrival times, in
the spirit of the Parallel Workloads Archive models) so that integration
tests and examples can exercise the RMS under mixed load.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..apps.rigid import RigidJobSpec
from ..core.errors import SpecError
from ..core.serde import Spec
from ..sim.randomness import RandomSource

__all__ = ["RigidJobSpec", "WorkloadParameters", "generate_rigid_workload"]


@dataclass(frozen=True)
class WorkloadParameters(Spec):
    """Knobs of the rigid-workload generator."""

    #: Number of jobs to generate.
    job_count: int = 100
    #: Mean inter-arrival time (exponential distribution), seconds.
    mean_interarrival: float = 300.0
    #: Smallest / largest node count (log-uniform distribution).
    min_nodes: int = 1
    max_nodes: int = 128
    #: Round node counts to powers of two (common in HPC traces).
    power_of_two_nodes: bool = True
    #: Log-normal runtime parameters (median ~ exp(mu) seconds).
    runtime_log_mean: float = math.log(1800.0)
    runtime_log_sigma: float = 1.0
    #: Hard bounds on the runtime, seconds.
    min_runtime: float = 60.0
    max_runtime: float = 86_400.0

    def validate(self) -> None:
        if self.job_count <= 0:
            raise SpecError("job_count must be positive")
        if self.mean_interarrival <= 0:
            raise SpecError("mean_interarrival must be positive")
        if not 1 <= self.min_nodes <= self.max_nodes:
            raise SpecError("node bounds must satisfy 1 <= min <= max")
        if not 0 < self.min_runtime <= self.max_runtime:
            raise SpecError("runtime bounds must satisfy 0 < min <= max")


def generate_rigid_workload(
    params: WorkloadParameters = WorkloadParameters(),
    seed: Optional[int] = None,
    random_source: Optional[RandomSource] = None,
) -> List[RigidJobSpec]:
    """Generate a stream of rigid jobs sorted by submission time."""
    rng = random_source if random_source is not None else RandomSource(seed)
    jobs: List[RigidJobSpec] = []
    clock = 0.0
    log_min = math.log(params.min_nodes)
    log_max = math.log(params.max_nodes)
    for index in range(params.job_count):
        clock += rng.exponential(params.mean_interarrival)
        nodes = int(round(math.exp(rng.uniform(log_min, log_max))))
        nodes = max(params.min_nodes, min(params.max_nodes, nodes))
        if params.power_of_two_nodes and nodes > 0:
            nodes = 1 << (nodes.bit_length() - 1)
        runtime = rng.lognormal(params.runtime_log_mean, params.runtime_log_sigma)
        runtime = max(params.min_runtime, min(params.max_runtime, runtime))
        jobs.append(
            RigidJobSpec(
                job_id=f"job{index:04d}",
                submit_time=clock,
                node_count=nodes,
                duration=runtime,
            )
        )
    return jobs
