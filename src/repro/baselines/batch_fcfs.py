"""A classical rigid-only batch scheduler baseline.

This is the "current HPC RMS" the paper argues against: jobs are rigid, the
allocation cannot change after it starts, and evolving applications must
request their peak requirements for their whole runtime.

The baseline is a *policy composition*, not a parallel code path: the queue
discipline comes from the policy's ordering stage and the queue itself from
its backfilling stage (:class:`~repro.core.cbf.ConservativeBackfillQueue` or
:class:`~repro.policies.backfill.EasyBackfillQueue`) -- the same primitives
CooRMv2's pre-allocation scheduling uses, which keeps head-to-head
comparisons meaningful.  The default policy reproduces the classical
first-come-first-served + Conservative Back-Filling RMS.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.cbf import CbfJob
from ..policies.registry import resolve_policy
from ..apps.rigid import RigidJobSpec

__all__ = ["BatchJobOutcome", "BatchSchedulerBaseline", "peak_static_job"]


@dataclass(frozen=True)
class BatchJobOutcome:
    """Result of scheduling one rigid job."""

    job_id: str
    submit_time: float
    start_time: float
    end_time: float
    node_count: int

    @property
    def wait_time(self) -> float:
        return self.start_time - self.submit_time

    @property
    def area(self) -> float:
        return self.node_count * (self.end_time - self.start_time)


class BatchSchedulerBaseline:
    """Rigid batch scheduling over a single homogeneous cluster.

    *policy* is a scheduling-policy reference (registered name, stage
    mapping or policy object); its ordering stage decides the queue order of
    the jobs and its backfilling stage supplies the reservation discipline.
    The default (``"coorm"``) composes FCFS ordering with Conservative
    Back-Filling -- the classical batch RMS of the paper's comparison.
    """

    def __init__(self, node_count: int, policy=None):
        self.policy = resolve_policy(policy)
        self.queue = self.policy.backfill.make_queue(node_count)
        self.outcomes: List[BatchJobOutcome] = []

    def run(self, jobs: Sequence[RigidJobSpec]) -> List[BatchJobOutcome]:
        """Schedule *jobs* (queue order per the policy) and return outcomes."""
        ordered = self.policy.ordering.order_jobs(list(jobs))
        cbf_jobs = [
            CbfJob(
                job_id=spec.job_id,
                node_count=spec.node_count,
                duration=spec.duration,
                submit_time=spec.submit_time,
            )
            for spec in ordered
        ]
        starts = self.queue.submit_many(cbf_jobs)
        for spec, start in zip(ordered, starts):
            self.outcomes.append(
                BatchJobOutcome(
                    job_id=spec.job_id,
                    submit_time=spec.submit_time,
                    start_time=start,
                    end_time=start + spec.duration,
                    node_count=spec.node_count,
                )
            )
        return self.outcomes

    # ------------------------------------------------------------------ #
    # Aggregate metrics
    # ------------------------------------------------------------------ #
    def makespan(self) -> float:
        return max((o.end_time for o in self.outcomes), default=0.0)

    def mean_wait_time(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.wait_time for o in self.outcomes) / len(self.outcomes)

    def utilisation(self) -> float:
        """Consumed node-seconds over offered node-seconds until the makespan."""
        horizon = self.makespan()
        if horizon <= 0:
            return 0.0
        used = sum(o.area for o in self.outcomes)
        return used / (self.queue.node_count * horizon)

    def outcome_by_id(self) -> Dict[str, BatchJobOutcome]:
        return {o.job_id: o for o in self.outcomes}


def peak_static_job(
    job_id: str,
    peak_nodes: int,
    total_runtime: float,
    submit_time: float = 0.0,
) -> RigidJobSpec:
    """The rigid job an evolving application is forced to submit today.

    Without RMS support for evolution, the user requests the peak node count
    for the whole runtime (Section 1: applications are "forced to make an
    allocation based on their maximum expected requirements").
    """
    return RigidJobSpec(
        job_id=job_id,
        submit_time=submit_time,
        node_count=peak_nodes,
        duration=total_runtime,
    )
