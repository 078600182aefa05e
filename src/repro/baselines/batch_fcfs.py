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

from typing import List, Sequence

from ..core.cbf import CbfJob
from ..policies.registry import resolve_policy
from ..apps.rigid import RigidJobSpec

__all__ = ["BatchSchedulerBaseline", "peak_static_job"]


class BatchSchedulerBaseline:
    """Rigid batch scheduling over a single homogeneous cluster.

    *policy* is a scheduling-policy reference (registered name, stage
    mapping or policy object); its ordering stage decides the queue order of
    the jobs and its backfilling stage supplies the reservation discipline.
    The default (``"coorm"``) composes FCFS ordering with Conservative
    Back-Filling -- the classical batch RMS of the paper's comparison.
    ``queue`` holds the scheduled jobs and their aggregate metrics
    (``makespan``, ``mean_wait_time``, ``utilisation``).
    """

    def __init__(self, node_count: int, policy=None):
        self.policy = resolve_policy(policy)
        self.queue = self.policy.backfill.make_queue(node_count)

    def run(self, jobs: Sequence[RigidJobSpec]) -> List[CbfJob]:
        """Schedule *jobs* (queue order per the policy); returns them as the
        queue's jobs, each with its ``start_time``, in queue order."""
        ordered = [
            CbfJob(
                job_id=spec.job_id,
                node_count=spec.node_count,
                duration=spec.duration,
                submit_time=spec.submit_time,
            )
            for spec in self.policy.ordering.order_jobs(list(jobs))
        ]
        self.queue.submit_many(ordered)
        return ordered


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
