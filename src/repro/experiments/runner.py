"""Shared machinery of the evaluation experiments (paper Section 5).

Every simulation-based figure (9, 10, 11) uses the same scenario: one
non-predictably evolving AMR application plus one or two malleable
Parameter-Sweep Applications on a single homogeneous cluster, scheduled by
CooRMv2 with a 1-second re-scheduling interval.  :func:`run_scenario` builds
and runs that scenario and returns the collected metrics;
:class:`EvaluationScale` groups the size knobs so the same code can run at
the paper's full scale, at a reduced scale or at a tiny scale suitable for
unit tests and benchmarks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import List, Optional, Sequence

from ..apps.nea import AmrApplication
from ..apps.psa import ParameterSweepApplication
from ..apps.rigid import RigidApplication, RigidJobSpec
from ..core.errors import SpecError
from ..faults.injector import FaultInjector
from ..faults.plan import resolve_fault_plan
from ..federation.federation import Federation, locality_group
from ..federation.spec import TOPOLOGIES, FederationSpec
from ..sim.randomness import derive_seed
from ..metrics.collector import SimulationMetrics
from ..models.amr_evolution import AmrEvolutionParameters, WorkingSetEvolution
from ..models.speedup import PAPER_SPEEDUP_MODEL, SpeedupModel, TIB_IN_MIB
from ..models.static_equivalent import equivalent_static_allocation
from ..policies.registry import STRICT_POLICY, resolve_policy
from ..sim.engine import Simulator
from ..traces.convert import ConvertedJob, build_application, replay_horizon

__all__ = ["EvaluationScale", "ScenarioResult", "build_evolution", "run_scenario"]


@dataclass(frozen=True)
class EvaluationScale:
    """Size knobs of the evaluation scenario.

    ``paper()`` reproduces the parameters of Section 5 exactly;
    ``reduced()`` shrinks the run so a full figure sweep completes in minutes
    on a laptop; ``tiny()`` is meant for tests and pytest benchmarks.
    """

    #: Number of AMR steps (1000 in the paper).
    num_steps: int = 1000
    #: Peak working-set size in MiB (3.16 TiB in the paper).
    s_max_mib: float = 3.16 * TIB_IN_MIB
    #: Target efficiency of the AMR application.
    target_efficiency: float = 0.75
    #: Task duration of the primary PSA (PSA1), seconds.
    psa1_task_duration: float = 600.0
    #: Task duration of the secondary PSA (PSA2), seconds.
    psa2_task_duration: float = 60.0
    #: Cluster size as a multiple of the pre-allocation (the paper picks
    #: n = 1400 * overcommit, i.e. about 1.16x the AMR's pre-allocation).
    cluster_headroom: float = 1.16
    #: RMS re-scheduling interval, seconds (1 s in the paper).
    rescheduling_interval: float = 1.0

    @classmethod
    def paper(cls) -> "EvaluationScale":
        """The exact parameters of the paper's evaluation."""
        return cls()

    @classmethod
    def reduced(cls) -> "EvaluationScale":
        """A ~4x smaller platform and 4x shorter run; same qualitative shape."""
        return cls(
            num_steps=250,
            s_max_mib=3.16 * TIB_IN_MIB / 4.0,
            psa1_task_duration=600.0,
            psa2_task_duration=60.0,
        )

    @classmethod
    def tiny(cls) -> "EvaluationScale":
        """A toy scale for unit tests and micro-benchmarks."""
        return cls(
            num_steps=40,
            s_max_mib=3.16 * TIB_IN_MIB / 32.0,
            psa1_task_duration=60.0,
            psa2_task_duration=10.0,
        )

    def with_steps(self, num_steps: int) -> "EvaluationScale":
        return replace(self, num_steps=num_steps)


@dataclass
class ScenarioResult:
    """Everything an experiment needs from one simulated scenario."""

    metrics: SimulationMetrics
    amr: Optional[AmrApplication]
    psas: List[ParameterSweepApplication]
    #: The user's "ideal" pre-allocation guess (the equivalent static
    #: allocation computed with a-posteriori knowledge), before overcommit.
    ideal_preallocation: int
    cluster_nodes: int
    #: The federation that ran the scenario: the one-member ``single``
    #: topology unless the scenario named another (``rms_list()`` has the
    #: member RMSs the applications talked to).
    federation: Federation
    #: Background rigid batch jobs (empty unless the scenario mixes them in).
    rigid_apps: List[RigidApplication] = field(default_factory=list)
    #: Applications replayed from a converted workload trace (any kind).
    trace_apps: List = field(default_factory=list)
    #: The fault injector that played the scenario's fault plan (None on
    #: fault-free runs); carries the recovery/SLA ledger.
    fault_injector: Optional[FaultInjector] = None


def build_evolution(scale: EvaluationScale, seed: Optional[int] = None) -> WorkingSetEvolution:
    """Draw one AMR working-set evolution at the given scale.

    For runs shorter than the paper's 1000 steps the model parameters are
    rescaled (see :meth:`AmrEvolutionParameters.scaled`) so that the profile
    keeps the documented mostly-increasing shape instead of degenerating into
    normalised noise.
    """
    if scale.num_steps == 1000:
        params = AmrEvolutionParameters(num_steps=scale.num_steps)
    else:
        params = AmrEvolutionParameters.scaled(scale.num_steps)
    return WorkingSetEvolution.generate(scale.s_max_mib, seed=seed, params=params)


def ideal_preallocation_nodes(
    evolution: WorkingSetEvolution,
    scale: EvaluationScale,
    model: SpeedupModel = PAPER_SPEEDUP_MODEL,
) -> int:
    """The best static guess assuming a-posteriori knowledge (Section 5.1.1).

    This is the equivalent static allocation for the target efficiency; the
    overcommit factor multiplies it.  When no equivalent static allocation
    exists the peak dynamic requirement is used instead.
    """
    result = equivalent_static_allocation(evolution, scale.target_efficiency, model)
    if result is not None:
        return max(1, int(round(result.n_eq)))
    # Fall back to the peak requirement of the dynamic allocation.
    peak = model.nodes_for_efficiency(evolution.peak_size_mib, scale.target_efficiency)
    return max(1, peak)


def _strict_policy(policy, federation: FederationSpec):
    """*policy* under ``strict_equipartition=True``: ``"coorm-strict"`` when
    unset, else *policy* itself once its sharing is checked to be strict.

    Every member of *federation* is checked, in member order, against the
    policy it would run: its own pin, else *policy*.
    """
    for cluster in federation.clusters:
        checked = policy if cluster.policy is None else cluster.policy
        if checked is None:
            continue
        resolved = resolve_policy(checked)
        if resolved.sharing.name != "strict-eq":
            # Running the policy's sharing while the caller asked for the
            # strict baseline would silently corrupt a Figure 11-style
            # comparison.
            raise SpecError(
                f"strict_equipartition=True conflicts with policy "
                f"{resolved.name!r} (sharing {resolved.sharing.name!r}); "
                f"drop the flag or use a strict-sharing policy such as "
                f"{STRICT_POLICY!r}"
            )
    return STRICT_POLICY if policy is None else policy


def run_scenario(
    scale: EvaluationScale,
    seed: int = 0,
    overcommit: float = 1.0,
    announce_interval: float = 0.0,
    static_allocation: bool = False,
    psa_task_durations: Sequence[float] = None,
    strict_equipartition: bool = False,
    evolution: Optional[WorkingSetEvolution] = None,
    include_amr: bool = True,
    rigid_jobs: Optional[Sequence[RigidJobSpec]] = None,
    adaptive_jobs: Optional[Sequence[ConvertedJob]] = None,
    cluster_nodes: Optional[int] = None,
    kill_protocol_violators: bool = False,
    violation_grace: float = 30.0,
    policy=None,
    federation: Optional[FederationSpec] = None,
    faults=None,
) -> ScenarioResult:
    """Run one AMR + PSA(s) scenario and collect its metrics.

    Parameters mirror the paper's experiment knobs: the *overcommit* factor
    scales the user's pre-allocation guess (Figure 9), *announce_interval*
    switches between spontaneous and announced updates (Figure 10),
    *psa_task_durations* selects one or two PSAs (Figure 11) and
    *strict_equipartition* selects the baseline sharing policy.

    The campaign layer adds a few composition knobs: *include_amr* drops the
    evolving application (PSA/rigid-only scenarios), *rigid_jobs* layers a
    stream of classical batch jobs on top of the paper workload (each job is
    submitted to the RMS at its trace submit time), *adaptive_jobs* replays a
    converted workload trace as a mix of rigid/moldable/malleable/evolving
    applications (see :mod:`repro.traces.convert`), *cluster_nodes* pins the
    platform size instead of deriving it from the AMR pre-allocation, and
    *kill_protocol_violators* / *violation_grace* forward to the RMS.

    *policy* selects the scheduling policy (a registered name, stage mapping
    or :class:`~repro.policies.SchedulingPolicy`).  *strict_equipartition*
    is shorthand for ``policy="coorm-strict"``: an explicit policy, or a
    federation member's own, must then share strictly or a
    :class:`~repro.core.errors.SpecError` names the conflict.

    Every scenario runs on a :class:`~repro.federation.Federation`: the
    named *federation*, else the one-member ``single`` topology (member
    ``cluster0`` under the ``any`` routing).  Each member is one
    :class:`~repro.core.rms.CooRMv2` (derived -- ``nodes == 0`` -- members
    get the size derived from the AMR pre-allocation, or *cluster_nodes*),
    all driven by the same event engine.  Every application -- AMR, PSAs,
    rigid and converted trace jobs, respawns -- takes one seam at its
    submission time: placed by name and node-count hint by the routing
    policy, built for the capacity it landed on, connected to its member's
    RMS, which it talks to as if it were the only one.

    *faults* (a registered plan name, plan dict or
    :class:`~repro.faults.plan.FaultPlan`) arms a deterministic fault
    injector against the federation: node crashes/restarts, member
    outages with rerouting, elastic capacity rules and meta-scheduler
    admission control.  Jobs killed by a fault are resubmitted (up to the
    plan's ``max_respawns``) or counted lost; initial submissions refused
    by admission control are counted rejected.  A plan may name only
    members the federation has (``cluster0`` alone on ``single``).
    """
    if overcommit <= 0:
        raise ValueError("overcommit must be positive")
    if psa_task_durations is None:
        psa_task_durations = (scale.psa1_task_duration,)
    federation = federation or TOPOLOGIES.get("single")
    if strict_equipartition:
        policy = _strict_policy(policy, federation)

    if evolution is None:
        evolution = build_evolution(scale, seed=seed)
    ideal = ideal_preallocation_nodes(evolution, scale)
    preallocation = max(1, int(round(ideal * overcommit)))
    if cluster_nodes is None:
        cluster_nodes = max(
            preallocation + 1, int(math.ceil(preallocation * scale.cluster_headroom))
        )
    if cluster_nodes <= 0:
        raise ValueError("cluster_nodes must be positive")

    simulator = Simulator()
    # Derived (nodes == 0) members -- the one member of the implicit
    # ``single`` topology among them -- get the size derived above.
    fed = Federation(
        federation.resolved(cluster_nodes),
        simulator,
        rescheduling_interval=scale.rescheduling_interval,
        default_policy=policy,
        kill_protocol_violators=kill_protocol_violators,
        violation_grace=violation_grace,
        seed=seed,
    )
    cluster_nodes = fed.total_nodes()
    injector: Optional[FaultInjector] = None

    def submit(job_id: str, spawn) -> None:
        spawn(job_id)

    if faults is not None:
        # The fault stream gets its own derived seed so a plan's jitter
        # never correlates with the workload drawn from the scenario seed.
        injector = FaultInjector(
            resolve_fault_plan(faults), fed, seed=derive_seed(seed, "faults")
        )
        injector.arm()
        submit = injector.submit

    # Every application goes through ``launch``: placed by name and
    # node-count hint, built by ``build(capacity)`` for the capacity it
    # landed on, connected to its member's RMS.
    def launch(name, node_count, build, job_id=None, reshapes=False):
        # Trace jobs route by the locality group of their original id,
        # so a respawn lands like its first incarnation would.
        group = None if job_id is None else locality_group(job_id)
        member = fed.place(name, node_count, group, reshapes=reshapes)
        app = build(member.capacity)
        fed.attach(member, app, node_count=node_count)
        return app

    amr: Optional[AmrApplication] = None
    if include_amr:
        amr = AmrApplication(
            name="amr",
            evolution=evolution,
            preallocation_nodes=preallocation,
            target_efficiency=scale.target_efficiency,
            announce_interval=announce_interval,
            static_allocation=static_allocation,
        )
    psas = [
        ParameterSweepApplication(f"psa{i + 1}", task_duration=duration)
        for i, duration in enumerate(psa_task_durations)
    ]
    if amr is not None:
        amr.on_finished = lambda _app: [psa.shutdown() for psa in psas]
        launch(amr.name, preallocation, lambda _nodes: amr)
    for psa in psas:
        launch(psa.name, 0, lambda _nodes, psa=psa: psa)

    rigid_apps: List[RigidApplication] = []
    trace_apps: List = []

    def replay(jobs, apps, build, reshapes=False) -> None:
        """Submit each trace job at its submit time, built by ``build(job,
        name, capacity)``; *apps* gets every incarnation (respawns too)."""
        for job in jobs or ():

            def spawn(name: str, job=job) -> None:
                app = launch(name, job.node_count, partial(build, job, name), job.job_id, reshapes)
                apps.append(app)

            simulator.schedule_at(job.submit_time, submit, job.job_id, spawn)

    # Rigid jobs keep their exact recorded size (one too large for every
    # cluster fails loudly); converted jobs keep theirs as the routing hint
    # but are built clamped to the capacity they land on.
    def rigid(job, name, _nodes):
        return RigidApplication(name, node_count=job.node_count, duration=job.duration)

    def converted(job, name, nodes):
        return build_application(job if name == job.job_id else replace(job, job_id=name), nodes)

    replay(rigid_jobs, rigid_apps, rigid)
    replay(adaptive_jobs, trace_apps, converted, reshapes=True)

    if amr is None and psas:
        # Without an AMR nothing shuts the (otherwise endless) PSAs down;
        # stop them once the background streams are over or after one PSA1
        # horizon.  Converted traces contribute their replay horizon (the
        # last job's earliest possible completion).
        last_submit = max((j.submit_time + j.duration for j in rigid_jobs or ()), default=0.0)
        last_submit = max(last_submit, replay_horizon(tuple(adaptive_jobs or ())))
        stop_at = max(last_submit, 10.0 * scale.psa1_task_duration)
        simulator.schedule_at(stop_at, lambda: [psa.shutdown() for psa in psas])

    simulator.run()

    metrics = SimulationMetrics.collect_multi(fed.rms_list(), amr=amr, psas=psas)
    return ScenarioResult(
        metrics=metrics,
        amr=amr,
        psas=psas,
        ideal_preallocation=ideal,
        cluster_nodes=cluster_nodes,
        federation=fed,
        rigid_apps=rigid_apps,
        trace_apps=trace_apps,
        fault_injector=injector,
    )
