"""Built-in scenario runners and scenarios: the paper's figures plus mixed
workloads.

``amr_psa`` is the generic runner: it executes whatever the scenario's
platform/workload/RMS sections describe (the paper scenario with every knob
exposed, including rigid batch-job streams layered on top -- see the
built-in ``mixed-rigid`` scenario).  The analytic figures 1--4 have runners
of their own (ports of ``repro.experiments.fig*``); the simulated figures
9--11 are ``amr_psa`` scenarios swept over ``params["axes"]``, one campaign
unit per x-point, built for a scale by the ``fig9``/``fig10``/``fig11``
builders below.  Runners return **flat** ``{metric: number}`` mappings,
because flat records make medians across seeds and cross-campaign
comparisons trivial.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Optional, Sequence, Tuple

from ..experiments import (
    fig1_amr_profiles,
    fig2_speedup_fit,
    fig3_static_endtime,
    fig4_static_choices,
)
from ..core.errors import SpecError
from ..experiments.runner import EvaluationScale, run_scenario
from ..federation.metrics import federation_breakdown
from ..federation.spec import TOPOLOGIES
from ..models.amr_evolution import AmrEvolutionParameters, normalized_profile
from ..sim.randomness import derive_seed
from ..traces.source import resolve_converted_jobs
from ..workloads.generator import WorkloadParameters, generate_rigid_workload
from .registry import RUNNERS, SCENARIOS, record_provenance
from .spec import PlatformSpec, RmsSpec, ScenarioSpec, WorkloadSpec, resolve_scale

__all__ = ["clean_metrics"]


def clean_metrics(metrics: Dict[str, object]) -> Dict[str, object]:
    """Map non-finite numbers to ``None`` so records are strict JSON."""
    cleaned: Dict[str, object] = {}
    for key, value in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            value = None
        cleaned[key] = value
    return cleaned


def _apply_metrics_filter(spec: ScenarioSpec, metrics: Dict[str, object]) -> Dict[str, object]:
    if not spec.metrics:
        return metrics
    return {k: v for k, v in metrics.items() if k in spec.metrics}


def _require_default_policy(spec: ScenarioSpec) -> None:
    """Fail loudly when a policy-agnostic runner is asked to sweep policies.

    The runners of figures 1--4 compute fixed paper results that no RMS
    takes part in; silently running them while the record claims another
    policy (or a federation) would fabricate a comparison out of identical
    runs.  The generic ``amr_psa`` runner (figures 9--11 included) honours
    both.  (A fault plan on them is refused while the spec loads.)
    """
    ignored = [
        what
        for what, given in (
            (f"scheduling policies (not {spec.policy_name!r})", spec.policy_name != "coorm"),
            ("federation specs", spec.federation is not None),
        )
        if given
    ]
    if ignored:
        raise SpecError(
            f"scenario {spec.name!r} (runner {spec.runner!r}) reproduces a fixed "
            f"paper computation and ignores {', '.join(ignored)}; "
            f"run 'amr_psa'-based scenarios (e.g. fig9, trace-replay, "
            f"fed-chaos-dual) instead."
        )


def _finish(spec: ScenarioSpec, metrics: Dict[str, object]) -> Dict[str, object]:
    return _apply_metrics_filter(spec, clean_metrics(metrics))


def _background_workload(spec: ScenarioSpec, seed: int):
    """The background job streams of a scenario: ``(rigid, adaptive)``.

    A declarative trace source produces converted (possibly adaptive) jobs;
    otherwise the synthetic rigid generator runs.  Whichever branch fires
    records its workload provenance for the campaign runner to persist.
    """
    workload = spec.workload
    if workload.trace is not None:
        max_nodes = spec.platform.cluster_nodes or None
        jobs, provenance = resolve_converted_jobs(
            workload.trace, seed=seed, max_nodes=max_nodes
        )
        record_provenance(provenance)
        return None, jobs
    if workload.rigid_job_count <= 0:
        return None, None
    median = workload.rigid_runtime_median
    params = WorkloadParameters(
        job_count=workload.rigid_job_count,
        max_nodes=workload.rigid_max_nodes,
        mean_interarrival=workload.rigid_mean_interarrival,
        runtime_log_mean=math.log(median),
        runtime_log_sigma=0.6,
        min_runtime=min(60.0, median),
        max_runtime=10.0 * median,
    )
    record_provenance(
        {"source": {"generator": params.to_dict()}, "seed_component": "rigid-workload"}
    )
    # The stream's seed is derived, not reused, so the rigid jobs do not
    # correlate with the AMR evolution drawn from the same run seed.
    return (
        generate_rigid_workload(params, seed=derive_seed(seed, "rigid-workload")),
        None,
    )


# --------------------------------------------------------------------- #
# Generic runners
# --------------------------------------------------------------------- #
@RUNNERS.register("amr_psa")
def run_amr_psa(spec: ScenarioSpec, seed: int) -> Dict[str, object]:
    """The paper scenario with every spec knob honoured.

    ``rigid_jobs`` / ``trace_jobs`` count incarnations: a job a fault killed
    and respawned counts once per submission (the chaos goldens' 125 trace
    jobs are 120 jobs plus 5 respawns).  A sweep (``params["axes"]``) is
    refused: its variants are the runs.
    """
    if "axes" in spec.params:
        raise SpecError(
            f"scenario {spec.name!r} is a sweep of {len(spec.expand())} points; run "
            f"its variants (a campaign runs one unit per point, "
            f"repro.campaign.registry.run_sweep loops them)"
        )
    scale = resolve_scale(spec)
    workload = spec.workload
    # An empty duration list means "the scale's default PSA1" for the paper
    # scenario, but "no PSAs at all" once the AMR is dropped -- otherwise a
    # rigid-only workload could never be expressed declaratively.
    durations: Optional[Sequence[float]]
    if workload.psa_task_durations:
        durations = workload.psa_task_durations
    else:
        durations = None if workload.include_amr else ()
    rigid_jobs, adaptive_jobs = _background_workload(spec, seed)
    result = run_scenario(
        scale,
        seed=seed,
        overcommit=workload.overcommit,
        announce_interval=workload.announce_interval,
        static_allocation=workload.static_allocation,
        psa_task_durations=durations,
        strict_equipartition=spec.rms.strict_equipartition,
        include_amr=workload.include_amr,
        rigid_jobs=rigid_jobs,
        adaptive_jobs=adaptive_jobs,
        cluster_nodes=spec.platform.cluster_nodes or None,
        kill_protocol_violators=spec.rms.kill_protocol_violators,
        violation_grace=spec.rms.violation_grace,
        policy=spec.policy,
        federation=spec.federation,
        faults=spec.faults,
    )
    metrics = result.metrics.to_dict()
    metrics["cluster_nodes"] = result.cluster_nodes
    metrics["ideal_preallocation"] = result.ideal_preallocation
    if result.rigid_apps:
        metrics["rigid_jobs"] = len(result.rigid_apps)
        metrics["rigid_finished"] = sum(1 for a in result.rigid_apps if a.finished())
    if result.trace_apps:
        metrics["trace_jobs"] = len(result.trace_apps)
        metrics["trace_finished"] = sum(1 for a in result.trace_apps if a.finished())
    if spec.federation is not None:  # a named federation; not the implicit single
        metrics.update(
            federation_breakdown(result.federation, result.metrics, amr=result.amr)
        )
    if result.fault_injector is not None:
        metrics.update(result.fault_injector.summary())
    return _finish(spec, metrics)


# --------------------------------------------------------------------- #
# Figure runners (ports of repro.experiments.fig*)
# --------------------------------------------------------------------- #
@RUNNERS.register("fig1")
def run_fig1(spec: ScenarioSpec, seed: int) -> Dict[str, object]:
    """Shape statistics of one normalised AMR working-set profile."""
    _require_default_policy(spec)
    num_steps = resolve_scale(spec).num_steps
    params = (
        AmrEvolutionParameters(num_steps=num_steps)
        if num_steps == 1000
        else AmrEvolutionParameters.scaled(num_steps)
    )
    profile = normalized_profile(seed=seed, params=params)
    summary = fig1_amr_profiles.summarize_profile(seed, profile)
    return _finish(
        spec,
        {
            "peak": summary.peak,
            "final_value": summary.final_value,
            "increasing_fraction": summary.increasing_fraction,
            "plateau_fraction": summary.plateau_fraction,
            "max_step_increase": summary.max_step_increase,
        },
    )


@RUNNERS.register("fig2")
def run_fig2(spec: ScenarioSpec, seed: int) -> Dict[str, object]:
    """Model step durations per (mesh size, node count); seed-independent."""
    _require_default_policy(spec)
    curves = fig2_speedup_fit.run()
    metrics: Dict[str, object] = {}
    for size_gib, curve in curves.items():
        for nodes, duration in zip(curve.node_counts, curve.durations):
            metrics[f"duration_s[{size_gib:g}GiB,n={nodes}]"] = duration
    return _finish(spec, metrics)


@RUNNERS.register("fig3")
def run_fig3(spec: ScenarioSpec, seed: int) -> Dict[str, object]:
    """End-time increase of the equivalent static allocation (one seed)."""
    _require_default_policy(spec)
    scale = resolve_scale(spec)
    points = fig3_static_endtime.run(
        seeds=(seed,), num_steps=scale.num_steps, s_max_mib=scale.s_max_mib
    )
    metrics: Dict[str, object] = {}
    for target, point in points.items():
        metrics[f"end_time_increase[eff={target:g}]"] = point.median_increase
        metrics[f"feasible[eff={target:g}]"] = point.feasible_fraction
    return _finish(spec, metrics)


@RUNNERS.register("fig4")
def run_fig4(spec: ScenarioSpec, seed: int) -> Dict[str, object]:
    """Static-choice node-count ranges per relative peak size (one seed)."""
    _require_default_policy(spec)
    rows = fig4_static_choices.run(seed=seed, num_steps=resolve_scale(spec).num_steps)
    metrics: Dict[str, object] = {}
    for relative, row in rows.items():
        metrics[f"min_nodes[rel={relative:g}]"] = row.min_nodes
        metrics[f"max_nodes[rel={relative:g}]"] = row.max_nodes
    return _finish(spec, metrics)


# --------------------------------------------------------------------- #
# Built-in scenario definitions
# --------------------------------------------------------------------- #
#: Statistical model behind the built-in trace scenarios: Poisson arrivals
#: every 30 s, ~2-minute median runtimes, power-of-two jobs up to 32 nodes.
TRACE_SCENARIO_MODEL: Dict[str, Dict] = {
    "arrivals": {"kind": "poisson", "rate": 1.0 / 30.0},
    "durations": {
        "kind": "log_normal_duration",
        "log_mean": math.log(120.0),
        "log_sigma": 0.6,
        "min_seconds": 10.0,
        "max_seconds": 1200.0,
    },
    "nodes": {
        "kind": "log_uniform_nodes",
        "min_nodes": 1,
        "max_nodes": 32,
        "power_of_two": True,
    },
}

#: Workload of the chaos scenarios (see the comment above them).
_CHAOS_TRACE: Dict[str, object] = {
    "model": TRACE_SCENARIO_MODEL,
    "job_count": 120,
    "transforms": [{"kind": "clamp_nodes", "max_nodes": 32}],
}

#: Overcommit factors of Figure 9 (log scale from 0.1 to 10).
PAPER_OVERCOMMIT_FACTORS: Tuple[float, ...] = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)

#: The x-axis of Figures 10 and 11, seconds, against 600-second PSA1 tasks.
PAPER_ANNOUNCE_INTERVALS: Tuple[float, ...] = (
    0.0, 100.0, 200.0, 300.0, 400.0, 500.0, 550.0, 600.0, 700.0,
)


def _announce_axis(scale: EvaluationScale) -> list:
    """Figures 10/11's x-axis relative to the scale's PSA1 task duration, so
    the "interval reaches the task duration" transition survives at every
    scale."""
    intervals = [i / 600.0 * scale.psa1_task_duration for i in PAPER_ANNOUNCE_INTERVALS]
    return ["workload.announce_interval", intervals]


def fig9(scale: EvaluationScale) -> ScenarioSpec:
    """Figure 9 -- scheduling with spontaneous updates.

    One AMR application and one PSA (600-second tasks) share a cluster sized
    to the AMR's pre-allocation.  The AMR's pre-allocation is its ideal
    static guess times an *overcommit factor*; the figure sweeps that factor
    and reports

    * the resources effectively allocated to the AMR, for a *static*
      allocation (the application is forced to use its whole
      pre-allocation) and a *dynamic* allocation (the application updates
      its non-preemptible request inside the pre-allocation), and
    * the PSA waste caused by the AMR's spontaneous updates in the dynamic
      case.

    Expected shape: static used-resources grow with the overcommit factor
    while dynamic stays flat; waste grows with the overcommit factor and
    saturates beyond 1.
    """
    return ScenarioSpec(
        name="fig9",
        description="Spontaneous updates: static vs dynamic overcommit sweep",
        params={"axes": [
            ["workload.overcommit", list(PAPER_OVERCOMMIT_FACTORS)],
            ["workload.static_allocation", [True, False]],
        ]},
        metrics=("amr_used_node_seconds", "psa_waste_node_seconds", "amr_end_time"),
    )


def fig10(scale: EvaluationScale) -> ScenarioSpec:
    """Figure 10 -- scheduling with announced updates.

    Same scenario as Figure 9 at overcommit factor 1, but the AMR announces
    its updates some time in advance instead of requesting resources
    spontaneously.  Three series are reported against the announce interval:

    * the AMR end-time increase (relative to spontaneous updates: the
      report's Δ% of ``amr_end_time`` against interval 0) -- announced
      growth means the AMR receives nodes later than it would like;
    * the PSA waste, as a percentage of the platform's capacity -- it
      shrinks as the announce interval grows and vanishes once the interval
      reaches the task duration;
    * the percent of used resources.
    """
    return ScenarioSpec(
        name="fig10",
        description="Announced updates: end-time increase, waste, used resources",
        params={"axes": [_announce_axis(scale)]},
        metrics=("amr_end_time", "psa_waste_percent", "used_resources_percent"),
    )


def fig11(scale: EvaluationScale) -> ScenarioSpec:
    """Figure 11 -- efficient resource filling with two PSAs.

    A second PSA with much shorter tasks (60 s instead of 600 s) is added to
    the announced-update scenario.  Under CooRMv2's equi-partitioning *with
    filling*, resources that PSA1 cannot exploit (holes shorter than its
    task duration) are offered to PSA2, which can fill them; under *strict*
    equi-partitioning both PSAs are always shown the same equal slice and
    the holes stay idle.  The figure reports the percent of used resources
    for both policies against the announce interval; the filling gain is
    the report's Δ of the ``strict_equipartition=false`` row.
    """
    return ScenarioSpec(
        name="fig11",
        description="Two PSAs: equi-partitioning with filling vs strict",
        workload=WorkloadSpec(
            psa_task_durations=(scale.psa1_task_duration, scale.psa2_task_duration)
        ),
        params={"axes": [_announce_axis(scale), ["rms.strict_equipartition", [True, False]]]},
        metrics=("used_resources_percent",),
    )


_BUILTIN_SCENARIOS = (
    *(
        ScenarioSpec(name=_name, runner=_name, description=_description)
        for _name, _description in [
            ("fig1", "Normalised AMR working-set evolution shape statistics"),
            ("fig2", "AMR step-duration model curves (speed-up fit)"),
            ("fig3", "End-time increase of the equivalent static allocation"),
            ("fig4", "Feasible static node-count choices per relative peak size"),
        ]
    ),
    ScenarioSpec(
        name="baseline-dynamic",
        runner="amr_psa",
        description="One AMR + one PSA, dynamic allocation (paper default)",
    ),
    ScenarioSpec(
        name="baseline-static",
        runner="amr_psa",
        description="One AMR + one PSA, AMR pinned to its whole pre-allocation",
        workload=WorkloadSpec(static_allocation=True),
    ),
    ScenarioSpec(
        name="strict-equipartition",
        runner="amr_psa",
        description="Paper scenario under the strict equi-partitioning baseline",
        rms=RmsSpec(strict_equipartition=True),
    ),
    ScenarioSpec(
        name="mixed-rigid",
        runner="amr_psa",
        description="AMR + PSA + a background stream of rigid batch jobs",
        workload=WorkloadSpec(
            rigid_job_count=8,
            rigid_max_nodes=16,
            rigid_mean_interarrival=30.0,
            rigid_runtime_median=120.0,
        ),
    ),
    ScenarioSpec(
        name="trace-replay",
        runner="amr_psa",
        description="Pure rigid replay of a 200-job model-synthesized trace",
        platform=PlatformSpec(cluster_nodes=64),
        workload=WorkloadSpec(
            include_amr=False,
            trace={
                "model": TRACE_SCENARIO_MODEL,
                "job_count": 200,
                "transforms": [{"kind": "clamp_nodes", "max_nodes": 64}],
            },
        ),
    ),
    ScenarioSpec(
        name="trace-adaptive",
        runner="amr_psa",
        description="Model-synthesized trace converted to an adaptive app mix",
        platform=PlatformSpec(cluster_nodes=64),
        workload=WorkloadSpec(
            include_amr=False,
            trace={
                "model": TRACE_SCENARIO_MODEL,
                "job_count": 60,
                "transforms": [{"kind": "clamp_nodes", "max_nodes": 64}],
                "mix": {
                    "rigid": 0.4,
                    "moldable": 0.2,
                    "malleable": 0.2,
                    "evolving": 0.2,
                },
            },
        ),
    ),

    # Federated scenarios: the registered built-in topologies (see
    # repro.federation.spec) applied to the generic runner, so `federation
    # describe <topology>` always matches what these scenarios execute.
    ScenarioSpec(
        name="fed-single",
        runner="amr_psa",
        description="Paper scenario inside a 1-cluster federation; must be "
        "byte-identical to baseline-dynamic (equivalence guard)",
        federation=TOPOLOGIES.get("single"),
    ),
    ScenarioSpec(
        name="fed-dual-trace",
        runner="amr_psa",
        description="200-job synthesized trace fanned into two 32-node "
        "clusters by the meta-scheduler",
        workload=WorkloadSpec(
            include_amr=False,
            trace={
                "model": TRACE_SCENARIO_MODEL,
                "job_count": 200,
                "transforms": [{"kind": "clamp_nodes", "max_nodes": 32}],
            },
        ),
        federation=TOPOLOGIES.get("dual"),
    ),
    # Chaos scenarios: the dual topology under the built-in fault plans.
    # AMR-free on purpose -- the trace workload's rigid jobs are killable and
    # respawnable, so jobs-lost / rescheduled / SLA-attainment numbers are
    # well defined.  The 120 jobs of _CHAOS_TRACE at one arrival per ~30 s
    # span the plans' 600..2400 s fault windows comfortably.
    ScenarioSpec(
        name="fed-chaos-dual",
        runner="amr_psa",
        description="Synthesized trace on two clusters under the flaky-nodes "
        "plan: staggered partial crashes with restarts, admission control "
        "rerouting around the unhealthy member",
        workload=WorkloadSpec(include_amr=False, trace=_CHAOS_TRACE),
        federation=TOPOLOGIES.get("dual"),
        faults="flaky-nodes",
    ),
    ScenarioSpec(
        name="fed-chaos-blackout",
        runner="amr_psa",
        description="Synthesized trace on two clusters with one member "
        "blacked out for 25 sim-minutes; killed jobs respawn on the survivor",
        workload=WorkloadSpec(include_amr=False, trace=_CHAOS_TRACE),
        federation=TOPOLOGIES.get("dual"),
        faults="blackout",
    ),
    ScenarioSpec(
        name="fed-hetero3",
        runner="amr_psa",
        description="Adaptive trace mix over three heterogeneous clusters "
        "(16/32/64 nodes) under least-loaded routing",
        workload=WorkloadSpec(
            include_amr=False,
            trace={
                "model": TRACE_SCENARIO_MODEL,
                "job_count": 60,
                "transforms": [{"kind": "clamp_nodes", "max_nodes": 64}],
                "mix": {
                    "rigid": 0.4,
                    "moldable": 0.2,
                    "malleable": 0.2,
                    "evolving": 0.2,
                },
            },
        ),
        federation=TOPOLOGIES.get("hetero3"),
    ),
)
# The registry holds one builder per scenario, ``EvaluationScale ->
# ScenarioSpec``; only the figures' sweeps depend on the scale.
for _spec in _BUILTIN_SCENARIOS:
    SCENARIOS.register(_spec.name, lambda _scale, spec=_spec: spec, _spec.description)
for _build in (fig9, fig10, fig11):
    SCENARIOS.register(_build.__name__, _build)
# Descriptive alias: the fig9 experiment is the paper's *spontaneous update*
# evaluation, and tooling examples refer to it by that name.
SCENARIOS.register("fig9-spontaneous", lambda scale: replace(
    fig9(scale),
    name="fig9-spontaneous",
    description="Alias of fig9 (spontaneous updates overcommit sweep)",
))
