"""Declarative scenario and campaign specifications.

A *scenario* describes one simulated configuration -- platform, workload mix,
RMS configuration and the runner that executes it -- while a *campaign*
groups scenarios with a seed range and parallelism settings.  Both are plain
frozen dataclasses that round-trip losslessly through dictionaries and JSON,
so campaigns can be written by hand, versioned next to the results they
produced, and replayed later.

The specs deliberately describe *what* to simulate, never *how*:
execution lives in :mod:`repro.campaign.runner` and the built-in scenario
definitions in :mod:`repro.campaign.builtin`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import List, Mapping, Optional, Tuple, Union

from ..core.errors import SpecError
from ..core.serde import Spec, located, read_json, require_text
from ..experiments.runner import EvaluationScale, _strict_policy
from ..faults.plan import FAULT_PLANS, FaultPlan, resolve_fault_plan
from ..federation.routing import ROUTINGS
from ..federation.spec import FederationSpec
from ..policies.registry import policy_label, resolve_policy
from ..traces.source import TraceSource

__all__ = [
    "SCALE_NAMES",
    "PlatformSpec",
    "WorkloadSpec",
    "RmsSpec",
    "ScenarioSpec",
    "CampaignSpec",
    "resolve_scale",
]

#: Named evaluation scales (constructors on :class:`EvaluationScale`).
SCALE_NAMES: Tuple[str, ...] = ("tiny", "reduced", "paper")


@dataclass(frozen=True)
class PlatformSpec(Spec):
    """Where the scenario runs.

    ``cluster_nodes == 0`` means "derive the cluster size from the evolving
    application's pre-allocation times *cluster_headroom*", which is how the
    paper sizes its platform.
    """

    cluster_nodes: int = 0
    cluster_headroom: float = 1.16

    def validate(self) -> None:
        if self.cluster_nodes < 0:
            raise SpecError("cluster_nodes must be >= 0 (0 = derive)")
        # Written so that NaN fails it too: it compares False with everything.
        if not 1.0 <= self.cluster_headroom < math.inf:
            raise SpecError("cluster_headroom must be >= 1 and finite")


@dataclass(frozen=True)
class WorkloadSpec(Spec):
    """The application mix submitted to the RMS.

    The default is the paper's evaluation workload: one non-predictably
    evolving AMR application plus the PSA(s) of the active scale.  Rigid
    batch jobs (generated, or replayed from an SWF trace) can be layered on
    top to exercise mixed classical + evolving load.
    """

    #: Submit the evolving AMR application (the paper's NEA).
    include_amr: bool = True
    #: PSA task durations, seconds.  Empty means "use the scale's PSA1"
    #: while the AMR is included, and "no PSAs" in AMR-free scenarios.
    psa_task_durations: Tuple[float, ...] = ()
    #: Pre-allocation overcommit factor of the AMR (Figure 9's x-axis).
    overcommit: float = 1.0
    #: Announce interval of AMR updates, seconds (0 = spontaneous).
    announce_interval: float = 0.0
    #: Force the AMR to hold its whole pre-allocation (static baseline).
    static_allocation: bool = False
    #: Number of background rigid batch jobs (0 = none).
    rigid_job_count: int = 0
    #: Largest rigid job, nodes.
    rigid_max_nodes: int = 32
    #: Mean inter-arrival time of rigid jobs, seconds.
    rigid_mean_interarrival: float = 400.0
    #: Median runtime of rigid jobs, seconds (their tail is capped at 10x).
    rigid_runtime_median: float = 1800.0
    #: Reserved: the retired 4-field replay format.  Always ``None``; the
    #: key stays in ``to_dict()`` because the wire and unit-key bytes are
    #: frozen.  Replay an SWF file with ``trace={"path": ...}`` instead.
    trace_path: Optional[str] = None
    #: Full declarative trace source (SWF path or statistical model, plus a
    #: transformation chain and an adaptive-kind mix).  Dictionaries are
    #: promoted to :class:`~repro.traces.source.TraceSource` on construction.
    trace: Optional[TraceSource] = None

    NESTED = {"trace": TraceSource}

    def validate(self) -> None:
        with located("psa_task_durations"):
            object.__setattr__(
                self,
                "psa_task_durations",
                tuple(float(d) for d in self.psa_task_durations),
            )
        if self.trace_path is not None:
            raise SpecError(
                'the 4-field replay format is retired; use trace = {"path": ...} '
                "with an SWF file",
                "trace_path",
            )
        # Written so that NaN fails them too: it compares False with everything.
        if not all(0 < d < math.inf for d in self.psa_task_durations):
            raise SpecError("must be positive and finite", "psa_task_durations")
        if not 0 < self.overcommit < math.inf:
            raise SpecError("must be positive and finite", "overcommit")
        if not 0 <= self.announce_interval < math.inf:
            raise SpecError("must be >= 0 and finite", "announce_interval")
        if self.rigid_job_count < 0:
            raise SpecError("rigid_job_count must be >= 0")
        if self.rigid_max_nodes < 1:
            raise SpecError("rigid_max_nodes must be >= 1")
        if self.rigid_mean_interarrival <= 0:
            raise SpecError("rigid_mean_interarrival must be positive")
        if self.rigid_runtime_median <= 0:
            raise SpecError("rigid_runtime_median must be positive")


@dataclass(frozen=True)
class RmsSpec(Spec):
    """Configuration of the CooRMv2 RMS under test."""

    rescheduling_interval: float = 1.0
    strict_equipartition: bool = False
    kill_protocol_violators: bool = False
    violation_grace: float = 30.0

    def validate(self) -> None:
        if not 0 <= self.rescheduling_interval < math.inf:
            raise SpecError("rescheduling_interval must be >= 0 and finite")
        if not 0 <= self.violation_grace < math.inf:
            raise SpecError("violation_grace must be >= 0 and finite")


@dataclass(frozen=True)
class ScenarioSpec(Spec):
    """One named, fully-described simulation scenario.

    ``runner`` names an executor registered in
    :mod:`repro.campaign.registry` (``amr_psa`` is the generic paper
    scenario; ``fig1`` ... ``fig11`` reproduce the paper's figures).
    ``params`` carries runner-specific knobs such as the overcommit sweep of
    Figure 9.  ``metrics`` optionally restricts which metric keys are kept
    in the result records (empty = keep everything).
    """

    name: str
    runner: str = "amr_psa"
    scale: str = "tiny"
    description: str = ""
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    rms: RmsSpec = field(default_factory=RmsSpec)
    params: Mapping[str, object] = field(default_factory=dict)
    metrics: Tuple[str, ...] = ()
    #: Scheduling policy of the simulated RMS: a registered policy name
    #: (see ``python -m repro policy list``) or a declarative stage mapping
    #: (``{"ordering": ..., "backfill": ..., "sharing": ...}``).  ``None``
    #: keeps the paper's default composition (Algorithm 4).
    policy: Optional[Union[str, Mapping]] = None
    #: Multi-cluster federation topology + routing policy (see
    #: :class:`~repro.federation.spec.FederationSpec`).  ``None`` runs the
    #: classic single-scheduler path.
    federation: Optional[FederationSpec] = None
    #: Fault plan armed against the federation: a registered plan name
    #: (see ``repro.faults.plan``), a plan dictionary (promoted to
    #: :class:`~repro.faults.plan.FaultPlan`) or a plan instance.
    #: Requires ``federation``; ``None`` runs fault-free.
    faults: Optional[Union[str, FaultPlan]] = None

    NESTED = {
        "platform": PlatformSpec,
        "workload": WorkloadSpec,
        "rms": RmsSpec,
        "federation": FederationSpec,
        # A function loads mappings only: a plan name reaches validate().
        "faults": FaultPlan.from_dict,
    }

    def validate(self) -> None:
        if not (self.name and isinstance(self.name, str)):
            raise SpecError("scenario name must be a non-empty string")
        require_text(self.description, "description")
        if not self.runner:
            raise SpecError("scenario runner must not be empty")
        if self.scale not in SCALE_NAMES:
            raise SpecError(f"scale must be one of {SCALE_NAMES}, got {self.scale!r}")
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "metrics", tuple(str(m) for m in self.metrics))
        if self.policy is not None:
            if isinstance(self.policy, Mapping):
                object.__setattr__(self, "policy", dict(self.policy))
            elif not isinstance(self.policy, str):
                raise SpecError(
                    "policy must be a registered name or a stage mapping, "
                    f"got {self.policy!r}"
                )
            resolve_policy(self.policy)  # fail fast on unknown names/stages
        if self.faults is not None:
            if isinstance(self.faults, str):
                FAULT_PLANS.get(self.faults)  # fail fast on unknown plan names
            elif not isinstance(self.faults, FaultPlan):
                raise SpecError(
                    "faults must be a registered plan name, a plan mapping or "
                    f"a FaultPlan, got {self.faults!r}"
                )
            if self.federation is None:
                raise SpecError(
                    f"scenario {self.name!r} declares a fault plan but no "
                    f"federation; fault injection targets federation members"
                )
            with located("faults"):
                resolve_fault_plan(self.faults).check_members(self.federation.cluster_names)
        if self.rms.strict_equipartition:
            # The run would refuse a policy (default or member pin) that
            # does not share strictly; refuse it while the spec loads.
            _strict_policy(self.policy, self.federation)

    def with_scale(self, scale: str) -> "ScenarioSpec":
        return replace(self, scale=scale)

    def with_policy(self, policy: Union[str, Mapping]) -> "ScenarioSpec":
        """This scenario under another scheduling policy, suffix-renamed so
        a policy matrix never produces duplicate scenario names."""
        return replace(self, name=f"{self.name}@{policy_label(policy)}", policy=policy)

    def with_routing(self, routing: str) -> "ScenarioSpec":
        """This (federated) scenario under another routing policy,
        suffix-renamed so a routing matrix never duplicates names."""
        if self.federation is None:
            raise SpecError(
                f"scenario {self.name!r} has no federation; routing matrices "
                f"only apply to federated scenarios"
            )
        return replace(
            self,
            name=f"{self.name}+{routing}",
            federation=self.federation.with_routing(routing),
        )

    @property
    def policy_name(self) -> str:
        """Display name of the scenario's policy (default when unset)."""
        return policy_label(self.policy)

    @property
    def routing_name(self) -> str:
        """The federation's routing policy name ('' when not federated)."""
        return "" if self.federation is None else self.federation.routing

    @property
    def topology_label(self) -> str:
        """Compact federation topology label ('' when not federated)."""
        return "" if self.federation is None else self.federation.label()

    @property
    def trace(self) -> Optional[TraceSource]:
        """The scenario's declarative trace source, if any."""
        return self.workload.trace

    @cached_property
    def canonical_json(self) -> str:
        """``to_dict()`` as canonical (key-sorted) JSON text, encoded once.

        The spec is frozen, and every replicate of a variant shares one
        spec object, so unit keys and the wire form of a whole campaign pay
        for one ``to_dict`` per variant.  Not a field: equality, ``replace``
        and ``to_dict`` never see it.
        """
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class CampaignSpec(Spec):
    """A set of scenarios swept over a seed range (and optionally policies).

    Every (scenario, replicate) pair becomes one run whose seed is
    ``derive_seed(root_seed, scenario.name, replicate)`` -- fully determined
    by the spec, never by execution order or worker count.

    A non-empty ``policies`` tuple turns the campaign into a policy x
    scenario x replicate matrix: every scenario is executed once per listed
    policy (named ``<scenario>@<policy>``), and the run seed is still derived
    from the *base* scenario name -- so every policy replays the exact same
    workload and the per-policy metrics are directly comparable.

    A non-empty ``routings`` tuple does the same for federated scenarios:
    every (policy-expanded) scenario additionally runs once per listed
    routing policy (named ``<scenario>+<routing>``), again with the seed
    derived from the base name, so every cell of the routing x topology
    matrix fans in the exact same workload.
    """

    name: str
    scenarios: Tuple[ScenarioSpec, ...]
    seeds: int = 1
    root_seed: int = 0
    workers: int = 1
    description: str = ""
    #: Scheduling policies to sweep every scenario over (empty = run each
    #: scenario under its own ``policy`` field, the default being Algorithm 4).
    policies: Tuple[str, ...] = ()
    #: Federation routing policies to sweep every scenario over (empty =
    #: run each scenario under its federation's own routing).  Requires
    #: every scenario in the campaign to carry a federation spec.
    routings: Tuple[str, ...] = ()

    NESTED = {"scenarios": [ScenarioSpec]}

    def validate(self) -> None:
        if not (self.name and isinstance(self.name, str)):
            raise SpecError("campaign name must be a non-empty string")
        require_text(self.description, "description")
        if not self.scenarios:
            raise SpecError("campaign needs at least one scenario")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate scenario names in campaign: {names}")
        if self.seeds <= 0:
            raise SpecError("seeds must be positive")
        if self.workers <= 0:
            raise SpecError("workers must be positive")
        object.__setattr__(self, "policies", tuple(str(p) for p in self.policies))
        if len(set(self.policies)) != len(self.policies):
            raise SpecError(f"duplicate policies in campaign: {list(self.policies)}")
        for p in self.policies:
            resolve_policy(p)  # fail fast on unknown policy names
        object.__setattr__(self, "routings", tuple(str(r) for r in self.routings))
        if len(set(self.routings)) != len(self.routings):
            raise SpecError(f"duplicate routings in campaign: {list(self.routings)}")
        for r in self.routings:
            ROUTINGS.get(r)  # fail fast on unknown routing names
        if self.routings:
            unfederated = [s.name for s in self.scenarios if s.federation is None]
            if unfederated:
                raise SpecError(
                    f"routing matrix requires federated scenarios, but "
                    f"{unfederated} have no federation spec"
                )

    @property
    def run_count(self) -> int:
        return (
            len(self.scenarios)
            * max(1, len(self.policies))
            * max(1, len(self.routings))
            * self.seeds
        )

    def expanded_scenarios(self) -> Tuple[Tuple[ScenarioSpec, str], ...]:
        """The policy x routing x scenario grid as ``(variant, base_name)``.

        Without matrices every scenario maps to itself; a policy matrix
        yields one ``@<policy>`` variant per policy, a routing matrix one
        ``+<routing>`` variant per routing, and both together the full
        cross product.  Seeds must be derived from the *base* name so that
        all variants of one scenario replay identical workloads.
        """
        variants: List[Tuple[ScenarioSpec, str]] = []
        for scenario in self.scenarios:
            policy_variants = (
                [scenario.with_policy(p) for p in self.policies]
                if self.policies
                else [scenario]
            )
            for policy_variant in policy_variants:
                routing_variants = (
                    [policy_variant.with_routing(r) for r in self.routings]
                    if self.routings
                    else [policy_variant]
                )
                variants.extend((v, scenario.name) for v in routing_variants)
        return tuple(variants)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        return read_json(path, cls.from_dict)


def resolve_scale(spec: ScenarioSpec) -> EvaluationScale:
    """Build the :class:`EvaluationScale` a scenario runs at.

    The named scale supplies the size knobs; the scenario's RMS and platform
    sections override the scheduling interval and the cluster headroom.
    """
    scale: EvaluationScale = getattr(EvaluationScale, spec.scale)()
    return replace(
        scale,
        rescheduling_interval=spec.rms.rescheduling_interval,
        cluster_headroom=spec.platform.cluster_headroom,
    )
