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
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import product
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple, Union

from ..core.errors import SpecError
from ..core.serde import Spec, located, read_json, require_text
from ..experiments.runner import EvaluationScale, _strict_policy
from ..faults.plan import FAULT_PLANS, FaultPlan, resolve_fault_plan
from ..federation.routing import ROUTINGS
from ..federation.spec import TOPOLOGIES, FederationSpec
from ..policies.registry import policy_label, resolve_policy
from ..traces.source import TraceSource

__all__ = [
    "SCALE_NAMES",
    "RMS_FREE_RUNNERS",
    "PlatformSpec",
    "WorkloadSpec",
    "RmsSpec",
    "ScenarioSpec",
    "CampaignSpec",
    "resolve_scale",
]

#: Named evaluation scales (constructors on :class:`EvaluationScale`).
SCALE_NAMES: Tuple[str, ...] = ("tiny", "reduced", "paper")

#: The runners known to build no RMS: the analytic figures evaluate the
#: paper's models, so ignore ``ScenarioSpec.policy``, ``federation`` and
#: ``faults``.  A spec that gives one of them any of the three is refused
#: while it loads, so no record claims a policy, topology or plan that took
#: no part in the run.  Every other runner, a registered one included, gets
#: them as it asks.
RMS_FREE_RUNNERS = frozenset({"fig1", "fig2", "fig3", "fig4"})


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
    scenario; ``fig1`` ... ``fig4`` reproduce the paper's analytic figures).
    ``params`` carries runner-specific knobs, and ``params["axes"]`` a sweep:
    a list of ``[dotted field path, [values...]]`` pairs such as
    ``[["workload.overcommit", [0.5, 1, 2]]]``, whose product of variants
    (see :meth:`sweep`) runs instead of the scenario itself.  ``metrics``
    optionally restricts which metric keys are kept in the result records
    (empty = keep everything).
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
    #: one-member ``single`` topology: one cluster, member ``cluster0``.
    federation: Optional[FederationSpec] = None
    #: Fault plan armed against the federation: a registered plan name
    #: (see ``repro.faults.plan``), a plan dictionary (promoted to
    #: :class:`~repro.faults.plan.FaultPlan`) or a plan instance.  Its
    #: members must be in ``federation`` (``cluster0`` alone without one);
    #: ``None`` runs fault-free.
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
        if self.runner in RMS_FREE_RUNNERS:
            self._check_rms_free()
        topology = self.federation or TOPOLOGIES.get("single")
        if self.faults is not None:
            if isinstance(self.faults, str):
                FAULT_PLANS.get(self.faults)  # fail fast on unknown plan names
            elif not isinstance(self.faults, FaultPlan):
                raise SpecError(
                    "faults must be a registered plan name, a plan mapping or "
                    f"a FaultPlan, got {self.faults!r}"
                )
            with located("faults"):
                resolve_fault_plan(self.faults).check_members(topology.cluster_names)
        if self.rms.strict_equipartition:
            # The run would refuse a policy (default or member pin) that
            # does not share strictly; refuse it while the spec loads.
            _strict_policy(self.policy, topology)
        if "axes" in self.params:
            self._check_axes()

    def _check_rms_free(self) -> None:
        """A runner that builds no RMS takes the default policy only, and no
        federation or fault plan: it would ignore them."""
        for where, ignored, given in (
            ("policy", "scheduling policies", self.policy_name != "coorm"),
            ("federation", "federations", self.federation is not None),
            ("faults", "fault plans", self.faults is not None),
        ):
            if given:
                raise SpecError(
                    f"runner {self.runner!r} builds no RMS and ignores {ignored}; "
                    f"use an 'amr_psa' scenario (e.g. fig9, baseline-dynamic, "
                    f"fed-chaos-dual) instead",
                    where,
                )

    def _check_axes(self) -> None:
        """Each axis names a spec field and values the field accepts, and
        no two variants share a name."""
        axes = self.params["axes"]
        if not (isinstance(axes, (list, tuple)) and axes):
            raise SpecError("must be a non-empty list of [path, values] pairs", "params.axes")
        params = {key: value for key, value in self.params.items() if key != "axes"}
        paths = []
        for i, axis in enumerate(axes):
            where = f"params.axes[{i}]"
            if not (
                isinstance(axis, (list, tuple)) and len(axis) == 2 and isinstance(axis[0], str)
            ):
                raise SpecError("must be a [dotted field path, [values...]] pair", where)
            path, values = axis
            _check_path(path, where)
            if path in paths:
                raise SpecError(f"sweeps {path!r} a second time", where)
            paths.append(path)
            if not (isinstance(values, (list, tuple)) and values):
                raise SpecError("needs a non-empty list of values", where)
            for value in values:
                try:
                    _replaced(self, {path: value, "params": params})
                except SpecError as exc:
                    raise SpecError(f"{path} = {value!r}: {exc.reason}", where) from None
        axes = self.axes
        names = [
            _variant_name(self.name, axes, len(axes), values)
            for values in product(*(values for _path, values in axes))
        ]
        if len(set(names)) != len(names):
            clashes = sorted({n for n in names if names.count(n) > 1})
            raise SpecError(f"variants share the name(s) {clashes}", "params.axes")

    def with_scale(self, scale: str) -> "ScenarioSpec":
        return replace(self, scale=scale)

    @property
    def axes(self) -> Tuple[Tuple[str, Tuple], ...]:
        """The scenario's own sweep: ``params["axes"]`` as (path, values) pairs."""
        return tuple((path, tuple(values)) for path, values in self.params.get("axes", ()))

    def sweep(
        self, policies: Sequence = (), routings: Sequence[str] = ()
    ) -> Tuple[Tuple[Tuple[str, Tuple], ...], Tuple[Tuple[Tuple, "ScenarioSpec"], ...]]:
        """The one expansion rule: ``(axes, points)``.

        *axes* are the (dotted path, values) pairs swept -- the scenario's
        own ``params["axes"]``, then ``policy`` over *policies*, then
        ``federation.routing`` over *routings* -- and *points* one
        ``(values, variant)`` per cell of their product, the last axis
        fastest.  Each variant is one nested ``replace`` (so every spec check
        runs on it) without ``axes`` in its params, named
        ``base[leaf=value,...]@policy+routing``.  Without axes the scenario
        is its own single point.
        """
        own = self.axes
        axes = own + (("policy", tuple(policies)),) * bool(policies)
        axes += (("federation.routing", tuple(routings)),) * bool(routings)
        if not axes:
            return (), (((), self),)
        params = {key: value for key, value in self.params.items() if key != "axes"}
        points = []
        for values in product(*(values for _path, values in axes)):
            changes = dict(zip((path for path, _values in axes), values))
            changes["name"] = _variant_name(self.name, axes, len(own), values)
            changes["params"] = params
            points.append((values, _replaced(self, changes)))
        return axes, tuple(points)

    def expand(
        self, policies: Sequence = (), routings: Sequence[str] = ()
    ) -> Tuple["ScenarioSpec", ...]:
        """The variants of :meth:`sweep`, in its order."""
        return tuple(variant for _values, variant in self.sweep(policies, routings)[1])

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


def _check_path(path: str, where: str) -> None:
    """*path* names a field of :class:`ScenarioSpec`, through its ``NESTED``
    sections, other than ``name`` and ``params``, and other than ``policy``
    and ``federation.routing``: a campaign's ``policies`` and ``routings``
    sweep those, and would overwrite a scenario's own values."""
    owner = ScenarioSpec
    for part in path.split("."):
        if not (isinstance(owner, type) and part in {f.name for f in fields(owner) if f.init}):
            raise SpecError(f"{path!r} names no scenario field", where)
        owner = owner.NESTED.get(part)
    if path in ("name", "params"):
        raise SpecError(f"{path!r} cannot be swept", where)
    if path in ("policy", "federation.routing"):
        option = "policies" if path == "policy" else "routings"
        raise SpecError(f"{path!r} is swept by the campaign's {option!r}", where)


def _replaced(spec, changes: Mapping[str, object]):
    """*spec* with the dotted paths of *changes* set, one ``replace`` per
    spec touched."""
    own, nested = {}, {}
    for path, value in changes.items():
        head, dot, rest = path.partition(".")
        if dot:
            nested.setdefault(head, {})[rest] = value
        else:
            own[head] = value
    for head, inner in nested.items():
        section = getattr(spec, head)
        if section is None:
            raise SpecError(f"is unset, so {sorted(inner)} cannot be swept", head)
        own[head] = _replaced(section, inner)
    with located(""):
        return replace(spec, **own)


def axis_label(value) -> str:
    """A swept value in a variant name: numbers ``:g``, text as is, the
    rest (booleans included) as JSON.  Path separators are written ``%2F``
    and ``%5C``: a variant name is also a file name (its runs' traces)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{value:g}"
    label = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return label.replace("/", "%2F").replace("\\", "%5C")


def _variant_name(base: str, axes, own: int, values) -> str:
    """``base[leaf=value,...]`` over the first *own* axes, then ``@policy``
    and ``+routing`` for the campaign's axes."""
    leaves = [
        f"{path.rpartition('.')[2]}={axis_label(value)}"
        for (path, _values), value in zip(axes[:own], values)
    ]
    name = f"{base}[{','.join(leaves)}]" if leaves else base
    for (path, _values), value in zip(axes[own:], values[own:]):
        name += f"@{policy_label(value)}" if path == "policy" else f"+{value}"
    return name


@dataclass(frozen=True)
class CampaignSpec(Spec):
    """A set of scenarios swept over a seed range (and optionally policies).

    Every (variant, replicate) pair becomes one run whose seed is
    ``derive_seed(root_seed, scenario.name, replicate)`` of the *base*
    scenario name -- fully determined by the spec, never by execution order
    or worker count, and shared by every variant of a scenario, so each
    replays the exact same workload and their metrics compare directly.

    A scenario's variants are the cells of its own ``params["axes"]``, then
    of ``policies`` (named ``<scenario>@<policy>``), then, for federated
    scenarios, of ``routings`` (named ``<scenario>+<routing>``); see
    :meth:`ScenarioSpec.sweep`.
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
        return len(self.expanded_scenarios()) * self.seeds

    def expanded_scenarios(self) -> Tuple[Tuple[ScenarioSpec, str], ...]:
        """Every variant of every scenario as ``(variant, base_name)``, by
        :meth:`ScenarioSpec.sweep` over the campaign's policies and
        routings.  Seeds must be derived from the *base* name so that all
        variants of one scenario replay identical workloads.  A variant no
        spec check accepts (fig11's strict points under a non-strict policy)
        fails here, located at its scenario, before anything runs."""
        variants = []
        for i, scenario in enumerate(self.scenarios):
            with located(f"scenarios[{i}]"):
                variants.extend(
                    (variant, scenario.name)
                    for variant in scenario.expand(self.policies, self.routings)
                )
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

    The named scale supplies the size knobs, ``params["num_steps"]`` (when
    given) the AMR's step count; the scenario's RMS and platform sections
    override the scheduling interval and the cluster headroom.
    """
    scale: EvaluationScale = getattr(EvaluationScale, spec.scale)()
    if "num_steps" in spec.params:
        scale = scale.with_steps(int(spec.params["num_steps"]))
    return replace(
        scale,
        rescheduling_interval=spec.rms.rescheduling_interval,
        cluster_headroom=spec.platform.cluster_headroom,
    )
