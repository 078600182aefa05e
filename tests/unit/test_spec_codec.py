"""The spec codec (``repro.core.serde.Spec``): every registry's specs
round-trip through strict JSON, and no spec class writes, reads or promotes
its sections by hand."""
from __future__ import annotations

import dataclasses
import json

import pytest

from repro.campaign.registry import builtin_scenarios
from repro.campaign.runner import RunTask
from repro.campaign.spec import CampaignSpec, PlatformSpec, RmsSpec, ScenarioSpec, WorkloadSpec
from repro.campaign.units import unit_key
from repro.core import serde
from repro.core.errors import SpecError
from repro.core.serde import Spec
from repro.faults.plan import FAULT_PLANS, get_fault_plan
from repro.federation import ROUTINGS, TOPOLOGIES, ClusterSpec, FederationSpec
from repro.obs.slo import DEFAULT_SLO
from repro.policies import POLICIES, policy_label
from repro.traces.convert import AdaptiveMix
from repro.traces.models import MODEL_KINDS, DailyCycleArrivals, LogUniformDuration
from repro.traces.models import TraceModel, model_from_dict
from repro.traces.transform import TRANSFORM_KINDS, TimeWindow, transform_from_dict
from repro.workloads.generator import WorkloadParameters


def full_scenario() -> ScenarioSpec:
    """A scenario exercising every non-default spec field."""
    return ScenarioSpec(
        name="everything",
        scale="reduced",
        description="all knobs set",
        platform=PlatformSpec(cluster_nodes=128, cluster_headroom=1.5),
        workload=WorkloadSpec(
            psa_task_durations=(600.0, 60.0), overcommit=2.0, announce_interval=100.0,
            static_allocation=True, rigid_job_count=5, rigid_max_nodes=16,
            rigid_mean_interarrival=120.0, rigid_runtime_median=300.0,
        ),
        rms=RmsSpec(
            rescheduling_interval=2.0, strict_equipartition=True,
            kill_protocol_violators=True, violation_grace=10.0,
        ),
        params={"knob": [0.5, 1.0]},
        metrics=("psa_waste_percent",),
    )


#: Kind-tagged classes are read back by their registry's reader.
KIND_READERS = {
    **{MODEL_KINDS.get(kind): model_from_dict for kind in MODEL_KINDS.names()},
    **{TRANSFORM_KINDS.get(kind): transform_from_dict for kind in TRANSFORM_KINDS.names()},
}


#: The built-in runners that build no RMS, and what they refuse: every
#: policy but the default.
ANALYTIC = ("fig1", "fig2", "fig3", "fig4")
STAGE_MAPPING = {"ordering": "sjf", "sharing": "strict-eq"}
REFUSED_POLICIES = [*(p for p in POLICIES.names() if p != "coorm"), STAGE_MAPPING]


def registry_specs():
    """Every registered spec, its variants and one default of every kind."""
    builtins = list(builtin_scenarios().values())
    for scenario in builtins:
        yield scenario
        if scenario.runner in ANALYTIC:
            yield from scenario.expand(policies=["coorm"])
            continue
        strict = scenario.rms.strict_equipartition or "rms.strict_equipartition" in dict(
            scenario.axes
        )
        yield from scenario.expand(policies=["coorm-strict"] if strict else POLICIES.names())
        yield from scenario.expand(policies=[STAGE_MAPPING])
        if scenario.federation is not None:
            yield from scenario.expand(routings=ROUTINGS.names())
    yield full_scenario()
    yield ScenarioSpec(name="bare")
    yield CampaignSpec(name="all", scenarios=tuple(builtins), policies=("coorm", "easy"))
    federated = tuple(s for s in builtins if s.federation is not None)
    yield CampaignSpec(name="fed", scenarios=federated, routings=tuple(ROUTINGS.names()))
    yield from (get_fault_plan(name) for name in FAULT_PLANS.names())
    yield from (TOPOLOGIES.get(name) for name in TOPOLOGIES.names())
    yield FederationSpec(
        clusters=(ClusterSpec(name="a", nodes=16), ClusterSpec(name="b", nodes=64, policy="sjf")),
        routing="least-loaded",
    )
    yield DEFAULT_SLO
    yield from (cls() for cls in KIND_READERS)
    yield TimeWindow(start=5.0)  # its open end is written as null
    yield TraceModel()
    yield TraceModel(arrivals=DailyCycleArrivals(mean_rate=0.01), durations=LogUniformDuration())
    yield AdaptiveMix(rigid=0.1, moldable=0.2, malleable=0.3, evolving=0.4)
    yield WorkloadParameters()


@pytest.mark.parametrize(
    "spec", registry_specs(), ids=lambda spec: getattr(spec, "name", type(spec).__name__)
)
def test_every_registry_spec_round_trips_through_strict_json(spec):
    assert isinstance(spec, Spec)
    data = spec.to_dict()
    load = KIND_READERS.get(type(spec), type(spec).from_dict)
    again = load(json.loads(json.dumps(data, allow_nan=False)))
    assert again == spec
    assert again.to_dict() == data  # tuples are written as lists
    if isinstance(spec, ScenarioSpec):
        assert again.canonical_json == spec.canonical_json
        assert unit_key(RunTask(again, 0, 7)) == unit_key(RunTask(spec, 0, 7))


@pytest.mark.parametrize("policy", REFUSED_POLICIES, ids=policy_label)
@pytest.mark.parametrize("name", ANALYTIC)
def test_an_analytic_figure_refuses_a_policy_sweep_while_it_expands(name, policy):
    with pytest.raises(SpecError, match=f"runner '{name}' builds no RMS") as refused:
        builtin_scenarios()[name].expand(policies=[policy])
    assert refused.value.path == "policy"


def _codec_classes(cls=Spec):
    for sub in cls.__subclasses__():
        yield sub
        yield from _codec_classes(sub)


def test_no_spec_class_writes_reads_or_promotes_by_hand():
    by_hand = {"to_dict", "from_dict", "__post_init__"}
    for cls in _codec_classes():
        assert not by_hand & set(vars(cls)), cls
        assert set(cls.NESTED) <= set(cls.__dataclass_fields__), cls


def _written_nodes(data) -> int:
    """Nodes below the root of a written spec, without the ``kind`` tags a
    class writes for its registry reader (they are no fields)."""
    if isinstance(data, dict):
        return sum(1 + _written_nodes(item) for key, item in data.items() if key != "kind")
    if isinstance(data, list):
        return sum(1 + _written_nodes(item) for item in data)
    return 0


def test_strict_json_is_checked_once_per_written_node(monkeypatch):
    """A spec checks its own fields; each section checked itself when it was
    built, so loading a campaign visits every written node once -- not once
    per nesting level.  (A trace source's sections stay plain dictionaries
    that it also loads to validate them, so it is left out.)"""
    scenario = full_scenario()
    chaos = dataclasses.replace(
        builtin_scenarios()["fed-chaos-dual"], workload=scenario.workload,
        faults=get_fault_plan("elastic-tide"), params={"k": [1, {"a": 2.0}]},
    )
    campaign = CampaignSpec(name="c", scenarios=(scenario, chaos), policies=("easy",))
    visits, check = [], serde._require_strict_json

    def counting(value, where):
        visits.append(where)
        check(value, where)

    monkeypatch.setattr(serde, "_require_strict_json", counting)
    for spec in (chaos, campaign):
        visits.clear()
        data = spec.to_dict()
        assert type(spec).from_dict(data) == spec
        assert len(visits) == _written_nodes(data)
