"""Spec model: validation, JSON files, scale resolution (round trips:
``test_spec_codec.py``)."""
import math
from pathlib import PurePosixPath, PureWindowsPath

import pytest

from repro.campaign.runner import trace_filename
from repro.campaign.spec import (
    CampaignSpec,
    PlatformSpec,
    RmsSpec,
    ScenarioSpec,
    WorkloadSpec,
    resolve_scale,
)
from repro.core.errors import SpecError
from repro.faults.plan import AdmissionSpec, ElasticRule, FaultEvent, FaultPlan


class TestScenarioSpecValidation:
    def test_unknown_field_rejected(self):
        data = ScenarioSpec(name="x").to_dict()
        data["frobnicate"] = 1
        with pytest.raises(ValueError, match="frobnicate"):
            ScenarioSpec.from_dict(data)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            ScenarioSpec(name="x", scale="huge")

    def test_negative_overcommit_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(overcommit=-1.0)

    @pytest.mark.parametrize("field", ["overcommit", "announce_interval"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_workload_values_rejected_by_name(self, field, value):
        with pytest.raises(SpecError, match=f"^{field}: must be"):
            WorkloadSpec(**{field: value})

    @pytest.mark.parametrize(
        "cls, field, required",
        [
            (PlatformSpec, "cluster_headroom", {}),
            (RmsSpec, "rescheduling_interval", {}),
            (RmsSpec, "violation_grace", {}),
            (FaultEvent, "time", {"kind": "crash", "member": "#0", "nodes": 1}),
            (ElasticRule, "interval", {"member": "#0", "until": 60.0}),
            (ElasticRule, "until", {"member": "#0", "interval": 60.0}),
            (FaultPlan, "jitter", {"name": "p"}),
            (AdmissionSpec, "rate", {}),
            (AdmissionSpec, "burst", {}),
            (AdmissionSpec, "cooldown", {}),
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_typed_values_rejected_by_name(self, cls, field, required, value):
        with pytest.raises(SpecError, match=field):
            cls(**required, **{field: value})

    def test_free_form_sections_must_write_strict_json(self):
        with pytest.raises(SpecError, match=r"^params\.factors\[1\]: must be finite, got nan"):
            ScenarioSpec(name="x", params={"factors": [1.0, math.nan]})

    def test_bad_headroom_rejected(self):
        with pytest.raises(ValueError):
            PlatformSpec(cluster_headroom=0.5)

    def test_with_scale(self):
        assert ScenarioSpec(name="x").with_scale("paper").scale == "paper"


class TestCampaignSpec:
    def make(self, **kwargs) -> CampaignSpec:
        defaults = dict(
            name="camp",
            scenarios=(ScenarioSpec(name="a"), ScenarioSpec(name="b")),
            seeds=3,
            root_seed=7,
            workers=2,
            description="demo",
        )
        defaults.update(kwargs)
        return CampaignSpec(**defaults)

    def test_save_load(self, tmp_path):
        spec = self.make()
        path = tmp_path / "campaign.json"
        spec.save(path)
        assert CampaignSpec.load(path) == spec
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_run_count(self):
        assert self.make().run_count == 6

    def test_duplicate_scenarios_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            self.make(scenarios=(ScenarioSpec(name="a"), ScenarioSpec(name="a")))

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ValueError):
            self.make(scenarios=())

    def test_nonpositive_seeds_rejected(self):
        with pytest.raises(ValueError):
            self.make(seeds=0)

    def test_scenarios_must_be_a_list(self):
        with pytest.raises(ValueError, match="scenarios: must be a list"):
            CampaignSpec.from_dict({"name": "c", "scenarios": "abc"})

    def test_non_mapping_containers_rejected_by_name(self):
        with pytest.raises(ValueError, match="CampaignSpec must be a JSON object, got list"):
            CampaignSpec.from_dict([1, 2])
        with pytest.raises(ValueError, match="ScenarioSpec must be a JSON object, got str"):
            CampaignSpec.from_dict({"name": "c", "scenarios": ["abc"]})
        with pytest.raises(ValueError, match="PlatformSpec must be a JSON object, got list"):
            ScenarioSpec.from_dict({"name": "s", "platform": [1, 2]})


def swept(*axes, **kwargs) -> ScenarioSpec:
    return ScenarioSpec(name="s", params={"axes": [list(axis) for axis in axes]}, **kwargs)


class TestAxes:
    """``params["axes"]``: one expansion rule for a scenario's own sweep and
    the campaign's policies and routings."""

    def test_variants_are_the_product_in_axis_order(self):
        spec = swept(
            ("workload.overcommit", [0.5, 2.0, 10.0]),
            ("workload.static_allocation", [True, False]),
        )
        campaign = CampaignSpec(name="c", scenarios=(spec,), seeds=3, policies=("coorm", "easy"))
        expanded = campaign.expanded_scenarios()
        assert [(v.name, base) for v, base in expanded[:5:2]] == [
            ("s[overcommit=0.5,static_allocation=true]@coorm", "s"),
            ("s[overcommit=0.5,static_allocation=false]@coorm", "s"),
            ("s[overcommit=2,static_allocation=true]@coorm", "s"),
        ]
        assert expanded[-1][0].name == "s[overcommit=10,static_allocation=false]@easy"
        assert campaign.run_count == 36
        values, variant = spec.sweep(policies=["easy"])[1][3]
        assert values == (2.0, False, "easy")
        assert (variant.workload.overcommit, variant.workload.static_allocation) == (2.0, False)
        assert variant.policy == "easy" and variant.params == {}

    def test_a_scenario_without_axes_is_its_own_point(self):
        spec = ScenarioSpec(name="s", params={"k": 1})
        assert spec.expand() == (spec,) and spec.expand()[0] is spec
        (variant,) = spec.expand(policies=["easy"])
        assert variant.name == "s@easy" and variant.params == {"k": 1}

    @pytest.mark.parametrize("axes, message", [
        ([["workload.nope", [1.0]]], r"^params\.axes\[0\]: 'workload.nope' names no scenario field"),
        ([["faults.events", [1]]], r"^params\.axes\[0\]: 'faults.events' names no scenario field"),
        ([["name", ["t"]]], r"^params\.axes\[0\]: 'name' cannot be swept"),
        ([["workload.overcommit", []]], r"^params\.axes\[0\]: needs a non-empty list of values"),
        ([["workload.overcommit", [1.0]], ["workload.overcommit", [2.0]]],
         r"^params\.axes\[1\]: sweeps 'workload.overcommit' a second time"),
        ([["workload.overcommit", [1.0, 1.0000001]]],
         r"^params\.axes: variants share the name\(s\) \['s\[overcommit=1\]'\]"),
        ([["rms.violation_grace", [1.0]], ["workload.overcommit", [1.0, -1.0]]],
         r"^params\.axes\[1\]: workload\.overcommit = -1\.0: must be positive and finite"),
        ([["federation.clusters", [[]]]], r"^params\.axes\[0\]: federation\.clusters = \[\]: is unset"),
        ([["policy", ["coorm", "easy"]]], r"^params\.axes\[0\]: 'policy' is swept by the campaign's 'policies'"),
        ([["federation.routing", ["random"]]],
         r"^params\.axes\[0\]: 'federation.routing' is swept by the campaign's 'routings'"),
        ("workload.overcommit", r"^params\.axes: must be a non-empty list"),
        ([["workload.overcommit"]], r"^params\.axes\[0\]: must be a \[dotted field path"),
    ])
    def test_a_bad_axis_is_located(self, axes, message):
        with pytest.raises(SpecError, match=message):
            ScenarioSpec(name="s", params={"axes": axes})
        with pytest.raises(SpecError, match="^scenarios\\[0\\]." + message[1:]):
            CampaignSpec.from_dict({"name": "c", "scenarios": [{"name": "s", "params": {"axes": axes}}]})

    def test_a_path_value_names_one_file(self):
        spec = swept(("description", ["data/a.swf", "data\\b.swf"]))
        names = [variant.name for variant in spec.expand()]
        assert names == ["s[description=data%2Fa.swf]", "s[description=data%5Cb.swf]"]
        for name in names:
            assert PurePosixPath(trace_filename(name, 0)).name == trace_filename(name, 0)
            assert PureWindowsPath(trace_filename(name, 0)).name == trace_filename(name, 0)

    def test_a_strict_sweep_under_a_filling_policy_fails_located(self):
        spec = swept(("rms.strict_equipartition", [True, False]))
        with pytest.raises(SpecError, match=r"^params\.axes\[0\]: .*conflicts with policy 'easy'"):
            ScenarioSpec.from_dict({**spec.to_dict(), "policy": "easy"})
        campaign = CampaignSpec(name="c", scenarios=(ScenarioSpec(name="a"), spec), policies=("easy",))
        with pytest.raises(SpecError, match=r"^scenarios\[1\]: .*conflicts with policy 'easy'"):
            campaign.expanded_scenarios()


class TestResolveScale:
    def test_num_steps_sets_the_scale_of_every_runner(self):
        spec = ScenarioSpec(name="s", params={"num_steps": 80})
        assert resolve_scale(spec) == resolve_scale(ScenarioSpec(name="s")).with_steps(80)

    def test_named_scale_with_overrides(self):
        spec = ScenarioSpec(
            name="x",
            scale="tiny",
            rms=RmsSpec(rescheduling_interval=5.0),
            platform=PlatformSpec(cluster_headroom=2.0),
        )
        scale = resolve_scale(spec)
        assert scale.num_steps == 40  # tiny
        assert scale.rescheduling_interval == 5.0
        assert scale.cluster_headroom == 2.0
