"""Spec model: validation, JSON files, scale resolution (round trips:
``test_spec_codec.py``)."""
import math

import pytest

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


class TestResolveScale:
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
