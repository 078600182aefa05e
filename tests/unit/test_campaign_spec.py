"""Spec model: validation, dict/JSON round-trips, scale resolution."""
import json

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


def full_scenario() -> ScenarioSpec:
    """A scenario exercising every non-default spec field."""
    return ScenarioSpec(
        name="everything",
        runner="amr_psa",
        scale="reduced",
        description="all knobs set",
        platform=PlatformSpec(cluster_nodes=128, cluster_headroom=1.5),
        workload=WorkloadSpec(
            include_amr=True,
            psa_task_durations=(600.0, 60.0),
            overcommit=2.0,
            announce_interval=100.0,
            static_allocation=True,
            rigid_job_count=5,
            rigid_max_nodes=16,
            rigid_mean_interarrival=120.0,
            rigid_runtime_median=300.0,
            trace_path=None,
        ),
        rms=RmsSpec(
            rescheduling_interval=2.0,
            strict_equipartition=True,
            kill_protocol_violators=True,
            violation_grace=10.0,
        ),
        params={"overcommit_factors": [0.5, 1.0]},
        metrics=("psa_waste_percent",),
    )


class TestScenarioSpecRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        spec = full_scenario()
        data = spec.to_dict()
        assert ScenarioSpec.from_dict(data) == spec

    def test_dict_round_trip_is_canonical(self):
        # dict -> spec -> dict reproduces the dict exactly (tuples as lists).
        data = full_scenario().to_dict()
        assert ScenarioSpec.from_dict(data).to_dict() == data

    def test_to_dict_is_json_serialisable(self):
        text = json.dumps(full_scenario().to_dict(), sort_keys=True)
        assert ScenarioSpec.from_dict(json.loads(text)) == full_scenario()

    def test_defaults_round_trip(self):
        spec = ScenarioSpec(name="bare")
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        data = ScenarioSpec(name="x").to_dict()
        data["frobnicate"] = 1
        with pytest.raises(ValueError, match="frobnicate"):
            ScenarioSpec.from_dict(data)


class TestScenarioSpecValidation:
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

    def test_round_trip(self):
        spec = self.make()
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_canonical_dict_round_trip(self):
        data = self.make().to_dict()
        assert CampaignSpec.from_dict(data).to_dict() == data

    def test_save_load(self, tmp_path):
        spec = self.make()
        path = tmp_path / "campaign.json"
        spec.save(path)
        assert CampaignSpec.load(path) == spec

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
