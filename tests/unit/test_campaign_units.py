"""Run-unit idempotency keys: stable across processes, sensitive to inputs.

The distributed backend's exactly-once guarantee rests on the unit key
being (a) a pure, process-independent function of everything that shapes a
run's store row and (b) different whenever any of those inputs differs.
Both directions are tested here: byte-equal keys from a fresh interpreter,
and hypothesis-driven single-component perturbations that must all change
the key.
"""
from __future__ import annotations

import json
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.campaign.registry import resolve_scenarios
from repro.campaign.runner import RunTask
from repro.campaign.spec import ScenarioSpec
from repro.campaign.units import grant_message, grant_tasks, unit_key
from repro.sim.randomness import derive_seed, stable_fingerprint


def wire_round_trip(*tasks):
    """*tasks* granted, sent as JSON and rebuilt by the receiving side."""
    grant = grant_message((unit_key(task), task) for task in tasks)
    return [task for _key, task in grant_tasks(json.loads(json.dumps(grant)))]


def make_task(
    scenario="baseline-dynamic",
    replicate=0,
    root_seed=0,
    collect_obs=False,
    slo_spec="",
    trace_dir="",
) -> RunTask:
    (spec,) = resolve_scenarios([scenario])
    return RunTask(
        scenario=spec,
        replicate=replicate,
        seed=derive_seed(root_seed, spec.name, replicate),
        base_scenario=spec.name,
        collect_obs=collect_obs,
        trace_dir=trace_dir,
        slo_spec=slo_spec,
    )


class TestKeyStability:
    def test_key_is_deterministic_within_a_process(self):
        assert unit_key(make_task()) == unit_key(make_task())

    def test_key_has_a_greppable_prefix(self):
        key = unit_key(make_task(replicate=3))
        assert key.startswith("baseline-dynamic:r3:")
        assert len(key.rsplit(":", 1)[1]) == 16  # stable_fingerprint hex

    def test_key_is_identical_in_a_fresh_interpreter(self):
        """Same inputs -> same key across process boundaries.

        A worker on another machine must derive the same key the
        coordinator did, otherwise dedup and resume silently break.  A
        fresh interpreter catches anything process-local leaking into the
        key (hash randomisation, dict order, object ids).
        """
        task = make_task(replicate=1, root_seed=42)
        code = (
            "import sys, json\n"
            "from repro.campaign.units import grant_tasks, unit_key\n"
            "((_, task),) = grant_tasks(json.loads(sys.stdin.read()))\n"
            "print(unit_key(task))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            input=json.dumps(grant_message([("k", task)])),
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == unit_key(task)

    def test_wire_round_trip_preserves_the_task_and_key(self):
        task = make_task(collect_obs=True, slo_spec="default")
        (rebuilt,) = wire_round_trip(task)
        assert rebuilt == task
        assert unit_key(rebuilt) == unit_key(task)

    def test_a_grant_round_trips_several_variants(self):
        tasks = [
            make_task(replicate=0),
            make_task(replicate=1, collect_obs=True, slo_spec="default"),
            make_task(scenario="strict-equipartition", trace_dir="traces/out"),
            make_task(replicate=2, collect_obs=True, slo_spec="default"),
        ]
        grant = grant_message((unit_key(task), task) for task in tasks)
        assert len(grant["variants"]) == 3
        assert [variant for _key, variant, _r, _s in grant["units"]] == [0, 1, 2, 1]
        assert wire_round_trip(*tasks) == tasks

    def test_trace_dir_does_not_perturb_the_key(self):
        # Where the side-channel trace lands never changes the row bytes,
        # so two otherwise-identical runs must deduplicate.
        assert unit_key(make_task()) == unit_key(make_task(trace_dir="/tmp/x"))


class TestKeySensitivity:
    @given(
        component=st.sampled_from(
            ["scenario", "replicate", "root_seed", "collect_obs", "slo_spec"]
        ),
        replicate=st.integers(min_value=0, max_value=20),
        root_seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_changing_any_component_changes_the_key(
        self, component, replicate, root_seed
    ):
        base = make_task(replicate=replicate, root_seed=root_seed)
        changed = {
            "scenario": lambda: make_task(
                scenario="strict-equipartition",
                replicate=replicate,
                root_seed=root_seed,
            ),
            "replicate": lambda: make_task(
                replicate=replicate + 1, root_seed=root_seed
            ),
            "root_seed": lambda: make_task(
                replicate=replicate, root_seed=root_seed + 1
            ),
            "collect_obs": lambda: make_task(
                replicate=replicate, root_seed=root_seed, collect_obs=True
            ),
            "slo_spec": lambda: make_task(
                replicate=replicate, root_seed=root_seed, slo_spec="default"
            ),
        }[component]()
        assert unit_key(changed) != unit_key(base)

    def test_policy_and_scale_change_the_key(self):
        (spec,) = resolve_scenarios(["baseline-dynamic"])
        base = make_task()
        repoliced = RunTask(
            scenario=spec.expand(policies=["easy"])[0],
            replicate=0,
            seed=base.seed,
            base_scenario=spec.name,
        )
        rescaled = RunTask(
            scenario=spec.with_scale("reduced"),
            replicate=0,
            seed=base.seed,
            base_scenario=spec.name,
        )
        keys = {unit_key(base), unit_key(repoliced), unit_key(rescaled)}
        assert len(keys) == 3

    def test_workload_provenance_shapes_the_key(self):
        # The declarative workload description (the provenance-to-be) is
        # embedded in the scenario spec, so perturbing it perturbs the key.
        (spec,) = resolve_scenarios(["baseline-dynamic"])
        tweaked = ScenarioSpec.from_dict(
            {**spec.to_dict(), "params": {**spec.params, "tweak": 1}}
        )
        base = make_task()
        other = RunTask(
            scenario=tweaked, replicate=0, seed=base.seed, base_scenario=spec.name
        )
        assert unit_key(other) != unit_key(base)


class TestOneEncodingPerScenario:
    """Keys and wire forms reuse the scenario's cached canonical JSON text."""

    @given(
        base_scenario=st.text(max_size=12),
        slo_spec=st.text(max_size=12),
        replicate=st.integers(min_value=0, max_value=10**6),
        seed=st.integers(min_value=0, max_value=2**64),
    )
    @settings(max_examples=200, deadline=None)
    def test_key_is_the_fingerprint_of_the_plain_canonical_json(
        self, base_scenario, slo_spec, replicate, seed
    ):
        # The formula the key was defined by: one json.dumps of all six
        # components.  Splicing replicate and seed into a text cached per
        # variant must not change a byte, whatever quotes or escapes the
        # strings carry -- and the keys of one run come from several
        # variants, so a cache that confused two of them would show.
        (spec,) = resolve_scenarios(["baseline-dynamic"])
        for scenario in (spec, *spec.expand(policies=["easy"])):
            for collect_obs in (False, True):
                task = RunTask(scenario=scenario, replicate=replicate, seed=seed,
                               base_scenario=base_scenario, collect_obs=collect_obs,
                               slo_spec=slo_spec)
                payload = json.dumps(
                    {
                        "scenario": scenario.to_dict(),
                        "base_scenario": base_scenario or scenario.name,
                        "replicate": replicate,
                        "seed": seed,
                        "collect_obs": collect_obs,
                        "slo_spec": slo_spec,
                    },
                    sort_keys=True,
                )
                expected = f"{scenario.name}:r{replicate}:{stable_fingerprint(payload)}"
                assert unit_key(task) == expected

    def test_replicates_of_a_variant_encode_their_scenario_once(self, monkeypatch):
        (spec,) = resolve_scenarios(["baseline-dynamic"])
        spec = spec.with_scale("tiny")  # a fresh object: nothing cached yet
        calls = []
        original = ScenarioSpec.to_dict
        monkeypatch.setattr(
            ScenarioSpec, "to_dict", lambda self: calls.append(self) or original(self)
        )
        tasks = [
            RunTask(scenario=spec, replicate=r, seed=r, base_scenario=spec.name)
            for r in range(50)
        ]
        keys = {unit_key(task) for task in tasks}
        grant = grant_message((unit_key(task), task) for task in tasks)
        assert len(keys) == 50
        assert len(calls) == 1
        ((text, *_variant),) = grant["variants"]
        assert text is spec.canonical_json
        assert {variant for _key, variant, _replicate, _seed in grant["units"]} == {0}

    def test_a_worker_rebuilds_each_distinct_scenario_once(self):
        first, second = (make_task(replicate=r) for r in (0, 1))
        other = make_task(scenario="strict-equipartition")
        rebuilt = wire_round_trip(first, second, other)
        assert rebuilt == [first, second, other]
        assert rebuilt[0].scenario is rebuilt[1].scenario
        assert rebuilt[2].scenario is not rebuilt[0].scenario

    def test_the_cached_text_is_invisible_to_equality_and_replace(self):
        (spec,) = resolve_scenarios(["baseline-dynamic"])
        twin = ScenarioSpec.from_dict(spec.to_dict())
        assert spec.canonical_json == json.dumps(spec.to_dict(), sort_keys=True)
        assert twin == spec and "canonical_json" not in twin.to_dict()
        (renamed,) = spec.expand(policies=["easy"])
        assert renamed.canonical_json != spec.canonical_json
