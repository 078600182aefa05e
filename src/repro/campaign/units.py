"""Campaign run units: wire format and idempotency keys.

A *run unit* is the serialisable form of one :class:`~repro.campaign.runner.
RunTask` -- the currency the distributed execution tier (:mod:`repro.dist`)
ships between coordinator and workers, and the thing ``campaign run
--resume`` deduplicates against the result store.

The **idempotency key** of a unit is a pure function of everything that
determines the bytes of its result-store row:

* the fully-expanded scenario specification (which embeds the scheduling
  policy, the federation routing/topology, the fault plan and the
  *declarative* workload provenance -- trace path, statistical model and
  transformation chain);
* the replicate index and the run seed (itself
  :func:`~repro.sim.randomness.derive_seed` of the campaign root seed and
  the base scenario name);
* the observation configuration that changes row content (``--obs`` adds an
  ``obs`` field, ``--slo`` an ``slo`` field).

Because the key is a :func:`~repro.sim.randomness.stable_fingerprint`
(SHA-256) of a canonical JSON payload, it is identical across processes,
machines and Python versions: a replayed or duplicate-delivered unit maps to
the same key everywhere, which is what makes retries and resume no-ops.

All replicates of a variant share one frozen scenario object, so both the
key and the wire form take the scenario as its cached canonical JSON *text*
(:attr:`ScenarioSpec.canonical_json`): a campaign encodes each distinct
scenario once, and a worker parses each distinct text once.
"""
from __future__ import annotations

import json
from functools import lru_cache
from typing import Dict, Mapping

from ..sim.randomness import stable_fingerprint

__all__ = ["unit_key", "task_to_dict", "task_from_dict"]


def unit_key(task) -> str:
    """The idempotency key of one run task (see module docstring).

    The readable prefix (scenario name + replicate) makes store rows and
    coordinator logs greppable; the fingerprint suffix is what guarantees
    uniqueness across specs that share a name.
    """
    scenario = task.scenario
    # The fingerprinted payload is the key-sorted JSON object of the six
    # components; "scenario" sorts between "replicate" and "seed", so the
    # cached scenario text is spliced in between the two encoded halves.
    head = json.dumps(
        {
            "base_scenario": task.base_scenario or scenario.name,
            "collect_obs": bool(task.collect_obs),
            "replicate": task.replicate,
        }
    )
    tail = json.dumps({"seed": task.seed, "slo_spec": task.slo_spec or ""})
    payload = f'{head[:-1]}, "scenario": {scenario.canonical_json}, {tail[1:]}'
    return f"{scenario.name}:r{task.replicate}:{stable_fingerprint(payload)}"


def task_to_dict(task) -> Dict:
    """JSON-safe wire form of a :class:`~repro.campaign.runner.RunTask`.

    ``scenario`` travels as canonical JSON text: immutable, so the units of
    a campaign can share it, and cheap to compare on the receiving side.
    """
    return {
        "scenario": task.scenario.canonical_json,
        "replicate": task.replicate,
        "seed": task.seed,
        "base_scenario": task.base_scenario,
        "collect_obs": bool(task.collect_obs),
        "trace_dir": task.trace_dir,
        "slo_spec": task.slo_spec,
    }


@lru_cache(maxsize=64)
def _scenario_from_json(text: str):
    """The (frozen, hence shareable) scenario of one wire text."""
    from .spec import ScenarioSpec

    return ScenarioSpec.from_dict(json.loads(text))


def task_from_dict(data: Mapping):
    """Rebuild a :class:`~repro.campaign.runner.RunTask` from its wire form.

    Imported lazily to keep this module free of a circular dependency on the
    runner (which imports :func:`unit_key` for its result records).
    """
    from .runner import RunTask

    return RunTask(
        scenario=_scenario_from_json(data["scenario"]),
        replicate=int(data["replicate"]),
        seed=int(data["seed"]),
        base_scenario=str(data.get("base_scenario", "")),
        collect_obs=bool(data.get("collect_obs", False)),
        trace_dir=str(data.get("trace_dir", "")),
        slo_spec=str(data.get("slo_spec", "")),
    )
