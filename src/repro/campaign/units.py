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

All replicates of a variant share one frozen scenario object and differ
only in replicate and seed, so the key splices those two integers into a
text built once per variant, and the wire form -- a ``grant`` message (see
:mod:`repro.dist.worker`), encoded by :func:`grant_message` and read by
:func:`grant_tasks` -- carries each distinct scenario text
(:attr:`ScenarioSpec.canonical_json`) once; its units name theirs by index.
"""
from __future__ import annotations

import json
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Tuple

from ..sim.randomness import stable_fingerprint

__all__ = ["unit_key", "grant_message", "grant_tasks"]


@lru_cache(maxsize=256)
def _key_frame(base_scenario: str, collect_obs: bool, scenario_json: str, slo_spec: str):
    """The key payload of a variant -- the key-sorted JSON object of the six
    components -- cut where replicate and seed go (around "scenario")."""
    head = json.dumps({"base_scenario": base_scenario, "collect_obs": collect_obs,
                       "replicate": 0})
    tail = json.dumps({"slo_spec": slo_spec})
    return head[:-2], f', "scenario": {scenario_json}, "seed": ', f", {tail[1:]}"


def unit_key(task) -> str:
    """The idempotency key of one run task (see module docstring).

    The readable prefix (scenario name + replicate) makes store rows and
    coordinator logs greppable; the fingerprint suffix is what guarantees
    uniqueness across specs that share a name.
    """
    scenario = task.scenario
    head, middle, tail = _key_frame(
        task.base_scenario or scenario.name,
        bool(task.collect_obs),
        scenario.canonical_json,
        task.slo_spec or "",
    )
    payload = f"{head}{int(task.replicate)}{middle}{int(task.seed)}{tail}"
    return f"{scenario.name}:r{task.replicate}:{stable_fingerprint(payload)}"


def grant_message(units: Iterable[Tuple[str, object]]) -> Dict:
    """The JSON-safe ``grant`` of *units*, ``(key, RunTask)`` pairs."""
    scenarios: Dict[str, int] = {}
    wire = []
    for key, task in units:
        text = task.scenario.canonical_json
        wire.append({"key": key, "task": {
            "scenario": scenarios.setdefault(text, len(scenarios)),
            "replicate": task.replicate,
            "seed": task.seed,
            "base_scenario": task.base_scenario,
            "collect_obs": bool(task.collect_obs),
            "trace_dir": task.trace_dir,
            "slo_spec": task.slo_spec,
        }})
    return {"op": "grant", "scenarios": list(scenarios), "units": wire}


@lru_cache(maxsize=64)
def _scenario_from_json(text: str):
    """The (frozen, hence shareable) scenario of one wire text."""
    from .spec import ScenarioSpec

    return ScenarioSpec.from_dict(json.loads(text))


def grant_tasks(message: Mapping) -> List[Tuple[str, object]]:
    """The ``(key, RunTask)`` pairs a ``grant`` carries, in order.

    A task that cannot be rebuilt is returned as its exception, so that
    unit fails on its own and the rest of the grant still runs.  Imported
    lazily to keep this module free of a circular dependency on the runner
    (which imports :func:`unit_key` for its result records).
    """
    from .runner import RunTask

    scenarios = message["scenarios"]
    tasks = []
    for unit in message["units"]:
        try:
            data = unit["task"]
            task = RunTask(
                scenario=_scenario_from_json(scenarios[data["scenario"]]),
                replicate=int(data["replicate"]),
                seed=int(data["seed"]),
                base_scenario=str(data.get("base_scenario", "")),
                collect_obs=bool(data.get("collect_obs", False)),
                trace_dir=str(data.get("trace_dir", "")),
                slo_spec=str(data.get("slo_spec", "")),
            )
        except Exception as exc:  # noqa: BLE001 - the unit's own failure
            task = exc
        tasks.append((str(unit["key"]), task))
    return tasks
