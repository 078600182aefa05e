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
:func:`grant_tasks` -- carries each distinct variant (scenario text, base
scenario, obs flag, trace directory, SLO spec) once, then one row per unit.
What comes back is a run's outcome, which :func:`unit_record` makes a row.
"""
from __future__ import annotations

import json
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Tuple

from ..sim.randomness import stable_fingerprint

__all__ = ["OUTCOME_KEYS", "unit_key", "unit_record", "grant_message", "grant_tasks"]

#: What a run's outcome may carry: all it adds to the task's columns.
OUTCOME_KEYS = ("metrics", "provenance", "obs", "_phase_seconds", "slo")


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


def unit_record(task, key: str, outcome: Mapping) -> Dict:
    """The store row of *task*: its columns, its *key* and the
    :data:`OUTCOME_KEYS` of what its run computed -- built here for the
    serial loop and the coordinator alike, never by a worker."""
    scenario = task.scenario
    record = {
        "scenario": scenario.name,
        "base_scenario": task.base_scenario or scenario.name,
        "policy": scenario.policy_name,
        # Federation columns: empty strings on the single-cluster path, so
        # federated and classic records stay byte-stable side by side.
        "routing": scenario.routing_name,
        "topology": scenario.topology_label,
        "replicate": task.replicate,
        "seed": task.seed,
        "runner": scenario.runner,
        "scale": scenario.scale,
        # What --resume and the coordinator deduplicate against.
        "unit": key,
    }
    record.update((name, outcome[name]) for name in OUTCOME_KEYS if name in outcome)
    return record


def grant_message(units: Iterable[Tuple[str, object]]) -> Dict:
    """The JSON-safe ``grant`` of *units*, ``(key, RunTask)`` pairs."""
    variants: Dict[tuple, int] = {}
    rows = []
    for key, task in units:
        variant = (task.scenario.canonical_json, task.base_scenario,
                   bool(task.collect_obs), task.trace_dir, task.slo_spec)
        rows.append([key, variants.setdefault(variant, len(variants)),
                     task.replicate, task.seed])
    return {"op": "grant", "variants": list(variants), "units": rows}


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

    variants = message["variants"]
    tasks = []
    for key, index, replicate, seed in message["units"]:
        try:
            # The scenario text, then the other RunTask fields after the seed.
            text, *columns = variants[index]
            task = RunTask(_scenario_from_json(text), int(replicate), int(seed), *columns)
        except Exception as exc:  # noqa: BLE001 - the unit's own failure
            task = exc
        tasks.append((str(key), task))
    return tasks
