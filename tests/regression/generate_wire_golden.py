"""Regenerate the wire golden ``tests/data/golden/wire_keys.json``.

The fixture pins what a refactor of the spec classes must never move: the
bytes of :attr:`ScenarioSpec.canonical_json` (the dist wire format) and the
idempotency key of replicate 0 (what ``--resume`` deduplicates against), for
every variant of every built-in scenario (a sweep such as fig9 has one per
point) plus one policy-matrix (``@easy``) and one routing-matrix
(``+least-loaded``) variant.
``tests/regression/test_wire_golden.py`` compares fresh values against it.

Run this script ONLY when the wire format is changed on purpose::

    PYTHONPATH=src python tests/regression/generate_wire_golden.py
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.campaign import builtin  # noqa: F401  (registers the scenarios)
from repro.campaign.registry import builtin_scenarios
from repro.campaign.runner import RunTask
from repro.campaign.units import unit_key
from repro.sim.randomness import derive_seed

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "golden" / "wire_keys.json"
)


def wire_keys() -> dict:
    """Scenario name -> canonical-JSON digest and replicate-0 unit key."""
    scenarios = builtin_scenarios()
    variants = [(v, name) for name, spec in scenarios.items() for v in spec.expand()]
    variants += [(v, "trace-replay") for v in scenarios["trace-replay"].expand(["easy"])]
    variants += [
        (v, "fed-dual-trace")
        for v in scenarios["fed-dual-trace"].expand(routings=["least-loaded"])
    ]
    keys = {}
    for spec, base in variants:
        task = RunTask(
            scenario=spec,
            replicate=0,
            seed=derive_seed(0, base, 0),
            base_scenario=base,
        )
        keys[spec.name] = {
            "canonical_json_sha256": hashlib.sha256(
                spec.canonical_json.encode("utf-8")
            ).hexdigest(),
            "unit_key": unit_key(task),
        }
    return keys


def main() -> None:
    keys = wire_keys()
    GOLDEN_PATH.write_text(
        json.dumps(keys, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH} ({len(keys)} scenarios)")


if __name__ == "__main__":
    main()
