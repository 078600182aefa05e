"""The wire format and the idempotency keys must not move.

``tests/data/golden/wire_keys.json`` pins, for every built-in scenario plus
one policy-matrix and one routing-matrix variant, the digest of
:attr:`ScenarioSpec.canonical_json` (what the dist tier ships) and the unit
key of replicate 0 (what ``--resume`` deduplicates against).  A refactor of
the spec classes that changes either silently orphans every stored row.
"""
from __future__ import annotations

import json

from tests.regression.generate_wire_golden import GOLDEN_PATH, wire_keys


def test_wire_keys_are_unchanged() -> None:
    assert wire_keys() == json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
