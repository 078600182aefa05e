"""Regenerate the golden regression fixtures under ``tests/data/golden/``.

The fixtures pin the summary metrics of every figure scenario (fig1 ... fig11)
at the campaign's canonical seed (``derive_seed(0, name, 0)``, i.e. what
``python -m repro campaign run --scenarios figN`` produces for replicate 0):
``metrics`` for a single run, ``points`` (variant name -> metrics) for a
sweep such as fig9.
``tests/regression/test_golden_experiments.py`` compares fresh runs against
them, so any refactor that silently changes the paper outputs fails loudly.

Run this script ONLY after verifying that a behaviour change is intentional::

    PYTHONPATH=src python tests/regression/generate_golden.py

and commit the updated fixtures together with the change that explains them.
"""
from __future__ import annotations

import json
from pathlib import Path

from repro.campaign import builtin  # noqa: F401  (registers the scenarios)
from repro.campaign.registry import builtin_scenarios, run_sweep
from repro.sim.randomness import derive_seed

#: The scenarios locked down by the golden fixtures: the paper figures, the
#: single-cluster federation (whose metrics must stay byte-identical to the
#: direct scheduler path -- see tests/regression/test_federation_equivalence.py)
#: and the fault-injected chaos scenarios (pinning the deterministic
#: crash/outage/respawn/recovery machinery end to end).
GOLDEN_SCENARIOS = (
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig9",
    "fig10",
    "fig11",
    "fed-single",
    "fed-chaos-dual",
    "fed-chaos-blackout",
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "data" / "golden"


def golden_record(name: str) -> dict:
    """Execute one figure scenario at its canonical campaign seed."""
    spec = builtin_scenarios()[name]
    seed = derive_seed(0, name, 0)
    points = run_sweep(spec, seed)
    record = {"scenario": name, "runner": spec.runner, "scale": spec.scale, "seed": seed}
    if spec.axes:
        record["points"] = {variant.name: metrics for variant, metrics in points}
    else:
        ((_spec, record["metrics"]),) = points
    return record


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in GOLDEN_SCENARIOS:
        record = golden_record(name)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(
            json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
