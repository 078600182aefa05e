"""The spec layer: what the ledger's set-up processes do, and nothing more.

Writes a ``CampaignSpec`` of a ``dist-noop`` scenario, draws an SWF trace
from the built-in trace model and dumps it, and draws an AMR evolution --
the three set-up paths of ``benchmarks/ledger/workloads.py``.  None of them
simulates, so none may load the scheduler, the RMS, the applications,
federation placement, fault injection or the dist transports
(``tests/regression/test_import_footprint.py`` pins that).  Run as a
script, into a directory it creates::

    PYTHONPATH=src python -X importtime tests/support/spec_layer.py OUT_DIR
"""
from __future__ import annotations

import sys
from pathlib import Path

from repro.campaign import CampaignSpec, ScenarioSpec
from repro.campaign.builtin import TRACE_SCENARIO_MODEL
from repro.dist import ensure_noop_runner
from repro.experiments.runner import EvaluationScale, build_evolution
from repro.traces import TraceModel, dump_swf


def set_up(out: Path) -> int:
    """Write the three inputs into *out*; returns the evolution's step count."""
    out.mkdir(parents=True, exist_ok=True)
    CampaignSpec(
        name="noop",
        scenarios=(ScenarioSpec(name="noop", runner=ensure_noop_runner()),),
        seeds=3,
    ).save(out / "campaign.json")
    trace = TraceModel.from_dict(TRACE_SCENARIO_MODEL).synthesize(20, seed=1)
    dump_swf(trace, out / "trace.swf")
    return build_evolution(EvaluationScale.tiny(), seed=1).num_steps


if __name__ == "__main__":
    set_up(Path(sys.argv[1]))
