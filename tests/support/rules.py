"""The paper's rules over every built-in run.

``repro.obs.invariants`` states the rules.  Run as a script, this module
runs every built-in scenario -- every point of a sweep -- under every policy
it accepts and every fault plan that fits its members (``cluster0`` alone
without a federation) at ``derive_seed(0, name, 0)``, prints the kill
findings of each run, and exits 1 if the checker reports anything else:

    PYTHONPATH=src:tests python tests/support/rules.py
"""
from __future__ import annotations

import dataclasses
import sys

from repro.campaign import builtin  # noqa: F401  (registers the scenarios)
from repro.campaign.registry import builtin_scenarios, run_sweep
from repro.core import CooRMv2
from repro.core.errors import SpecError
from repro.faults.plan import FAULT_PLANS
from repro.obs.invariants import violations
from repro.policies import POLICIES
from repro.sim.randomness import derive_seed
from support.protocol import breaches


def runs():
    """``(label, spec)`` per built-in x accepted policy x fitting fault plan."""
    for name, spec in builtin_scenarios().items():
        plans = [spec.faults] + [p for p in FAULT_PLANS.names() if p != spec.faults]
        for policy in (None, *POLICIES.names()):
            for plan in plans:
                try:
                    variant = dataclasses.replace(spec, policy=policy, faults=plan)
                except SpecError:  # strict vs filling policy, a member the plan
                    continue  # lacks, or a policy or plan on an analytic figure runner
                yield f"{name} {policy or '-'} {plan or '-'}", variant


def main() -> int:
    built = []
    init = CooRMv2.__init__

    def collecting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    CooRMv2.__init__ = collecting
    count = failed = 0
    for label, spec in runs():
        built.clear()
        run_sweep(spec, derive_seed(0, spec.name, 0))
        count += 1
        found = [v for rms in built for v in breaches(rms.event_log)]
        kills = sum(len(list(violations(rms.event_log))) for rms in built) - len(found)
        print(f"{label:48} kill findings {kills:2}  other {len(found)}")
        for violation in found:
            print(f"  {violation}")
        failed += bool(found)
    print(f"{count} runs, {failed} with a violation besides the kill finding")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
