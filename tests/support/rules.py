"""The paper's rules over every built-in run.

``repro.obs.invariants`` states the rules.  Run as a script, this module
runs every built-in scenario under every policy it accepts (and, on a
federation, every fault plan that fits its members) at
``derive_seed(0, name, 0)``, prints the kill findings of each run, and
exits 1 if the checker reports anything else:

    PYTHONPATH=src:tests python tests/support/rules.py
"""
from __future__ import annotations

import dataclasses
import sys

from repro.campaign.builtin import POLICY_AWARE_RUNNERS  # (registers the scenarios)
from repro.campaign.registry import builtin_scenarios, consume_provenance, get_runner
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
        plans = [spec.faults]
        if spec.federation is not None:
            plans += [p for p in FAULT_PLANS.names() if p != spec.faults]
        for policy in (None, *POLICIES.names()):
            if spec.runner not in POLICY_AWARE_RUNNERS and policy not in (None, "coorm"):
                continue  # a figure runner reproduces the paper's policy only
            for plan in plans:
                try:
                    variant = dataclasses.replace(spec, policy=policy, faults=plan)
                except SpecError:  # strict vs filling policy, or a member the plan lacks
                    continue
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
        get_runner(spec.runner)(spec, derive_seed(0, spec.name, 0))
        consume_provenance()
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
