"""The protocol machine's invariants, on their own, against two known bugs.

``ProtocolMachine`` with no reference checks every script against the rules
of ``World.assert_invariants`` only.  It must be silent on ``CooRMv2`` and
must find, within a fixed budget of derandomised examples and without any
reference RMS, the two RMS bugs that earlier differential suites caught only
by hand-pinned scripts:

- a ``kill`` that leaves ``node_ids`` bound to the killed requests, so a
  ``NEXT`` child submitted under the re-connected id inherits nodes that are
  free or bound elsewhere by now;
- the previous chain walk (``ReferenceCooRMv2._next_chain_ancestors``): it
  gives up after 64 hops, stranding the nodes the top of a long run of
  unserved updates retains, and it climbs past a served request in a forked
  chain.

Both trip *nothing stranded* first: a killed request, or the top of the long
run, keeps nodes that no start can take over any more.
"""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis.stateful import run_state_machine_as_test
from support.protocol import ProtocolMachine
from test_rms_chain_equivalence import ReferenceCooRMv2

from repro.core import CooRMv2
from repro.core.events import SessionKilled

TestProtocolMachine = ProtocolMachine.TestCase
TestProtocolMachine.settings = settings(max_examples=200, stateful_step_count=30, deadline=None)


def _kill_leaving_node_ids_bound(self, app_id, reason):
    """``CooRMv2.kill`` without its unbind loop."""
    session = self._session(app_id)
    for request in session.requests.all_requests():
        if not request.finished():
            request.mark_finished(self.now)
            self._cancel_expiry(request)
    self.platform.release_all_of(app_id)
    session.kill(reason)
    del self._live[app_id]
    self.event_log.record(SessionKilled(self.now, app_id, reason=reason))
    session.application.on_killed(reason)
    self._trigger_schedule()


#: Per mutant: what it replaces, the invariant it must trip, and the most
#: derandomised examples it may take.  With hypothesis 6.155 it took 8-12 and
#: 94-151: the draws shift with the hypothesis tests run before it in the
#: same process.
_MUTANTS = {
    "kill-leaves-node-ids-bound": ("kill", _kill_leaving_node_ids_bound, "stranded", 25),
    "previous-chain-walk": (
        "_next_chain_ancestors", staticmethod(ReferenceCooRMv2._next_chain_ancestors),
        "stranded", 250,
    ),
}


@pytest.mark.parametrize("mutant", sorted(_MUTANTS))
def test_the_invariants_alone_find_a_reintroduced_bug(monkeypatch, mutant):
    attribute, replacement, invariant, found_after = _MUTANTS[mutant]
    monkeypatch.setattr(CooRMv2, attribute, replacement)
    examples = []

    class Counting(ProtocolMachine):
        def __init__(self):
            super().__init__()
            examples.append(self)

    budget = settings(
        max_examples=1000, stateful_step_count=30, deadline=None, derandomize=True,
        database=None, phases=[Phase.generate], suppress_health_check=list(HealthCheck),
    )
    with pytest.raises(AssertionError, match=invariant):
        run_state_machine_as_test(Counting, settings=budget)
    assert len(examples) <= found_after
