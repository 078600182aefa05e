"""One record stream: the RMS's trace and counters are its event log, formatted.

``CooRMv2`` records each protocol message once, in ``event_log``; under
observation ``ProtocolFormatter`` turns the record into the ``rms`` trace
events and the ``rms.*`` counters.  These tests give every RMS built while
they run a second formatter of its own, fed from the log as each record is
logged.  Its tracer must end up holding the ``rms`` events of the run -- all
of them but ``rms/platform``, a setting that is no message -- in order, and
its registry the same counters: nothing reaches the trace around the log,
and nothing in the log is left out of it.

The log is also the RMS's account of a run: a started ``RequestFinished``
carries the ``nodes``, ``cluster_id`` and ``started_at`` that the metrics,
the federation breakdown and fair-share's ``used_node_seconds`` are summed
from, and ``test_the_log_balances`` checks, with ``repro.obs.invariants``,
that it can carry that weight.
"""
from __future__ import annotations

import dataclasses
import math

import pytest
from support.protocol import NP, P, PA, ProtocolMachine

from repro.campaign import builtin  # noqa: F401  (registers the scenarios)
from repro.campaign.registry import builtin_scenarios, run_sweep
from repro.core import CooRMv2
from repro.core.events import (
    CapacityChanged,
    Connected,
    Disconnected,
    ProtocolFormatter,
    RequestFinished,
    RequestStarted,
    RequestSubmitted,
    SessionKilled,
)
from repro.metrics.collector import allocations
from repro.obs import EventTracer, MetricsRegistry, observe
from repro.obs.invariants import violations
from repro.sim.randomness import derive_seed

#: Trace event name -> the record kind it is formatted from.
_NAMES = {
    "connect": Connected, "disconnect": Disconnected, "kill": SessionKilled,
    "submit": RequestSubmitted, "finish": RequestFinished, "start": RequestStarted,
    "capacity": CapacityChanged,
}
_COUNTERS = ("rms.requests_submitted", "rms.requests_finished", "rms.views_pushed")


@pytest.fixture
def shadows(monkeypatch):
    """``(rms, tracer, registry)`` per RMS built: a formatter of its own fed
    from ``event_log.record``."""
    built = []
    init = CooRMv2.__init__

    def shadowing_init(self, platform, *args, **kwargs):
        init(self, platform, *args, **kwargs)
        tracer, registry, format_ = EventTracer(), MetricsRegistry(), ProtocolFormatter(platform)
        record = self.event_log.record

        def record_and_format(event):
            record(event)
            format_(event, tracer, registry)

        self.event_log.record = record_and_format
        built.append((self, tracer, registry))

    monkeypatch.setattr(CooRMv2, "__init__", shadowing_init)
    return built


def _messages(tracer):
    return [
        (e.ts, e.name, e.ph, dict(e.args))
        for e in tracer.events if e.cat == "rms" and e.name != "platform"
    ]


def assert_one_stream(tracer, shadows, metrics=None):
    """The run's ``rms`` trace is its RMSs' logs, formatted in order."""
    expected = [message for _, shadow, _ in shadows for message in _messages(shadow)]
    assert _messages(tracer) == expected
    for rms, shadow, registry in shadows:
        # Independently of any formatter: one trace event per record of its
        # kind, and an ``allocated`` sample after each record that moves nodes.
        names = [e.name for e in shadow.events]
        for name, kind in _NAMES.items():
            assert names.count(name) == len(rms.event_log.of_kind(kind)), name
        moving = [
            e for e in rms.event_log
            if isinstance(e, (SessionKilled, RequestFinished, CapacityChanged))
            or (isinstance(e, RequestStarted) and e.rtype != PA.value)
        ]
        assert names.count("allocated") == len(moving)
    if metrics is not None:
        for name in _COUNTERS:
            assert metrics.counter(name) == sum(r.counter(name) for _, _, r in shadows), name


def test_fig9_trace_is_its_event_log_formatted(shadows):
    spec = builtin_scenarios()["fig9"]
    tracer, metrics = EventTracer(), MetricsRegistry()
    with observe(tracer=tracer, metrics=metrics):
        run_sweep(spec, derive_seed(0, "fig9", 0))
    assert shadows and metrics.counter("rms.views_pushed") > 0
    assert_one_stream(tracer, shadows, metrics)


class _TracedMachine(ProtocolMachine):
    traced = True


def test_kills_disconnects_and_capacity_changes_are_one_stream(shadows):
    machine = _TracedMachine.started()
    machine.steps(
        ("submit", "a", "cluster0", 4, math.inf, NP),
        ("submit", "b", "cluster0", 6, 100.0, P),
        ("submit", "b", "cluster1", 2, math.inf, PA),
        ("submit", "c", "cluster1", 3, 2.5, NP),
        ("advance", 1.0),
        ("submit", "b", "cluster0", 2, math.inf, NP),  # open when "b" leaves
        ("kill", "a"),
        ("advance", 1.0),
        ("disconnect", "b"),
        ("set_capacity", 0),
        ("advance", 1.0),
        ("set_capacity", 16),
        ("connect", "d"),
        ("submit", "d", "cluster0", 5, 30.0, NP),
        ("advance", 2.5),  # "c" expires (cluster1 keeps its size)
        ("release_capacity", 4),
        ("done", 5, 0),
        ("advance", 1.0),
    )
    world = machine.worlds[0]
    log = world.rms.event_log
    assert log.of_kind(SessionKilled) and log.of_kind(Disconnected)
    assert any(e.app_id == "b" and not e.started for e in log.of_kind(RequestFinished))
    assert any(e.expired for e in log.of_kind(RequestFinished))
    assert [e.node_count for e in log.of_kind(CapacityChanged)] == [0, 16, 12]
    assert_one_stream(world.tracer, shadows)


@pytest.mark.parametrize("name, policy", [
    ("fig9", None), ("fed-chaos-dual", None), ("trace-adaptive", "fair-share"),
])
def test_the_log_balances(shadows, request, name, policy):
    """The invariant checker finds nothing in any RMS's log (every start ends
    exactly once, recording what it started on), and the running usage is
    the log's (``==`` on floats).  ``fed-chaos-dual`` kills sessions through
    ``set_capacity``."""
    spec = dataclasses.replace(builtin_scenarios()[name], policy=policy)
    run_sweep(spec, derive_seed(0, name, 0))
    for rms, _, _ in shadows:
        usage = {}
        for finished in allocations(rms):
            usage[finished.app_id] = usage.get(finished.app_id, 0.0) + finished.node_seconds
        assert rms.used_node_seconds == usage
    if name == "fed-chaos-dual":
        request.applymarker(pytest.mark.xfail(strict=True, reason=(
            "CooRMv2.kill ends a killed session's started requests without a "
            "RequestFinished record, so what they used is in no account"
        )))
    assert not [v for rms, _, _ in shadows for v in violations(rms.event_log)]
