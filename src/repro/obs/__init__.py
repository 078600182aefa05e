"""Observability: deterministic tracing, metrics and wall-clock profiling.

The three pillars, all **zero-cost when disabled** (instrumented code takes
its plain path unless an instrument is activated with
:func:`~repro.obs.hooks.observe`):

* :class:`EventTracer` -- sim-time structured tracing of engine event
  dispatch, scheduler decisions (ordering, fits, reservations, sharing) and
  federation routing; exports deterministically to JSONL and Chrome
  ``trace_event`` JSON (``chrome://tracing`` / Perfetto).
* :class:`MetricsRegistry` -- deterministic counters/gauges/histograms per
  run, flowing into campaign result rows and ``campaign report``.
* :class:`PhaseProfiler` -- wall-clock phase timers (trace ingest,
  scheduling, event dispatch, store writes) feeding campaign ``meta.json``.

On top of the instruments sits the **analytics layer**, pure functions of a
recorded trace (hence byte-identical at any worker count):

* :class:`TimelineBuilder` -- sim-time series (utilization, queue depth,
  running/waiting job counts, federation load) sampled on a fixed grid.
* :func:`build_audits` -- per-job lifecycle audits (queue wait, slowdown,
  grow/shrink counts, wait breakdown by scheduler stage).
* :class:`SLOSpec` / :func:`evaluate_slo` -- declarative service-level
  objectives evaluated per run and aggregated by ``campaign report``.

:mod:`repro.obs.invariants` checks the paper's guarantees against an RMS's
event log; tests and CI call it, no run does.

``python -m repro obs`` (see :mod:`repro.obs.cli`) fronts all of it:
``export`` / ``summarize`` / ``timeline`` / ``audit`` / ``slo`` /
``report`` / ``diff``.  :func:`logging_setup` is the shared CLI logging
configuration every command group uses.  Wall-clock performance is measured
by ``benchmarks/ledger/run.py``, not here.
"""
from .hooks import METRICS, PROFILER, TRACER, observation_enabled, observe

#: Submodule -> the names re-exported from it, imported on first use.
_LAZY = {
    "lifecycle": ("JobAudit", "build_audits", "summarize_audits"),
    "logsetup": ("get_logger", "logging_setup"),
    "metrics": ("Histogram", "MetricsRegistry"),
    "profiler": ("PhaseProfiler",),
    "slo": ("DEFAULT_SLO", "SLOReport", "SLOSpec", "evaluate_slo"),
    "timeline": ("Timeline", "TimelineBuilder"),
    "tracer": ("EventTracer", "TraceEvent", "diff_events", "load_chrome", "load_jsonl"),
}


def __getattr__(name: str):
    # The engine, the RMS and the scheduler reach ``hooks`` through this
    # package on every ``import repro``; the instruments and analytics are
    # imported when something asks for them (PEP 562, as in ``repro``).
    for module, names in _LAZY.items():
        if name in names:
            import importlib

            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "TRACER",
    "METRICS",
    "PROFILER",
    "observation_enabled",
    "observe",
    "EventTracer",
    "TraceEvent",
    "diff_events",
    "load_jsonl",
    "load_chrome",
    "MetricsRegistry",
    "Histogram",
    "PhaseProfiler",
    "Timeline",
    "TimelineBuilder",
    "JobAudit",
    "build_audits",
    "summarize_audits",
    "SLOSpec",
    "SLOReport",
    "DEFAULT_SLO",
    "evaluate_slo",
    "logging_setup",
    "get_logger",
]
