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
from .._lazy import lazy_exports

# The engine, the RMS and the scheduler reach ``hooks`` on every run; the
# instruments and analytics are imported when something asks for them.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".hooks": ("TRACER", "METRICS", "PROFILER", "observation_enabled", "observe"),
        ".tracer": ("EventTracer", "TraceEvent", "diff_events", "load_jsonl", "load_chrome"),
        ".metrics": ("MetricsRegistry", "Histogram"),
        ".profiler": ("PhaseProfiler",),
        ".timeline": ("Timeline", "TimelineBuilder"),
        ".lifecycle": ("JobAudit", "build_audits", "summarize_audits"),
        ".slo": ("SLOSpec", "SLOReport", "DEFAULT_SLO", "evaluate_slo"),
        ".logsetup": ("logging_setup", "get_logger"),
    },
)
