"""Workload traces: real SWF ingestion, statistical models, transformations.

This subsystem is the layer between raw workload data and the simulator:

* :mod:`repro.traces.swf` -- the full 18-field Standard Workload Format of
  the Parallel Workloads Archive, with ``;`` header directives, gzip
  support and strict/lenient parsing;
* :mod:`repro.traces.models` -- statistical arrival/duration/node-count
  models that synthesize arbitrarily large traces from fitted parameters;
* :mod:`repro.traces.transform` -- a composable transformation pipeline
  (filter, time window, load rescale, node clamp, shift) with provenance
  recorded on every trace;
* :mod:`repro.traces.convert` -- conversion of rigid trace records into
  mixes of rigid/moldable/malleable/evolving applications;
* :mod:`repro.traces.source` -- declarative trace sources
  (:class:`TraceSource`) resolved deterministically for campaign scenarios;
* :mod:`repro.traces.cli` -- the ``python -m repro trace`` command group.

Quick start::

    from repro.traces import TraceModel, load_swf

    trace = load_swf("KTH-SP2-1996-2.1-cln.swf.gz", strict=False)
    model = TraceModel.fit(trace)
    synthetic = model.synthesize(10_000, seed=42)
"""
from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".convert": (
            "APP_KINDS", "AdaptiveMix", "ConvertedJob", "build_application", "convert_trace",
            "mix_counts", "replay_horizon",
        ),
        ".models": (
            "DailyCycleArrivals", "LogNormalDuration", "LogUniformDuration", "LogUniformNodes",
            "PoissonArrivals", "TraceModel", "model_from_dict",
        ),
        ".source": ("TraceSource", "resolve_converted_jobs", "resolve_trace"),
        ".swf": (
            "SWF_FIELDS", "SwfHeader", "SwfJob", "Trace", "dump_swf", "dumps_swf", "load_swf",
            "loads_swf",
        ),
        ".transform": (
            "ClampNodes", "FilterJobs", "LoadRescale", "Pipeline", "ShiftToZero", "TimeWindow",
            "transform_from_dict",
        ),
    },
)
