"""Process-global observation slots and the ``observe()`` context manager.

The observability subsystem is **zero-cost when disabled**: instrumented
code (the simulation engine, the scheduler, the federation meta-scheduler)
consults three module-level one-element lists -- :data:`TRACER`,
:data:`METRICS` and :data:`PROFILER` -- and takes its plain, uninstrumented
path whenever the relevant slot holds ``None``.  A one-element list (rather
than a bare module attribute) lets the hot path cache the *cell* once and
pay a single index + identity test per check, and lets :func:`observe`
swap the active instruments without rebinding module globals.  The RMS's
protocol records check one more slot, :data:`SINK`, which :func:`observe`
keeps at ``(tracer, metrics)`` while either of them is active.

Exactly one observation is active per process at a time (campaign workers
execute one run at a time, so a single slot per process is race-free --
the same argument :mod:`repro.campaign.registry` makes for provenance).
Nesting :func:`observe` replaces the active instruments for the inner block
and restores the outer ones afterwards.

This module must stay import-light: the simulation engine imports it, so it
must never import :mod:`repro.sim`, :mod:`repro.core` or anything above
them.  Importing it runs ``repro/obs/__init__.py`` first, which is why that
file re-exports the instruments and analytics lazily: ``import repro`` loads
``repro.obs`` and this module, none of the other ``repro.obs.*``.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Tuple

__all__ = ["TRACER", "METRICS", "PROFILER", "SINK", "observation_enabled", "observe"]

#: Active :class:`~repro.obs.tracer.EventTracer`, or ``None`` (disabled).
TRACER: List[Optional[object]] = [None]
#: Active :class:`~repro.obs.metrics.MetricsRegistry`, or ``None``.
METRICS: List[Optional[object]] = [None]
#: Active :class:`~repro.obs.profiler.PhaseProfiler`, or ``None``.
PROFILER: List[Optional[object]] = [None]
#: ``(tracer, metrics)`` while either of them is active, else ``None``: the
#: one slot a protocol record checks before it is formatted for them.
SINK: List[Optional[Tuple[object, object]]] = [None]


def observation_enabled() -> bool:
    """True when any instrument (tracer, metrics, profiler) is active."""
    return TRACER[0] is not None or METRICS[0] is not None or PROFILER[0] is not None


@contextmanager
def observe(tracer=None, metrics=None, profiler=None):
    """Activate the given instruments for the duration of the block.

    Instruments left at ``None`` are *disabled* inside the block (the block
    fully replaces the active observation; it does not merge with an outer
    one).  The previous observation is restored on exit, even on error.
    """
    previous = (TRACER[0], METRICS[0], PROFILER[0], SINK[0])
    sink = None if tracer is None and metrics is None else (tracer, metrics)
    TRACER[0], METRICS[0], PROFILER[0], SINK[0] = tracer, metrics, profiler, sink
    try:
        yield
    finally:
        TRACER[0], METRICS[0], PROFILER[0], SINK[0] = previous
