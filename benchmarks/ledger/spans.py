"""Layer spans recorded from outside the program.

The ledger measures ``src/repro`` without editing it: :func:`install` wraps
the public callables listed in :data:`TARGETS` by attribute at run time,
each wrapper records one ``(name, start, end, parent)`` span in memory, and
:func:`uninstall` puts the originals back.  A target that no longer exists
is skipped and reported in ``Recorder.missing`` -- never a crash -- because
a later refactor may rename a function without being allowed to edit this
file.

Spans are recorded in the installing process only and on one thread: the
campaign workloads are traced with in-process execution (``workers=1``) or
do no simulation in their workers (``dist-noop-tcp``), so nothing of
interest happens where the recorder cannot see it.
"""
from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["TARGETS", "SPAN_NAMES", "ROOT", "Recorder", "install", "uninstall", "span"]

#: Name of the span the harness opens around one whole traced repeat.
ROOT = "bench.root"

#: ``(span name, module, dotted attribute, how)``.  *how* is ``"attr"`` (one
#: function or method), ``"family"`` (the method on the named base class and
#: on every loaded subclass that overrides it) or ``"sim"`` (``attr`` plus
#: the ``sim.events`` counter).  The layer is the module under ``src/repro``.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("traces.synthesize", "repro.traces.models", "TraceModel.synthesize", "attr"),
    ("traces.dumps_swf", "repro.traces.swf", "dumps_swf", "attr"),
    ("traces.loads_swf", "repro.traces.swf", "loads_swf", "attr"),
    ("traces.pipeline_apply", "repro.traces.transform", "Pipeline.apply", "attr"),
    ("traces.convert_trace", "repro.traces.convert", "convert_trace", "attr"),
    ("traces.build_application", "repro.traces.convert", "build_application", "attr"),
    ("sim.run", "repro.sim.engine", "Simulator.run", "sim"),
    ("core.rms_submit", "repro.core.rms", "CooRMv2.submit", "attr"),
    ("core.rms_done", "repro.core.rms", "CooRMv2.done", "attr"),
    ("core.rms_set_capacity", "repro.core.rms", "CooRMv2.set_capacity", "attr"),
    ("core.scheduler_schedule", "repro.core.scheduler", "Scheduler.schedule", "attr"),
    ("core.request_set_prune", "repro.core.request_set",
     "ApplicationRequests.prune_finished", "attr"),
    ("core.request_set_prune", "repro.core.request_set", "RequestSet.prune_finished", "attr"),
    ("core.fit", "repro.core.fit", "fit", "attr"),
    ("core.eq_schedule", "repro.core.eqschedule", "eq_schedule", "attr"),
    ("core.cbf_submit", "repro.core.cbf", "ConservativeBackfillQueue.submit", "attr"),
    ("policies.order", "repro.policies.base", "OrderingStrategy.order", "family"),
    ("policies.fit_pending", "repro.policies.base", "BackfillStrategy.fit_pending", "family"),
    ("policies.share", "repro.policies.base", "SharingStrategy.share", "family"),
    ("apps.on_views", "repro.apps.base", "BaseApplication.on_views", "family"),
    ("apps.on_start", "repro.apps.base", "BaseApplication.on_start", "family"),
    ("federation.place", "repro.federation.federation", "MetaScheduler.place", "attr"),
    ("federation.submit", "repro.federation.federation", "Federation.submit", "attr"),
    ("faults.arm", "repro.faults.injector", "FaultInjector.arm", "attr"),
    ("metrics.collect_multi", "repro.metrics.collector", "SimulationMetrics.collect_multi", "attr"),
    ("metrics.collect_federated", "repro.federation.metrics", "collect_federated", "attr"),
    ("obs.build_audits", "repro.obs.lifecycle", "build_audits", "attr"),
    ("obs.timeline_build", "repro.obs.timeline", "TimelineBuilder.build", "attr"),
    ("obs.evaluate_slo", "repro.obs.slo", "evaluate_slo", "attr"),
    ("campaign.tasks", "repro.campaign.runner", "CampaignRunner.tasks", "attr"),
    ("campaign.run", "repro.campaign.runner", "CampaignRunner.run", "attr"),
    ("campaign.save_campaign", "repro.campaign.store", "ResultStore.save_campaign", "attr"),
    ("campaign.load_records", "repro.campaign.store", "ResultStore.load_records", "attr"),
    ("campaign.completed_unit_keys", "repro.campaign.store",
     "ResultStore.completed_unit_keys", "attr"),
    ("dist.coordinator_run", "repro.dist.coordinator", "Coordinator.run", "attr"),
    ("dist.queue_lease", "repro.dist.workqueue", "WorkQueue.lease", "attr"),
    ("dist.queue_complete", "repro.dist.workqueue", "WorkQueue.complete", "attr"),
    # The two whole-queue scans the coordinator makes on every poll round.
    ("dist.queue_scan", "repro.dist.workqueue", "WorkQueue.all_done", "attr"),
    ("dist.queue_scan", "repro.dist.workqueue", "WorkQueue.reclaim", "attr"),
    ("dist.reply_on", "repro.dist.transport", "reply_on", "attr"),
    ("dist.transport_poll", "repro.dist.transport", "ThreadTransport.poll", "attr"),
    ("dist.transport_poll", "repro.dist.transport", "IpcTransport.poll", "attr"),
    ("dist.transport_poll", "repro.dist.transport", "TcpTransport.poll", "attr"),
)

#: Every span name with per-layer metrics, in declaration order.
#: ``campaign.report`` is opened by the harness itself (see :func:`span`)
#: around its call into ``repro.__main__.main``.
SPAN_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys([name for name, _m, _a, _h in TARGETS] + ["campaign.report"])
)


class Recorder:
    """The spans and counters of one traced repeat."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent index or -1)``, in opening order.
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.counters: Dict[str, float] = {}
        #: ``module:attribute`` of every target that could not be wrapped.
        self.missing: List[str] = []
        self._top = -1
        self._top_name = ""
        self._undo: List[Tuple[object, str, object]] = []

    def _open(self, name: str) -> Tuple[int, int, str]:
        """Push a span; returns what :meth:`_close` needs to pop it."""
        index = len(self.spans)
        opened = (index, self._top, self._top_name)
        self.spans.append(None)
        self._top, self._top_name = index, name
        return opened

    def _close(self, name: str, start: float, opened: Tuple[int, int, str]) -> None:
        index, parent, parent_name = opened
        self.spans[index] = (name, start, perf_counter(), parent)
        self._top, self._top_name = parent, parent_name

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        Self time is a span's duration minus the part its child spans
        cover; on one thread children never overlap, so that part is the
        sum of the direct children's durations.
        """
        spans = self.spans
        self_s = [end - start for _name, start, end, _parent in spans]
        for _name, start, end, parent in spans:
            if parent >= 0:
                self_s[parent] -= end - start
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _parent), own in zip(spans, self_s):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def write_jsonl(self, path) -> None:
        """One JSON object per span: ``id, name, start, end, parent``."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": None if parent < 0 else parent}
                    )
                    + "\n"
                )


def _wrap(recorder: Recorder, name: str, fn, count_events: bool = False):
    """The recording wrapper of one callable.

    A call made while a span of the same name is already the innermost one
    (``super().on_views()``, ``ApplicationRequests.prune_finished`` calling
    ``RequestSet.prune_finished``) runs straight through, so one logical
    operation is one span.
    """

    def wrapper(*args, **kwargs):
        if recorder._top_name == name:
            return fn(*args, **kwargs)
        opened = recorder._open(name)
        before = args[0].processed_events if count_events else 0
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder._close(name, start, opened)
            if count_events:
                fired = args[0].processed_events - before
                recorder.counters["sim.events"] = recorder.counters.get("sim.events", 0) + fired

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    return wrapper


def _patch(recorder: Recorder, owner, attr: str, name: str, count_events: bool) -> None:
    """Replace ``owner.attr`` (looked up in ``owner.__dict__``) by its wrapper."""
    raw = vars(owner)[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(_wrap(recorder, name, raw.__func__, count_events))
    else:
        wrapped = _wrap(recorder, name, raw, count_events)
    setattr(owner, attr, wrapped)
    recorder._undo.append((owner, attr, raw))
    if isinstance(owner, type(sys)):
        # ``from .fit import fit`` copied the function into the importing
        # module's globals; rebind every such copy inside the program.
        for mod_name, module in list(sys.modules.items()):
            if module is owner or not mod_name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)
                    recorder._undo.append((module, key, raw))


def _subclasses(cls) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install() -> Recorder:
    """Wrap every target that exists; returns the recorder to read back."""
    # The families are found through ``__subclasses__``, so every module
    # that defines a stage or an application must be loaded first.
    for package in ("repro.policies", "repro.apps", "repro.campaign", "repro.dist"):
        importlib.import_module(package)
    recorder = Recorder()
    for name, module_name, dotted, how in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            owners = [owner]
            if how == "family":
                owners += [sub for sub in _subclasses(owner) if attr in vars(sub)]
            if attr not in vars(owner):
                raise AttributeError(attr)
        except (ImportError, AttributeError):
            recorder.missing.append(f"{module_name}:{dotted}")
            continue
        for each in owners:
            _patch(recorder, each, attr, name, count_events=(how == "sim"))
    return recorder


def uninstall(recorder: Recorder) -> None:
    """Restore every attribute :func:`install` replaced."""
    for owner, attr, raw in reversed(recorder._undo):
        setattr(owner, attr, raw)
    recorder._undo.clear()


@contextmanager
def span(recorder: Optional[Recorder], name: str):
    """A span around harness code (the root span, ``campaign.report``).

    With *recorder* ``None`` -- every untraced repeat -- this is a no-op.
    """
    if recorder is None:
        yield
        return
    opened = recorder._open(name)
    start = perf_counter()
    try:
        yield
    finally:
        recorder._close(name, start, opened)
