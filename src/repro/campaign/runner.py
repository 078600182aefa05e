"""Parallel, deterministic execution of campaigns.

The runner executes the (scenario x replicate) grid of a
:class:`~repro.campaign.spec.CampaignSpec` in a loop on the calling thread
when one worker is asked for, and otherwise on :mod:`repro.dist` workers:
subprocesses on socket pairs (``ipc``) locally, ``tcp`` across hosts.
Reproducibility is guaranteed by construction:

* the seed of every run is ``derive_seed(root_seed, scenario.name,
  replicate)`` -- a pure function of the spec, independent of worker count
  and scheduling order;
* every run is an isolated simulation (no shared mutable state);
* results are re-ordered into the spec's canonical (scenario, replicate)
  order before they are persisted.

Consequently ``workers=1`` and ``workers=N`` produce byte-identical run
records on every transport, which the integration tests assert.
"""
from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional

from ..core.errors import ReproError
from ..obs.hooks import observe
from ..obs.logsetup import get_logger
from ..sim.randomness import derive_seed
from .registry import RUNNERS, consume_provenance, get_runner
from .spec import CampaignSpec, ScenarioSpec
from .store import ResultStore
from .units import unit_key, unit_record

__all__ = [
    "RunTask",
    "CampaignResult",
    "CampaignRunner",
    "CampaignInterrupted",
    "CampaignFailed",
    "trace_filename",
]

_LOG = get_logger("campaign")

#: What the retired ``backend=`` keyword of :meth:`CampaignRunner.run` accepts.
_LEGACY_BACKENDS = ("pool", "dist")

#: Progress callback: called with (completed, total, record) per finished run.
ProgressFn = Callable[[int, int, Mapping], None]


@dataclass(frozen=True)
class RunTask:
    """One cell of the (policy x) scenario x replicate grid."""

    scenario: ScenarioSpec
    replicate: int
    seed: int
    #: Name of the scenario before policy-matrix expansion (equals
    #: ``scenario.name`` when no policy matrix is active).  The seed is
    #: always derived from this name so every policy variant replays the
    #: same workload.
    base_scenario: str = ""
    #: Collect per-run observability (metrics snapshot into the record's
    #: ``obs`` field, wall-clock phases aggregated into ``meta.json``).
    collect_obs: bool = False
    #: When non-empty, write the run's deterministic JSONL event trace to
    #: ``<trace_dir>/<scenario>_r<replicate>.trace.jsonl``.
    trace_dir: str = ""
    #: When non-empty, evaluate the run against an SLO spec (``"default"``
    #: or a path to a spec JSON file) and persist the flat verdict in the
    #: record's ``slo`` field.  Implies tracing the run in memory.
    slo_spec: str = ""


@dataclass
class CampaignResult:
    """Everything one campaign execution produced."""

    spec: CampaignSpec
    records: List[Dict]
    elapsed_seconds: float
    #: Workers launched: 1 on the serial loop, else ``min(asked, open units)``.
    workers: int
    store_path: Optional[str] = None
    #: What ran the units: ``serial`` | ``thread`` | ``ipc`` | ``tcp``.
    transport: str = "serial"
    #: True when the execution was interrupted and drained early; the
    #: records then cover only the completed prefix of the grid.
    interrupted: bool = False
    #: Runs skipped by ``--resume`` (idempotency key already in the store).
    skipped: int = 0
    #: Flat ``dist_*`` counters of the coordinator (``None`` on ``serial``).
    dist_stats: Optional[Dict] = None
    #: Units that failed terminally: idempotency key -> last error message.
    failed: Dict[str, str] = field(default_factory=dict)

    def metrics_of(self, scenario: str, replicate: int = 0) -> Dict:
        for record in self.records:
            if record["scenario"] == scenario and record["replicate"] == replicate:
                return record["metrics"]
        raise KeyError(f"no record for scenario {scenario!r} replicate {replicate}")


class CampaignInterrupted(RuntimeError):
    """A campaign execution was interrupted (``SIGINT``/``SIGTERM``).

    In-flight runs were drained and every completed record was flushed to
    the store; the partial :class:`CampaignResult` rides along so callers
    (the CLI exits 130) can report what survived.  Re-running with
    ``--resume`` completes the remainder.
    """

    def __init__(self, result: "CampaignResult"):
        super().__init__(
            f"campaign {result.spec.name!r} interrupted after "
            f"{len(result.records)} of its runs"
        )
        self.result = result


class CampaignFailed(ReproError):
    """Some units failed terminally; the rest completed and were flushed.

    The partial :class:`CampaignResult` rides along, exactly as on an
    interrupt; re-running with ``--resume`` executes only the failed units.
    """

    def __init__(self, result: "CampaignResult"):
        shown = [f"{key} ({error})" for key, error in list(result.failed.items())[:3]]
        if len(result.failed) > len(shown):
            shown.append(f"and {len(result.failed) - len(shown)} more")
        super().__init__(
            f"campaign {result.spec.name!r}: {len(result.failed)} unit(s) failed: "
            f"{'; '.join(shown)}; {len(result.records)} completed run(s) kept, "
            "re-run with --resume to retry the rest"
        )
        self.result = result


@contextmanager
def _sigterm_as_interrupt():
    """Turn SIGTERM into ``KeyboardInterrupt`` for the enclosed block.

    Signal handlers can only be installed from the main thread; anywhere
    else (a campaign run inside a test worker thread) the block is a no-op
    and only ^C interrupts.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGTERM)

    def handler(signum, _frame):
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def trace_filename(scenario: str, replicate: int) -> str:
    """Canonical trace file name of one run (pure function of the task)."""
    return f"{scenario}_r{replicate}.trace.jsonl"


def _resolve_slo(name: str):
    """``"default"`` or a spec-file path -> :class:`~repro.obs.slo.SLOSpec`."""
    from ..obs.slo import DEFAULT_SLO, SLOSpec

    if name == "default":
        return DEFAULT_SLO
    return SLOSpec.load(name)


def _run_unit(task: RunTask) -> Dict:
    """Run one task in the current process (the serial loop and every worker);
    returns what the run computed, which ``unit_record`` makes a row."""
    runner = get_runner(task.scenario.runner)
    consume_provenance()  # drop leftovers from any previous run
    observing = task.collect_obs or bool(task.trace_dir) or bool(task.slo_spec)
    tracer = registry = profiler = None
    if observing:
        # The instruments are imported by the units that are observed.
        from ..obs.metrics import MetricsRegistry
        from ..obs.profiler import PhaseProfiler
        from ..obs.tracer import EventTracer

        tracer = EventTracer() if (task.trace_dir or task.slo_spec) else None
        registry = MetricsRegistry() if task.collect_obs else None
        profiler = PhaseProfiler() if task.collect_obs else None
        with observe(tracer=tracer, metrics=registry, profiler=profiler):
            outcome = {"metrics": dict(runner(task.scenario, task.seed))}
    else:
        outcome = {"metrics": dict(runner(task.scenario, task.seed))}
    # Workload provenance (trace fingerprint, model parameters, transform
    # chain) published by the runner rides along in the persisted record.
    provenance = consume_provenance()
    if provenance is not None:
        outcome["provenance"] = provenance
    if registry is not None:
        # Deterministic: snapshots are pure functions of the simulation,
        # so they may live in the byte-stable run records.
        outcome["obs"] = registry.snapshot()
    if profiler is not None and len(profiler):
        # Wall-clock: the parent pops this out and aggregates it into
        # meta.json; it must never be persisted in runs.jsonl.
        outcome["_phase_seconds"] = profiler.snapshot()
    if tracer is not None and task.slo_spec:
        # Deterministic analytics over the in-memory trace: audits and a
        # timeline are pure functions of the event stream, so the flat SLO
        # verdict may live in the byte-stable run records.
        from ..obs.lifecycle import build_audits
        from ..obs.slo import evaluate_slo
        from ..obs.timeline import TimelineBuilder

        audits = build_audits(tracer.events)
        timeline = TimelineBuilder().build(tracer.events)
        outcome["slo"] = evaluate_slo(
            _resolve_slo(task.slo_spec), audits, timeline
        ).to_flat()
    if tracer is not None and task.trace_dir:
        directory = Path(task.trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / trace_filename(task.scenario.name, task.replicate)
        path.write_text(tracer.to_jsonl(), encoding="utf-8")
    return outcome


class CampaignRunner:
    """Executes a campaign, optionally persisting into a result store."""

    def __init__(
        self,
        spec: CampaignSpec,
        store: Optional[ResultStore] = None,
        progress: Optional[ProgressFn] = None,
        collect_obs: bool = False,
        trace_dir: Optional[str] = None,
        slo_spec: Optional[str] = None,
    ):
        self.spec = spec
        self.store = store
        self.progress = progress
        self.collect_obs = collect_obs
        self.trace_dir = str(trace_dir) if trace_dir else ""
        self.slo_spec = str(slo_spec) if slo_spec else ""
        if self.slo_spec:
            _resolve_slo(self.slo_spec)  # fail fast on a bad spec

    def tasks(self) -> List[RunTask]:
        """The full grid, in canonical (scenario, policy, replicate) order.

        Seeds derive from the *base* scenario name, so with a policy matrix
        every policy variant of a scenario replays the same workload.
        """
        spec, obs, trace_dir, slo = self.spec, self.collect_obs, self.trace_dir, self.slo_spec
        seeds: Dict[str, List[int]] = {}  # per base: its variants share them
        tasks = []
        for variant, base_name in spec.expanded_scenarios():
            if base_name not in seeds:
                seeds[base_name] = [
                    derive_seed(spec.root_seed, base_name, replicate)
                    for replicate in range(spec.seeds)
                ]
            tasks.extend(
                RunTask(variant, replicate, seed, base_name, obs, trace_dir, slo)
                for replicate, seed in enumerate(seeds[base_name])
            )
        return tasks

    def run(
        self,
        workers: Optional[int] = None,
        append: bool = False,
        backend: Optional[str] = None,
        resume: bool = False,
        dist=None,
    ) -> CampaignResult:
        """Execute every task and return (and optionally persist) the records.

        *workers* overrides the spec's worker count.  One worker and no
        *dist* runs the units on the calling thread; anything else runs them
        through :mod:`repro.dist` as *dist* says (a
        :class:`~repro.dist.coordinator.DistConfig`; default: ``ipc``), where
        ``workers=0`` on ``tcp`` serves external workers only.  Results
        stream through the progress callback as they complete, but the
        returned and persisted records are canonically ordered --
        byte-identical across worker counts **and transports**.  *resume*
        skips every run whose idempotency key already has a store row and
        implies ``append``; *backend*, once the pool/dist selector, is
        checked and ignored.

        ``SIGINT``/``SIGTERM`` interrupt gracefully: in-flight runs drain,
        completed records flush to the store, and :class:`CampaignInterrupted`
        (carrying the partial result) is raised.  A unit that fails
        terminally does not stop the others; :class:`CampaignFailed` is
        raised the same way once they are flushed.
        """
        if backend is not None and backend not in _LEGACY_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; the retired keyword accepts only "
                f"{list(_LEGACY_BACKENDS)} and ignores both"
            )
        workers = self.spec.workers if workers is None else workers
        tasks = pending = self.tasks()
        if resume:
            append = True  # resumption always extends the existing rows
            if self.store is not None:
                done = self.store.completed_unit_keys(self.spec.name)
                pending = [task for task in tasks if unit_key(task) not in done]

        started = time.perf_counter()
        with _sigterm_as_interrupt():
            if workers == 1 and dist is None:
                result = self._run_serial(pending)
            else:
                result = self._run_coordinated(pending, workers, dist)
        elapsed = result.elapsed_seconds = time.perf_counter() - started
        result.skipped = len(tasks) - len(pending)

        # Both paths hand the records back in task order, which is canonical.
        records = result.records

        # Per-run wall-clock phase breakdowns are non-deterministic: pop
        # them off the records (they must never reach runs.jsonl) and
        # aggregate them into the campaign-level profiler for meta.json.
        from ..obs.profiler import PhaseProfiler

        profiler = PhaseProfiler()
        profiler.add("campaign.execute", elapsed, count=len(records) or 1)
        for record in records:
            phases = record.pop("_phase_seconds", None)
            if phases:
                profiler.merge(phases)

        if self.store is not None:
            meta = {
                "workers": result.workers,
                "transport": result.transport,
                "elapsed_seconds": elapsed,
                "run_count": len(records),
                "interrupted": result.interrupted,
                "skipped": result.skipped,
                "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            }
            if result.dist_stats is not None:
                # Runtime distribution counters are non-deterministic under
                # retries and kills; they belong in meta.json, never in the
                # byte-stable runs.jsonl.
                meta["dist"] = result.dist_stats
            # One write: the store times it into the profiler, whose
            # snapshot becomes meta.json's phase_seconds.
            with observe(profiler=profiler):
                directory = self.store.save_campaign(self.spec, records, meta=meta, append=append)
            result.store_path = str(directory)

        if result.interrupted:
            raise CampaignInterrupted(result)
        if result.failed:
            raise CampaignFailed(result)
        return result

    # ------------------------------------------------------------------ #
    # The two execution paths
    # ------------------------------------------------------------------ #
    def _run_serial(self, tasks: List[RunTask]) -> CampaignResult:
        """Run the units one after another on the calling thread.

        Same-thread on purpose: span and obs recorders installed by the
        caller (the ledger's traced passes, the tests) see every run.
        """
        result = CampaignResult(self.spec, [], 0.0, workers=1)
        try:
            for task in tasks:
                key = unit_key(task)
                try:
                    outcome = _run_unit(task)
                except Exception as exc:  # noqa: BLE001 - reported once the rest ran
                    _LOG.debug("unit %s failed", key, exc_info=True)
                    result.failed[key] = f"{type(exc).__name__}: {exc}"
                    continue
                record = unit_record(task, key, outcome)
                result.records.append(record)
                if self.progress is not None:
                    self.progress(len(result.records), len(tasks), record)
        except KeyboardInterrupt:
            result.interrupted = True
        return result

    def _run_coordinated(self, tasks: List[RunTask], workers: int, dist) -> CampaignResult:
        """Run the units on workers that lease them from a coordinator.

        Imported lazily: :mod:`repro.dist` imports this module for
        ``_run_unit``.
        """
        from ..dist.coordinator import Coordinator

        # Filled before the workers fork, so none compiles the built-in
        # runners itself: the table's first lookup imports them.
        RUNNERS.names()
        coordinator = Coordinator(tasks, dist, progress=self.progress)
        outcome = coordinator.run(workers)
        return CampaignResult(
            self.spec,
            outcome.records,
            0.0,
            workers=outcome.workers,
            transport=coordinator.config.transport,
            interrupted=outcome.interrupted,
            dist_stats=dict(outcome.stats),
            failed=outcome.failed,
        )
