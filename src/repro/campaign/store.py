"""Persistent, append-friendly storage of campaign results.

Layout (one directory per campaign under the store root)::

    <root>/
      <campaign>/
        campaign.json   # the CampaignSpec that produced the results
        runs.jsonl      # one JSON record per (scenario, replicate) run
        meta.json       # wall-clock / worker info of the last execution

``runs.jsonl`` is written deterministically: records are sorted by
(scenario order, replicate) and serialised with sorted keys, so two
executions of the same campaign produce **byte-identical** run files no
matter how many workers they used.  Everything non-deterministic (timings,
worker counts, timestamps) lives in ``meta.json``.  One execution writes
all three files in one :meth:`ResultStore.save_campaign` call.

The analyses are functions of rows the caller loaded (one read of
``runs.jsonl`` per report), and one rule: :func:`group_rows` groups them by
a key, and :func:`median_summary` summarises each group once.
"""
from __future__ import annotations

import json
import os
import time
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from ..core.errors import SpecError
from ..metrics.collector import median_summary
from ..obs import hooks as _obs
from ..obs.logsetup import get_logger
from .spec import CampaignSpec, axis_label

__all__ = [
    "CampaignInfo",
    "ResultStore",
    "DEFAULT_RESULTS_DIR",
    "by_policy",
    "by_routing",
    "group_rows",
    "medians",
    "provenance",
    "comparisons",
    "sweep_tables",
    "compare",
]

#: Default store root, overridable with the ``REPRO_RESULTS_DIR`` variable.
DEFAULT_RESULTS_DIR = "results"

_RUNS_FILE = "runs.jsonl"
_SPEC_FILE = "campaign.json"
_META_FILE = "meta.json"

#: The encoder of every run row (one object: a ``json.dumps`` with options
#: builds a new one per call), and the decoder that reads them back.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)
_ROW_DECODER = json.JSONDecoder()


@dataclass(frozen=True)
class CampaignInfo:
    """Directory-listing summary of one stored campaign."""

    name: str
    run_count: int
    scenarios: Tuple[str, ...]
    path: str


def _record_sort_key(scenario_order: Mapping[str, int]):
    def key(record: Mapping) -> Tuple[int, str, int]:
        name = str(record.get("scenario", ""))
        return (scenario_order.get(name, len(scenario_order)), name, int(record.get("replicate", 0)))

    return key


class ResultStore:
    """JSON-lines result store rooted at a results directory."""

    def __init__(self, root: Union[str, Path, None] = None):
        if root is None:
            root = os.environ.get("REPRO_RESULTS_DIR", DEFAULT_RESULTS_DIR)
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def campaign_dir(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise SpecError(f"invalid campaign name: {name!r}")
        return self.root / name

    def runs_path(self, name: str) -> Path:
        return self.campaign_dir(name) / _RUNS_FILE

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def save_campaign(
        self,
        spec: CampaignSpec,
        records: Sequence[Mapping],
        meta: Optional[Mapping] = None,
        append: bool = False,
    ) -> Path:
        """Persist one campaign execution -- its rows, ``campaign.json`` and
        (when given) ``meta.json`` -- in one call; returns the campaign
        directory.

        Records are re-ordered deterministically before writing.  With
        ``append=True`` new records are added after the existing ones (the
        per-execution block is still deterministically ordered), which keeps
        benchmark trajectories across repeated executions.  Under an
        observed :class:`~repro.obs.PhaseProfiler` the rows and spec write is
        timed as ``store.write``, and *meta*'s ``phase_seconds`` is the
        profiler's snapshot taken after it.
        """
        profiler = _obs.PROFILER[0]
        write_started = time.perf_counter() if profiler is not None else 0.0
        directory = self.campaign_dir(spec.name)
        directory.mkdir(parents=True, exist_ok=True)

        order = {
            variant.name: i for i, (variant, _base) in enumerate(spec.expanded_scenarios())
        }
        ordered = sorted(records, key=_record_sort_key(order))
        encode = _ROW_ENCODER.encode
        lines = "".join(
            [encode(r if type(r) is dict else dict(r)) + "\n" for r in ordered]
        )
        mode = "a" if append else "w"
        with open(directory / _RUNS_FILE, mode, encoding="utf-8") as fh:
            fh.write(lines)

        (directory / _SPEC_FILE).write_text(spec.to_json() + "\n", encoding="utf-8")
        if profiler is not None:
            profiler.add("store.write", time.perf_counter() - write_started)
        if meta is not None:
            meta = dict(meta)
            if profiler is not None:
                meta["phase_seconds"] = profiler.snapshot()
            (directory / _META_FILE).write_text(
                json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        return directory

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def _campaign_names(self) -> List[str]:
        """The directories under the root that hold a run file, sorted."""
        if not self.root.is_dir():
            return []
        return [d.name for d in sorted(self.root.iterdir()) if (d / _RUNS_FILE).is_file()]

    def list_campaigns(self) -> List[CampaignInfo]:
        """Summaries of every campaign stored under the root, sorted by name."""
        infos: List[CampaignInfo] = []
        for name in self._campaign_names():
            records = self.load_records(name)
            scenarios = tuple(dict.fromkeys(str(r.get("scenario", "")) for r in records))
            infos.append(CampaignInfo(name, len(records), scenarios, str(self.root / name)))
        return infos

    def load_records(self, name: str) -> List[Dict]:
        """Every run record of a campaign, in file order."""
        path = self.runs_path(name)
        if not path.is_file():
            raise FileNotFoundError(
                f"campaign {name!r} has no runs at {path}; "
                f"known campaigns: {self._campaign_names()}"
            )
        records: List[Dict] = []
        # One read, split on "\n" only: universal newlines already folded
        # "\r\n" and "\r", and splitlines() would also break on \x85 etc.
        decode = _ROW_DECODER.raw_decode  # a stripped line: json.loads minus its checks
        for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = decode(line)
            except json.JSONDecodeError:
                end = -1
            if end == len(line):
                records.append(record)
            else:
                # An interrupted append leaves a truncated trailing line;
                # one lost record must not make the whole store unreadable.
                get_logger("campaign").warning(
                    "%s:%d: skipping unparseable record (truncated write?)",
                    path,
                    lineno,
                )
        return records

    def load_spec(self, name: str) -> Optional[CampaignSpec]:
        path = self.campaign_dir(name) / _SPEC_FILE
        if not path.is_file():
            return None
        return CampaignSpec.from_json(path.read_text(encoding="utf-8"))

    def load_meta(self, name: str) -> Optional[Dict]:
        """The last execution's ``meta.json``, or ``None`` when absent."""
        path = self.campaign_dir(name) / _META_FILE
        if not path.is_file():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    def completed_unit_keys(self, name: str) -> Set[str]:
        """Idempotency keys of every run already stored for a campaign.

        The backbone of ``campaign run --resume`` on every transport: a task
        whose :func:`~repro.campaign.units.unit_key` is in this set already
        has a byte-final store row and is skipped.  Campaigns without any
        rows (or written before the ``unit`` field existed) yield an empty
        or partial set, which degrades safely to re-running.
        """
        if not self.runs_path(name).is_file():
            return set()
        return {str(record["unit"]) for record in self.load_records(name) if record.get("unit")}


# ---------------------------------------------------------------------- #
# Analysis: functions of rows the caller loaded, one rule for all of them
# ---------------------------------------------------------------------- #
def _scenario(record: Mapping) -> str:
    """A row's scenario variant: the key of every per-scenario table."""
    return str(record.get("scenario", ""))


def _point(record: Mapping) -> str:
    """The row's variant without the ``@policy`` and ``+routing`` suffixes a
    campaign's policies and routings add: the base scenario, or one cell of
    its own axes."""
    point = _scenario(record)
    for suffix in (f"+{record.get('routing') or ''}", f"@{record.get('policy') or ''}"):
        if len(suffix) > 1 and point.endswith(suffix):
            point = point[: -len(suffix)]
    return point


def by_policy(record: Mapping) -> Tuple[str, str]:
    """``(point, policy)``; rows written before the policy field existed
    count as the default policy."""
    return _point(record), str(record.get("policy") or "") or "coorm"


def by_routing(record: Mapping) -> Optional[Tuple[str, str]]:
    """``(point, routing)``; ``None`` for a non-federated row, which has no
    routing to compare."""
    routing = str(record.get("routing") or "")
    return (_point(record), routing) if routing else None


def group_rows(
    records: Iterable[Mapping], key: Callable[[Mapping], Hashable], field: str = "metrics"
) -> Dict[Hashable, List[Mapping]]:
    """The one rule: each row's flat *field* dict under ``key(row)``, groups
    in first-seen order.  A row without the field (``obs`` and ``slo`` ride
    along only under ``--obs``/``--slo``) or with a ``None`` key is skipped."""
    groups: Dict[Hashable, List[Mapping]] = {}
    for record in records:
        values = record.get(field)
        # Most rows lack obs/slo: skip them before the ABC check.
        if values is None or not isinstance(values, Mapping):
            continue
        group = key(record)
        if group is not None:
            groups.setdefault(group, []).append(values)
    return groups


def medians(records: Iterable[Mapping], field: str = "metrics") -> Dict[str, Dict[str, float]]:
    """``{scenario: {metric: median}}`` over replicates: :func:`median_summary`
    of each scenario's rows, taken once.  ``field="obs"`` and ``field="slo"``
    give the medians of the observability counters and of the SLO verdicts
    (``slo.passed`` is 1.0/0.0, so its median reads as "the majority of
    replicates passed")."""
    groups = group_rows(records, _scenario, field)
    return {scenario: median_summary(rows) for scenario, rows in groups.items()}


def provenance(records: Iterable[Mapping]) -> Dict[str, Dict]:
    """Per-scenario workload provenance: the first row's of each scenario.

    Replicates of one scenario share their provenance except for
    derived-seed details; scenarios without any recorded provenance are
    absent."""
    return {
        scenario: dict(rows[0])
        for scenario, rows in group_rows(records, _scenario, "provenance").items()
    }


def comparisons(
    records: Iterable[Mapping], key: Callable[[Mapping], Optional[Tuple[str, str]]]
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{point: {value: {metric: median}}}`` for every point whose rows take
    at least two values of *key* (:func:`by_policy` or :func:`by_routing`):
    a side-by-side comparison of the policies, or routings, that ran the
    same workload.  A point with one value compares nothing and is not
    summarised at all."""
    by_point: Dict[str, Dict[str, List[Mapping]]] = {}
    for (point, value), rows in group_rows(records, key).items():
        by_point.setdefault(point, {})[value] = rows
    return {
        point: {value: median_summary(rows) for value, rows in by_value.items()}
        for point, by_value in by_point.items()
        if len(by_value) > 1
    }


def sweep_tables(
    spec: CampaignSpec, summary: Mapping[str, Mapping[str, float]]
) -> Dict[str, Tuple[List[str], List[tuple]]]:
    """``{base_scenario: (headers, rows)}``: one sweep table per scenario of
    *spec* with axes, read off the per-scenario *summary* (:func:`medians`).

    One row per variant, in axis order: the axis values, the medians of
    the scenario's metrics (all of them when it names none), then the
    Δ and Δ% of each against the row whose last own axis (the last of
    ``params["axes"]``, before the campaign's policies and routings)
    takes its first value, every other axis held fixed.  fig10's
    end-time increase is the Δ% of ``amr_end_time``, fig11's filling
    gain the Δ of ``used_resources_percent``, under any policy.
    """
    tables: Dict[str, Tuple[List[str], List[tuple]]] = {}
    for scenario in spec.scenarios:
        if not scenario.axes:
            continue
        axes, points = scenario.sweep(spec.policies, spec.routings)
        rows_of = [summary.get(variant.name, {}) for _values, variant in points]
        metrics = list(scenario.metrics) or sorted(set().union(*rows_of))
        # Rows per step of the last own axis: one per campaign cell.
        stride = max(len(spec.policies), 1) * max(len(spec.routings), 1)
        width = len(scenario.axes[-1][1])
        rows = []
        for i, (values, _variant) in enumerate(points):
            row, reference = rows_of[i], rows_of[i - (i // stride % width) * stride]
            deltas, percents = [], []
            for metric in metrics:
                value, base = row.get(metric), reference.get(metric)
                known = value is not None and base is not None
                deltas.append(value - base if known else "")
                percents.append(100.0 * (value / base - 1.0) if known and base else "")
            rows.append((
                *(axis_label(v) for v in values),
                *(row.get(metric, "") for metric in metrics),
                *deltas,
                *percents,
            ))
        headers = [path.rpartition(".")[2] for path, _values in axes]
        headers += metrics + [f"Δ {m}" for m in metrics] + [f"Δ% {m}" for m in metrics]
        tables[scenario.name] = (headers, rows)
    return tables


def compare(
    summary_a: Mapping[str, Mapping[str, float]], summary_b: Mapping[str, Mapping[str, float]]
) -> List[Tuple[str, str, float, float, float]]:
    """Metric-by-metric comparison of two campaigns' per-scenario medians.

    Returns ``(scenario, metric, a, b, b - a)`` rows for every metric
    present in both, in deterministic order.
    """
    rows: List[Tuple[str, str, float, float, float]] = []
    for scenario in sorted(set(summary_a) & set(summary_b)):
        metrics_a, metrics_b = summary_a[scenario], summary_b[scenario]
        for metric in sorted(set(metrics_a) & set(metrics_b)):
            a, b = metrics_a[metric], metrics_b[metric]
            rows.append((scenario, metric, a, b, b - a))
    return rows
