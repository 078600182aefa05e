"""The Standard Workload Format (SWF) of the Parallel Workloads Archive.

An SWF file describes one job per line with 18 whitespace-separated fields
(job number, submit/wait/run times, processor and memory usage, status, user
and group ids, queue/partition, inter-job dependencies).  Header lines start
with ``;`` and either carry a ``Key: value`` directive (``UnixStartTime``,
``MaxNodes``, ``MaxProcs``, ...) or free-form comments.  This module parses
and writes the full format -- gzip-compressed or plain, strict or lenient --
into :class:`Trace` objects that carry their provenance with them.

Unknown values are ``-1`` throughout, as mandated by the format.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..core.errors import WorkloadError
from ..core.textio import read_trace_text, write_text_file
from ..obs import hooks as _obs
from ..obs.logsetup import get_logger
from ..apps.rigid import RigidJobSpec

__all__ = [
    "SWF_FIELDS",
    "SwfJob",
    "SwfHeader",
    "Trace",
    "load_swf",
    "loads_swf",
    "dump_swf",
    "dumps_swf",
]

#: The 18 fields of one SWF job line, in file order.
SWF_FIELDS: Tuple[str, ...] = (
    "job_number",
    "submit_time",
    "wait_time",
    "run_time",
    "used_procs",
    "avg_cpu_time",
    "used_memory",
    "req_procs",
    "req_time",
    "req_memory",
    "status",
    "user_id",
    "group_id",
    "executable",
    "queue",
    "partition",
    "preceding_job",
    "think_time",
)

#: Fields parsed as integers; the rest are floats (times, memory sizes).
_INT_FIELDS = frozenset(
    {
        "job_number",
        "used_procs",
        "req_procs",
        "status",
        "user_id",
        "group_id",
        "executable",
        "queue",
        "partition",
        "preceding_job",
    }
)


@dataclass(frozen=True)
class SwfJob:
    """One job record of an SWF trace (all 18 standard fields).

    Times are seconds relative to the trace start; ``-1`` means unknown.
    """

    job_number: int
    submit_time: float
    wait_time: float = -1.0
    run_time: float = -1.0
    used_procs: int = -1
    avg_cpu_time: float = -1.0
    used_memory: float = -1.0
    req_procs: int = -1
    req_time: float = -1.0
    req_memory: float = -1.0
    status: int = -1
    user_id: int = -1
    group_id: int = -1
    executable: int = -1
    queue: int = -1
    partition: int = -1
    preceding_job: int = -1
    think_time: float = -1.0

    @property
    def node_count(self) -> int:
        """Processors the job asks for (requested, else used, else 1)."""
        if self.req_procs > 0:
            return self.req_procs
        if self.used_procs > 0:
            return self.used_procs
        return 1

    @property
    def duration(self) -> float:
        """Seconds the job runs for (actual, else requested, else 0)."""
        if self.run_time > 0:
            return self.run_time
        if self.req_time > 0:
            return self.req_time
        return 0.0

    @property
    def area(self) -> float:
        """Node-seconds the job consumes."""
        return self.node_count * self.duration

    def is_valid_job(self) -> bool:
        """Whether the record describes a runnable job (positive size/time)."""
        return self.submit_time >= 0 and self.node_count > 0 and self.duration > 0

    def to_rigid(self) -> RigidJobSpec:
        """Project the record onto the simulator's rigid-job fields."""
        return RigidJobSpec(
            job_id=f"swf{self.job_number}",
            submit_time=float(self.submit_time),
            node_count=self.node_count,
            duration=self.duration,
        )

    def to_fields(self) -> Tuple:
        return tuple(getattr(self, name) for name in SWF_FIELDS)


@dataclass(frozen=True)
class SwfHeader:
    """The ``;``-prefixed header of an SWF file.

    ``directives`` maps directive names (``MaxNodes``, ``UnixStartTime``, ...)
    to their raw string values, preserving file order; ``comments`` keeps the
    free-form comment lines (without the ``;`` prefix) that precede or
    interleave the directives.
    """

    directives: Mapping[str, str] = field(default_factory=dict)
    comments: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "directives", dict(self.directives))
        object.__setattr__(self, "comments", tuple(str(c) for c in self.comments))

    def _number(self, key: str) -> Optional[float]:
        raw = self.directives.get(key)
        if raw is None:
            return None
        try:
            return float(raw.split()[0])
        except (ValueError, IndexError):
            return None

    @property
    def unix_start_time(self) -> Optional[int]:
        value = self._number("UnixStartTime")
        return None if value is None else int(value)

    @property
    def max_nodes(self) -> Optional[int]:
        value = self._number("MaxNodes")
        return None if value is None else int(value)

    @property
    def max_procs(self) -> Optional[int]:
        value = self._number("MaxProcs")
        return None if value is None else int(value)

    def with_directive(self, key: str, value: object) -> "SwfHeader":
        directives = dict(self.directives)
        directives[str(key)] = str(value)
        return SwfHeader(directives=directives, comments=self.comments)


@dataclass(frozen=True)
class Trace:
    """An SWF workload trace: header, jobs and accumulated provenance.

    ``provenance`` records where the jobs came from (file path and
    fingerprint, or model parameters) and every transformation applied since
    -- it rides along through the pipeline but never takes part in equality,
    so round-tripping a trace through its textual form compares equal.
    """

    header: SwfHeader = field(default_factory=SwfHeader)
    jobs: Tuple[SwfJob, ...] = ()
    provenance: Tuple[Mapping, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))
        object.__setattr__(
            self, "provenance", tuple(dict(step) for step in self.provenance)
        )

    @property
    def job_count(self) -> int:
        return len(self.jobs)

    @property
    def max_nodes(self) -> int:
        """Cluster size: the MaxNodes/MaxProcs directive, else the job peak."""
        declared = self.header.max_nodes or self.header.max_procs
        if declared is not None and declared > 0:
            return int(declared)
        return max((job.node_count for job in self.jobs), default=0)

    @property
    def span(self) -> float:
        """Seconds between the first and the last submission."""
        if not self.jobs:
            return 0.0
        times = [job.submit_time for job in self.jobs]
        return max(times) - min(times)

    def total_area(self) -> float:
        """Node-seconds summed over every job."""
        return sum(job.area for job in self.jobs)

    def with_jobs(self, jobs: Iterable[SwfJob], step: Optional[Mapping] = None) -> "Trace":
        """A copy holding *jobs*, with *step* appended to the provenance."""
        provenance = self.provenance if step is None else self.provenance + (dict(step),)
        return Trace(header=self.header, jobs=tuple(jobs), provenance=provenance)

    def with_header(self, header: SwfHeader) -> "Trace":
        return replace(self, header=header)

    def with_step(self, step: Mapping) -> "Trace":
        """A copy with *step* appended to the provenance."""
        return replace(self, provenance=self.provenance + (dict(step),))

    def to_rigid_jobs(self) -> List[RigidJobSpec]:
        """Runnable rigid jobs, sorted by submit time (invalid records drop)."""
        jobs = [job.to_rigid() for job in self.jobs if job.is_valid_job()]
        jobs.sort(key=lambda j: (j.submit_time, j.job_id))
        return jobs

    def provenance_dict(self) -> Dict:
        """JSON-friendly provenance summary (used by campaign records)."""
        return {"steps": [dict(step) for step in self.provenance]}

    @property
    def skipped_lines(self) -> int:
        """Malformed job lines dropped by lenient parsing, from provenance."""
        return sum(int(step.get("skipped_lines", 0)) for step in self.provenance)


# --------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------- #
def _parse_value(name: str, token: str, where: str):
    try:
        if name in _INT_FIELDS:
            # Some archives write integer fields as "123.0"; accept that.
            return int(float(token)) if "." in token else int(token)
        return float(token)
    except ValueError:
        raise WorkloadError(f"{where}: bad value {token!r} for field {name!r}") from None


def _build_row_parser():
    """Compile ``tokens -> field dict`` with the int/float calls inlined.

    Ingest is the hot loop of trace replay: 18 converter *function calls*
    per line (the obvious implementation) cost more than the parsing itself.
    Generating one lambda whose body is a dict display of direct ``int()`` /
    ``float()`` calls keeps the per-line Python-call count at one.  The
    parser is intentionally strict -- any token ``int()``/``float()`` reject
    (e.g. ``"123.0"`` in an integer field) raises ``ValueError`` and the
    caller falls back to :func:`_parse_value`, which owns the tolerant
    conversions and the error messages.
    """
    parts = []
    for i, name in enumerate(SWF_FIELDS):
        fn = "int" if name in _INT_FIELDS else "float"
        parts.append(f"{name!r}: {fn}(t[{i}])")
    return eval("lambda t: {" + ", ".join(parts) + "}")  # noqa: S307 - static source


_ROW_PARSER = _build_row_parser()


def _parse_job_slow(tokens: List[str], strict: bool, where: str) -> Optional[SwfJob]:
    """Tolerant per-field job-line parser (arity fixes, ``123.0`` ints).

    Returns ``None`` when the line must be skipped (lenient mode); raises
    :class:`WorkloadError` in strict mode.  This is the original parsing
    path, kept as the fallback of the generated fast parser so error
    messages and lenient-mode behaviour are unchanged.
    """
    if len(tokens) > len(SWF_FIELDS):
        if strict:
            raise WorkloadError(
                f"{where}: expected {len(SWF_FIELDS)} fields, got {len(tokens)}"
            )
        tokens = tokens[: len(SWF_FIELDS)]
    if len(tokens) < len(SWF_FIELDS):
        if strict:
            raise WorkloadError(
                f"{where}: expected {len(SWF_FIELDS)} fields, got {len(tokens)}"
            )
        tokens = tokens + ["-1"] * (len(SWF_FIELDS) - len(tokens))
    try:
        values = {
            name: _parse_value(name, token, where)
            for name, token in zip(SWF_FIELDS, tokens)
        }
    except WorkloadError:
        if strict:
            raise
        return None
    return SwfJob(**values)


#: One-element warn-once slot: the first lenient skip in a process warns,
#: repeats drop to DEBUG so bulk ingestion does not spam stderr.
_SKIP_WARNED = [False]


def loads_swf(
    text: str, *, strict: bool = True, source: str = "<string>"
) -> Trace:
    """Parse SWF *text* into a :class:`Trace`.

    In strict mode any malformed line raises a :class:`WorkloadError`
    annotated with *source* and the line number.  In lenient mode malformed
    job lines are skipped (and counted in the provenance), and job lines with
    fewer than 18 fields are padded with ``-1`` -- both defects are common in
    archived traces.
    """
    profiler = _obs.PROFILER[0]
    ingest_started = time.perf_counter() if profiler is not None else 0.0
    directives: Dict[str, str] = {}
    comments: List[str] = []
    jobs: List[SwfJob] = []
    skipped = 0
    # Hot-loop locals: the fast row parser plus the pieces of the frozen
    # dataclass construction.  ``SwfJob`` has no __post_init__, so adopting
    # the parsed dict as the instance __dict__ is equivalent to (and several
    # times faster than) the generated __init__ with its 18 guarded
    # object.__setattr__ calls.
    n_fields = len(SWF_FIELDS)
    parse_row = _ROW_PARSER
    new_job = object.__new__
    set_attr = object.__setattr__
    append_job = jobs.append
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        first = line[0]
        if first == ";":
            body = line.lstrip(";").strip()
            key, sep, value = body.partition(":")
            if sep and key.strip() and " " not in key.strip():
                directives[key.strip()] = value.strip()
            elif body:
                comments.append(body)
            continue
        if first == "#":  # not standard SWF, but tolerated
            comments.append(line.lstrip("#").strip())
            continue
        tokens = line.split()
        if len(tokens) == n_fields:
            try:
                values = parse_row(tokens)
            except ValueError:
                values = None
            if values is not None:
                job = new_job(SwfJob)
                set_attr(job, "__dict__", values)
                append_job(job)
                continue
        job = _parse_job_slow(tokens, strict, f"{source}:{lineno}")
        if job is None:
            skipped += 1
        else:
            append_job(job)

    if profiler is not None:
        profiler.add("trace.ingest", time.perf_counter() - ingest_started)
    step: Dict[str, object] = {"kind": "load", "source": source, "jobs": len(jobs)}
    if skipped:
        step["skipped_lines"] = skipped
        if not _SKIP_WARNED[0]:
            _SKIP_WARNED[0] = True
            get_logger("trace").warning(
                "%s: lenient parse skipped %d malformed job line%s "
                "(counted in provenance; further skips logged at DEBUG)",
                source, skipped, "" if skipped == 1 else "s",
            )
        else:
            get_logger("trace").debug(
                "%s: lenient parse skipped %d malformed job lines", source, skipped
            )
    return Trace(
        header=SwfHeader(directives=directives, comments=tuple(comments)),
        jobs=tuple(jobs),
        provenance=(step,),
    )


def load_swf(path: Union[str, Path], *, strict: bool = True) -> Trace:
    """Read an SWF file (transparently gunzipping ``*.gz`` paths)."""
    return loads_swf(read_trace_text(path), strict=strict, source=str(path))


def _format_value(value) -> str:
    if isinstance(value, float):
        # inf/nan parse as floats, so a pathological trace can carry them;
        # repr round-trips them where int() would raise.
        if math.isfinite(value) and value == int(value):
            return str(int(value))
        return repr(value)  # shortest exact form: parses back bit-identically
    return str(value)


def dumps_swf(trace: Trace) -> str:
    """Serialise a trace to SWF text (comments, directives, then jobs)."""
    lines: List[str] = [f"; {comment}" for comment in trace.header.comments]
    lines.extend(
        f"; {key}: {value}" for key, value in trace.header.directives.items()
    )
    for job in trace.jobs:
        lines.append(" ".join(_format_value(v) for v in job.to_fields()))
    return "\n".join(lines) + "\n"


def dump_swf(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace as an SWF file (gzip-compressing ``*.gz`` paths)."""
    write_text_file(Path(path), dumps_swf(trace))
