"""Sim-time structured tracing with deterministic, diffable exports.

An :class:`EventTracer` records structured events stamped with **simulated**
time (never wall-clock time) and an emission sequence number.  Because every
argument an instrumentation site passes is itself a pure function of the
simulation (callback qualnames, request counts, cluster names -- no object
ids, no timestamps, no process state), the recorded stream is byte-identical
for identical ``(scenario, policy, seed)`` runs at any campaign worker
count; the regression suite pins one export as a golden fixture.

Two export formats are supported:

* **JSONL** -- one sorted-keys JSON object per event; the canonical,
  diff-friendly format (`load_jsonl` reads it back).
* **Chrome ``trace_event`` JSON** -- loadable in ``chrome://tracing`` and
  Perfetto.  Simulated seconds are mapped to trace microseconds, categories
  become named threads, instant events carry their args, and counter events
  render as counter tracks.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .logsetup import get_logger

__all__ = [
    "TraceEvent",
    "EventTracer",
    "load_jsonl",
    "load_chrome",
    "diff_events",
]

_LOG = get_logger("obs")


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event: simulated time + category + name + flat args."""

    #: Simulated time of the event, seconds.
    ts: float
    #: Emission order within the run (ties on ``ts`` stay ordered).
    seq: int
    #: Category: the subsystem that emitted the event (``engine``,
    #: ``scheduler``, ``federation``, ...); becomes a thread in Chrome.
    cat: str
    #: Event name within the category.
    name: str
    #: Chrome phase: ``"i"`` (instant) or ``"C"`` (counter).
    ph: str = "i"
    #: Flat, JSON-serialisable, deterministic arguments.
    args: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ts": self.ts,
            "seq": self.seq,
            "cat": self.cat,
            "name": self.name,
            "ph": self.ph,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TraceEvent":
        return cls(
            ts=float(data["ts"]),
            seq=int(data["seq"]),
            cat=str(data["cat"]),
            name=str(data["name"]),
            ph=str(data.get("ph", "i")),
            args=dict(data.get("args", {}) or {}),
        )


class EventTracer:
    """Append-only recorder of deterministic simulation events.

    The tracer itself never inspects wall-clock time or process identity;
    everything it stores comes from its callers, which are required to pass
    deterministic values only.  ``max_events`` bounds memory on very long
    runs: once reached, further events are counted (``dropped``) but not
    stored, and the export records the truncation explicitly rather than
    silently.
    """

    def __init__(self, max_events: int = 1_000_000):
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = int(max_events)
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self._seq = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def emit(
        self,
        ts: float,
        cat: str,
        name: str,
        args: Optional[Mapping[str, object]] = None,
        ph: str = "i",
    ) -> None:
        """Record one event at simulated time *ts*."""
        seq = self._seq
        self._seq = seq + 1
        if len(self.events) >= self.max_events:
            if self.dropped == 0:
                # One warning per tracer, never per event: a long run past
                # the cap would otherwise flood stderr.  The count keeps
                # accumulating and lands in every summary and export.
                _LOG.warning(
                    "event tracer reached max_events=%d; further events are "
                    "counted as dropped, not stored",
                    self.max_events,
                )
            self.dropped += 1
            return
        self.events.append(
            TraceEvent(ts=float(ts), seq=seq, cat=cat, name=name, ph=ph, args=args or {})
        )

    def counter(self, ts: float, cat: str, name: str, values: Mapping[str, float]) -> None:
        """Record a counter sample (a time-series point, ``ph="C"``)."""
        self.emit(ts, cat, name, args=values, ph="C")

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.events)

    def categories(self) -> Tuple[str, ...]:
        """Distinct categories, sorted."""
        return tuple(sorted({e.cat for e in self.events}))

    def count_by(self) -> Dict[Tuple[str, str], int]:
        """``(category, name) -> occurrence count`` over every event."""
        counts: Dict[Tuple[str, str], int] = {}
        for e in self.events:
            key = (e.cat, e.name)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def of(self, cat: str, name: Optional[str] = None) -> List[TraceEvent]:
        """Events of one category (and optionally one name), in order."""
        return [
            e
            for e in self.events
            if e.cat == cat and (name is None or e.name == name)
        ]

    def summary(self) -> Dict[str, int]:
        """Recorded/dropped/total event counts (``dropped`` is explicit)."""
        return {
            "events": len(self.events),
            "dropped": self.dropped,
            "emitted": len(self.events) + self.dropped,
        }

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_jsonl(self) -> str:
        """Canonical JSONL export: one sorted-keys object per line."""
        lines = [
            json.dumps(e.to_dict(), sort_keys=True, allow_nan=False)
            for e in self.events
        ]
        if self.dropped:
            lines.append(
                json.dumps(
                    {"truncated": True, "dropped_events": self.dropped},
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n" if lines else ""

    def to_chrome(self, label: str = "repro") -> str:
        """Chrome ``trace_event`` JSON (the "JSON object format").

        Categories map to threads of one process; thread-name metadata
        events make ``chrome://tracing`` / Perfetto show the subsystem
        names.  Simulated seconds become trace microseconds.
        """
        cats = self.categories()
        tid_of = {cat: i + 1 for i, cat in enumerate(cats)}
        trace_events: List[Dict[str, object]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": label},
            }
        ]
        for cat in cats:
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid_of[cat],
                    "args": {"name": cat},
                }
            )
        for e in self.events:
            record: Dict[str, object] = {
                "name": e.name,
                "cat": e.cat,
                "ph": e.ph,
                # Simulated seconds -> microseconds, rounded so that float
                # noise cannot leak into the export bytes.
                "ts": round(e.ts * 1e6, 3),
                "pid": 1,
                "tid": tid_of[e.cat],
                # Emission order; Chrome ignores unknown keys, and carrying
                # it makes the export lossless (see ``load_chrome``).
                "seq": e.seq,
                "args": dict(e.args),
            }
            if e.ph == "i":
                record["s"] = "t"  # instant scope: thread
            trace_events.append(record)
        document = {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "repro.obs",
                "event_count": len(self.events),
                "dropped_events": self.dropped,
            },
        }
        return json.dumps(document, sort_keys=True, allow_nan=False, indent=None)


# --------------------------------------------------------------------- #
# Reading exports back (the ``obs diff`` command and the golden tests)
# --------------------------------------------------------------------- #
def load_jsonl(text: str) -> List[TraceEvent]:
    """Parse a JSONL export back into events (truncation markers skipped).

    Raises :class:`ValueError` with the 1-based line number on malformed
    JSON, a non-object line, or an event record missing required keys, so a
    corrupted trace file points at its first broken line instead of a bare
    parser traceback.
    """
    events: List[TraceEvent] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(
                f"line {lineno}: expected a JSON object, got {type(data).__name__}"
            )
        if "truncated" in data:
            continue
        try:
            events.append(TraceEvent.from_dict(data))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"line {lineno}: not a valid trace event ({exc!r}): {line[:120]}"
            ) from exc
    return events


def load_chrome(text: str) -> List[TraceEvent]:
    """Parse a Chrome ``trace_event`` export back into events.

    The inverse of :meth:`EventTracer.to_chrome`: metadata events are
    skipped, thread ids map back to categories via the ``thread_name``
    records, trace microseconds become simulated seconds, and the carried
    ``seq`` keys restore the exact emission order.  Exact up to the
    microsecond rounding of ``ts`` (sub-microsecond simulated times do not
    survive; every whole-microsecond time round-trips bit-for-bit).
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid Chrome trace JSON: {exc}") from exc
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("not a Chrome trace_event document (no 'traceEvents')")
    events: List[TraceEvent] = []
    for record in document["traceEvents"]:
        if record.get("ph") == "M":
            continue
        try:
            events.append(
                TraceEvent(
                    ts=float(record["ts"]) / 1e6,
                    seq=int(record["seq"]),
                    cat=str(record["cat"]),
                    name=str(record["name"]),
                    ph=str(record.get("ph", "i")),
                    args=dict(record.get("args", {}) or {}),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed trace_event record ({exc!r}): {record!r}") from exc
    events.sort(key=lambda e: e.seq)
    return events


def diff_events(
    a: Sequence[TraceEvent], b: Sequence[TraceEvent], context: int = 2
) -> List[str]:
    """Human-readable description of where two event streams diverge.

    Returns an empty list when the streams are identical; otherwise a list
    of description lines: the first divergent index with *context* (default
    +-2) surrounding events of each stream, seq numbers included, or the
    length mismatch when one stream is a prefix of the other.
    """
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            lines = [f"streams diverge at event {i}:"]
            lo = max(0, i - context)
            for side, stream in (("a", a), ("b", b)):
                for j in range(lo, min(len(stream), i + context + 1)):
                    marker = ">>" if j == i else "  "
                    e = stream[j]
                    lines.append(
                        f"{marker} {side}[{j}] seq={e.seq} t={e.ts:g} "
                        f"{e.cat}/{e.name} {dict(e.args)}"
                    )
            return lines
    if len(a) != len(b):
        return [
            f"streams are identical for {limit} events, then lengths differ: "
            f"{len(a)} vs {len(b)}"
        ]
    return []
