"""The paper's guarantees, checked in one pass over an RMS's event log.

:func:`violations` replays ``CooRMv2.event_log`` (it opens with its platform's
capacity) and yields a :class:`Violation` per breach of four :data:`RULES`:
``capacity`` -- the running requests on a cluster fit it, across capacity
changes; ``held twice`` -- no start takes a node a running request holds (a
``NEXT`` hand-over takes a finished predecessor's); ``non-preemptible`` -- a
non-preemptible request starts whole, and it or a pre-allocation ends only by
``done``, by expiry at start + duration, or by its session's kill or
disconnect; ``ends once`` -- every start ends once, by a record of what it
started on, before its session closes.  The log does not name the nodes a
finished request keeps for its ``NEXT`` successor: they are outside the rules.
Check a federation one member RMS at a time.  Nothing in a run calls this.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..core.events import CapacityChanged, Disconnected, EventLog, RequestDone, RequestFinished
from ..core.events import RequestStarted, RequestSubmitted, SessionKilled
from ..core.types import NON_PREEMPTIBLE, PREALLOCATION, PREEMPTIBLE, Time

__all__ = ["RULES", "Violation", "violations"]

RULES = ("capacity", "held twice", "non-preemptible", "ends once")
CAPACITY, HELD_TWICE, WHOLE, ENDS_ONCE = RULES
_NP, _PA, _P = NON_PREEMPTIBLE.value, PREALLOCATION.value, PREEMPTIBLE.value


@dataclass(frozen=True)
class Violation:
    """One breach of *rule*, at the record that showed it."""

    rule: str
    time: Time
    cluster: str
    app: str
    request: Optional[int]  # None for a capacity change


def violations(log: EventLog) -> Iterator[Violation]:
    """Every breach of :data:`RULES` in *log*, in log order."""
    capacity = dict(log.capacity)
    held = {cid: set() for cid in capacity}  # cluster -> nodes of its running requests
    submitted, running, unexplained, done = {}, {}, [], None
    for record in log:
        kind, app = type(record), record.app_id
        if unexplained and not (kind is RequestFinished and app == unexplained[0].app):
            if not (kind in (Disconnected, SessionKilled) and app == unexplained[0].app):
                yield from unexplained  # an end by neither done nor expiry, and no close
            unexplained = []
        if kind is RequestSubmitted:
            submitted[record.request_id] = record
        elif kind is RequestStarted:
            rid, cid, nodes = record.request_id, record.cluster_id, record.node_ids
            at, taken = (record.time, cid, app, rid), held[cid]
            if rid in running:
                yield Violation(ENDS_ONCE, *at)
            if record.rtype == _NP and len(nodes) != submitted[rid].node_count:
                yield Violation(WHOLE, *at)
            running[rid], before = record, len(taken)
            taken.update(nodes)
            if len(taken) != before + len(nodes):
                yield Violation(HELD_TWICE, *at)
            if len(taken) > capacity[cid]:
                yield Violation(CAPACITY, *at)
        elif kind is RequestFinished:
            rid, start = record.request_id, running.pop(record.request_id, None)
            at = (record.time, record.cluster_id, app, rid)
            if start is not None:
                held[start.cluster_id].difference_update(start.node_ids)
            if (start is None) == record.started or start is not None and (
                    record.started_at, record.rtype, record.cluster_id, record.nodes) != (
                    start.time, start.rtype, start.cluster_id,
                    submitted[rid].node_count if start.rtype == _PA else len(start.node_ids)):
                yield Violation(ENDS_ONCE, *at)
            if record.started and record.rtype != _P:
                if record.expired and record.time != record.started_at + submitted[rid].duration:
                    yield Violation(WHOLE, *at)
                elif not (record.expired or done == rid):
                    unexplained.append(Violation(WHOLE, *at))
        elif kind is Disconnected or kind is SessionKilled:
            for start in [s for s in running.values() if s.app_id == app]:
                yield Violation(ENDS_ONCE, record.time, start.cluster_id, app, start.request_id)
                del running[start.request_id]
                held[start.cluster_id].difference_update(start.node_ids)
        elif kind is CapacityChanged:
            capacity[record.cluster_id] = record.node_count
            if len(held[record.cluster_id]) > record.node_count:
                yield Violation(CAPACITY, record.time, record.cluster_id, "", None)
        done = record.request_id if kind is RequestDone else None
    yield from unexplained
