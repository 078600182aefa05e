"""Shared test builders for schedulers, requests and RMS environments.

The unit, property and regression suites all need the same small factories:
a request of each type, an application's request sets, a preemptible request
set, and a wired (simulator, platform, RMS) triple.  They used to be
copy-pasted across ``tests/unit/test_scheduler.py``, ``test_rms.py`` and
``test_eqschedule.py``; this module is the single home, imported by the
tests, benchmarks and examples alike.
"""
from __future__ import annotations

import math
from typing import List, Optional, Tuple

from .cluster.platform import Platform
from .core.request import Request
from .core.request_set import ApplicationRequests, RequestSet
from .core.rms import CooRMv2
from .core.types import RelatedHow, RequestType
from .sim.engine import Simulator

__all__ = [
    "pa",
    "np_",
    "p_",
    "app_with",
    "p_set",
    "make_env",
    "RecordingApp",
    "linspace",
]


def pa(n: int, duration: float = math.inf, cluster: str = "c0") -> Request:
    """A pre-allocation request."""
    return Request(cluster, n, duration, RequestType.PREALLOCATION)


def np_(
    n: int,
    duration: float = math.inf,
    cluster: str = "c0",
    related_how: RelatedHow = RelatedHow.FREE,
    related_to: Optional[Request] = None,
) -> Request:
    """A non-preemptible request."""
    return Request(
        cluster, n, duration, RequestType.NON_PREEMPTIBLE, related_how, related_to
    )


def p_(
    n: int,
    duration: float = math.inf,
    cluster: str = "c0",
    related_how: RelatedHow = RelatedHow.FREE,
    related_to: Optional[Request] = None,
) -> Request:
    """A preemptible request."""
    return Request(
        cluster, n, duration, RequestType.PREEMPTIBLE, related_how, related_to
    )


def app_with(*requests: Request, app_id: str = "app") -> ApplicationRequests:
    """An application's request sets pre-filled with *requests*."""
    app = ApplicationRequests(app_id)
    for r in requests:
        app.add(r)
    return app


def p_set(*requests: Request) -> RequestSet:
    """A preemptible request set holding *requests*."""
    rs = RequestSet(RequestType.PREEMPTIBLE)
    for r in requests:
        rs.add(r)
    return rs


def make_env(
    nodes: int = 16, interval: float = 1.0, **rms_kwargs
) -> Tuple[Simulator, Platform, CooRMv2]:
    """A wired (simulator, platform, RMS) triple on one homogeneous cluster.

    Extra keyword arguments (``policy``, ``kill_protocol_violators``, ...)
    forward to :class:`CooRMv2`.
    """
    simulator = Simulator()
    platform = Platform.single_cluster(nodes)
    rms = CooRMv2(
        platform, simulator, rescheduling_interval=interval, **rms_kwargs
    )
    return simulator, platform, rms


class RecordingApp:
    """A minimal application that records every RMS callback."""

    def __init__(self, name: str):
        self.name = name
        self.views = []
        self.started = []
        self.killed_reason = None

    def on_views(self, non_preemptive, preemptive):
        self.views.append((non_preemptive, preemptive))

    def on_start(self, request, node_ids):
        self.started.append((request, node_ids))

    def on_killed(self, reason):
        self.killed_reason = reason


def linspace(start: float, stop: float, num: int) -> List[float]:
    """``numpy.linspace(start, stop, num)``'s values (*num* >= 2): fixed working sets."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]
