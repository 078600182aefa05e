"""The campaign execution tier: coordinator/worker runs over RPC.

Every campaign that asks for more than one worker runs here, on one host or
many: a :class:`~repro.dist.coordinator.Coordinator` owns an in-memory
:class:`~repro.dist.workqueue.WorkQueue` of run units and serves pull-based
workers over one of three interchangeable transports, all carrying the same
length-prefixed JSON frames over sockets -- subprocesses on socket pairs
(``ipc``, the local default), TCP connections (``tcp``, which workers on
other hosts can join) and threads on socket pairs (``thread``, the rung the
protocol tests drive).  Determinism is preserved
end to end: leases interleave freely, but results are keyed by idempotency
key and reassembled in canonical order, so store rows are byte-identical to
a serial run at any worker count.

Entry points: ``campaign run --workers N [--transport tcp --bind HOST:PORT]``
and, to join or query a tcp coordinator, ``python -m repro dist worker|status``.
"""
from .coordinator import Coordinator, DistConfig, DistOutcome
from .transport import TRANSPORT_NAMES, ChannelClosed, make_transport
from .worker import run_standalone_worker, worker_loop
from .workqueue import WorkQueue

__all__ = [
    "Coordinator",
    "DistConfig",
    "DistOutcome",
    "TRANSPORT_NAMES",
    "ChannelClosed",
    "make_transport",
    "worker_loop",
    "run_standalone_worker",
    "WorkQueue",
    "ensure_noop_runner",
]

#: Name of the no-op scenario runner used by dispatch-overhead benchmarks.
NOOP_RUNNER = "dist-noop"


def ensure_noop_runner() -> str:
    """Register the benchmark no-op runner (idempotent); returns its name.

    The runner does no simulation at all -- it returns a constant metric
    dict -- so campaigns built on it measure pure dispatch overhead:
    queue bookkeeping, RPC round-trips and record reassembly.
    """
    from ..campaign.registry import RUNNERS

    if NOOP_RUNNER not in RUNNERS:
        @RUNNERS.register(NOOP_RUNNER)
        def _noop(spec, seed):  # pragma: no cover - trivial
            return {"noop": 1.0, "seed": float(seed)}

    return NOOP_RUNNER
