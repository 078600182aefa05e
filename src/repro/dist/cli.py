"""The ``python -m repro dist`` command group.

Commands::

    python -m repro dist worker --connect 127.0.0.1:7717
    python -m repro dist status --connect 127.0.0.1:7717

Both talk to a coordinator that ``python -m repro campaign run --transport
tcp --bind 127.0.0.1:7717`` is serving (with ``--workers 0`` it launches no
worker of its own and waits for these).  ``dist worker`` joins it from
another process or host, at any point of the campaign; ``dist status`` asks
it for its live queue counters.
"""
from __future__ import annotations

import argparse
import sys

from .transport import ChannelClosed, connect_tcp, parse_endpoint

__all__ = ["add_commands", "run_command"]

#: Default coordinator endpoint: fixed (not ephemeral) so workers started
#: without flags find it.
DEFAULT_ENDPOINT = "127.0.0.1:7717"


def add_commands(dist: argparse.ArgumentParser) -> None:
    """Attach the sub-commands to the ``dist`` group's parser."""
    actions = dist.add_subparsers(dest="action", required=True)

    worker = actions.add_parser(
        "worker", help="join a running coordinator as a TCP worker"
    )
    worker.add_argument(
        "--connect", default=DEFAULT_ENDPOINT,
        help=f"coordinator endpoint (default {DEFAULT_ENDPOINT})",
    )
    worker.add_argument("--worker-id", default=None, help="override the worker identity")
    worker.add_argument(
        "--heartbeat", type=float, default=5.0,
        help="seconds between lease-extending heartbeats (0 disables)",
    )
    worker.add_argument(
        "--kill-after", type=int, default=0, metavar="N",
        help="chaos: die abruptly after the Nth granted lease (testing)",
    )

    status = actions.add_parser(
        "status", help="query a running coordinator's queue counters"
    )
    status.add_argument(
        "--connect", default=DEFAULT_ENDPOINT,
        help=f"coordinator endpoint (default {DEFAULT_ENDPOINT})",
    )
    status.add_argument(
        "--timeout", type=float, default=5.0, help="reply timeout in seconds"
    )


def _cmd_worker(args: argparse.Namespace) -> int:
    from .worker import run_standalone_worker

    options = {
        "heartbeat_interval": args.heartbeat,
        "kill_after_leases": args.kill_after,
    }
    if args.worker_id:
        options["worker_id"] = args.worker_id
    try:
        return run_standalone_worker(args.connect, options)
    except KeyboardInterrupt:
        return 130


def _cmd_status(args: argparse.Namespace) -> int:
    host, port = parse_endpoint(args.connect)
    try:
        channel = connect_tcp(host, port, timeout=args.timeout)
    except OSError as exc:
        print(f"error: cannot reach coordinator at {args.connect}: {exc}",
              file=sys.stderr)
        return 2
    try:
        channel.send({"op": "status", "worker": "status-cli"})
        reply = channel.recv(args.timeout)
    except ChannelClosed as exc:
        print(f"error: coordinator dropped the connection: {exc}", file=sys.stderr)
        return 2
    finally:
        channel.close()
    if reply is None:
        print("error: no status reply before the timeout", file=sys.stderr)
        return 2
    for key in sorted(k for k in reply if k != "op"):
        print(f"{key}: {reply[key]}")
    return 0


def run_command(args: argparse.Namespace) -> int:
    handlers = {
        "worker": _cmd_worker,
        "status": _cmd_status,
    }
    return handlers[args.action](args)
