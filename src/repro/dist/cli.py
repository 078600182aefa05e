"""The ``python -m repro dist`` command group.

Commands::

    python -m repro dist coordinator --scenarios fig9 --seeds 4 --bind 127.0.0.1:7717
    python -m repro dist worker --connect 127.0.0.1:7717
    python -m repro dist status --connect 127.0.0.1:7717

``dist coordinator`` runs a campaign as a standalone TCP coordinator:
it binds the given endpoint, serves run units to any worker that connects
(plus ``--workers N`` locally launched ones), and persists records exactly
like ``campaign run`` -- same store layout, byte-identical rows.
``dist worker`` joins a running coordinator from another process or host;
``dist status`` asks a running coordinator for its live queue counters.

For single-host campaigns, ``campaign run --backend dist`` wraps all of
this behind one command; this group exists for multi-process and
multi-host topologies where workers outlive or join a campaign midway.
"""
from __future__ import annotations

import argparse
import sys

from ..obs.logsetup import get_logger
from .transport import ChannelClosed, connect_tcp, parse_endpoint

__all__ = ["add_dist_commands", "run_dist_command"]

_LOG = get_logger("dist")

#: Default coordinator endpoint: fixed (not ephemeral) so workers started
#: without flags find it.
DEFAULT_ENDPOINT = "127.0.0.1:7717"


def add_dist_commands(commands: argparse._SubParsersAction) -> None:
    """Attach the ``dist`` command group to the top-level CLI parser."""
    dist = commands.add_parser(
        "dist", help="distributed campaign execution (coordinator/worker)"
    )
    actions = dist.add_subparsers(dest="action", required=True)

    coord = actions.add_parser(
        "coordinator", help="run a campaign as a standalone TCP coordinator"
    )
    coord.add_argument(
        "--scenarios", required=True,
        help="comma-separated built-in scenario names (see 'campaign scenarios')",
    )
    coord.add_argument("--seeds", type=int, default=1, help="replicates per scenario")
    coord.add_argument("--root-seed", type=int, default=0, help="campaign root seed")
    coord.add_argument("--name", help="campaign name (defaults to the scenario list)")
    coord.add_argument("--results-dir", default=None, help="result store root")
    coord.add_argument(
        "--bind", default=DEFAULT_ENDPOINT,
        help=f"TCP endpoint to serve workers on (default {DEFAULT_ENDPOINT})",
    )
    coord.add_argument(
        "--workers", type=int, default=0,
        help="locally launched TCP workers (default 0: external workers only)",
    )
    coord.add_argument(
        "--resume", action="store_true",
        help="skip runs whose idempotency key already has a store row",
    )
    coord.add_argument(
        "--append", action="store_true",
        help="append to existing records instead of replacing them",
    )
    coord.add_argument(
        "--lease-ttl", type=float, default=30.0,
        help="seconds before an unacknowledged lease is reclaimed",
    )
    coord.add_argument(
        "--max-attempts", type=int, default=4,
        help="attempts per run unit before it fails terminally",
    )
    coord.add_argument("--quiet", action="store_true", help="suppress progress output")

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


def _cmd_coordinator(args: argparse.Namespace) -> int:
    from ..campaign.registry import resolve_scenarios
    from ..campaign.runner import CampaignInterrupted, CampaignRunner
    from ..campaign.spec import CampaignSpec
    from ..campaign.store import ResultStore
    from .coordinator import DistConfig

    names = [n.strip() for n in args.scenarios.split(",") if n.strip()]
    try:
        scenarios = resolve_scenarios(names)
        parse_endpoint(args.bind)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    spec = CampaignSpec(
        name=args.name or "-".join(names) + f"_x{args.seeds}",
        scenarios=tuple(scenarios),
        seeds=args.seeds,
        root_seed=args.root_seed,
        workers=max(1, args.workers),
    )
    store = ResultStore(args.results_dir)

    def progress(done: int, total: int, record) -> None:
        if not args.quiet:
            _LOG.info(
                "[%d/%d] %s replicate=%s", done, total,
                record["scenario"], record["replicate"],
            )

    config = DistConfig(
        transport="tcp",
        bind=args.bind,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
    )
    print(f"coordinator serving campaign {spec.name!r} on {args.bind}", flush=True)
    runner = CampaignRunner(spec, store=store, progress=progress)
    try:
        result = runner.run(
            workers=args.workers, append=args.append,
            backend="dist", resume=args.resume, dist=config,
        )
    except CampaignInterrupted as exc:
        partial = exc.result
        print(
            f"interrupted: {len(partial.records)} completed run(s) flushed to "
            f"{partial.store_path}; re-run with --resume to finish",
            file=sys.stderr,
        )
        return 130
    skipped = f" ({result.skipped} resumed)" if result.skipped else ""
    print(
        f"campaign {spec.name!r}: {len(result.records)} runs{skipped} in "
        f"{result.elapsed_seconds:.2f}s -> {result.store_path}"
    )
    return 0


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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


def _cmd_status(args: argparse.Namespace) -> int:
    try:
        host, port = parse_endpoint(args.connect)
        channel = connect_tcp(host, port, timeout=args.timeout)
    except (ValueError, OSError) as exc:
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


def run_dist_command(args: argparse.Namespace) -> int:
    handlers = {
        "coordinator": _cmd_coordinator,
        "worker": _cmd_worker,
        "status": _cmd_status,
    }
    return handlers[args.action](args)
