"""The ``python -m repro federation`` command group.

Commands::

    python -m repro federation list
    python -m repro federation describe NAME [--json]
    python -m repro federation run --topology hetero3 --routing least-loaded \
        --scenario trace-replay [--seed N]

``list`` fronts the routing-policy registry and the built-in federation
topologies; ``describe`` prints one routing policy's behaviour or one
topology's member clusters; ``run`` executes a single federated scenario --
a built-in scenario re-homed onto a named topology -- and prints its
metrics, including the per-cluster breakdown.
"""
from __future__ import annotations

import argparse
import json
from dataclasses import replace

from ..core.registry import unknown_name
from ..metrics.report import format_table
from ..obs.logsetup import get_logger
from ..sim.randomness import derive_seed
from .routing import ROUTINGS
from .spec import TOPOLOGIES

__all__ = ["add_commands", "run_command"]

_LOG = get_logger("federation")


def add_commands(federation: argparse.ArgumentParser) -> None:
    """Attach the sub-commands to the ``federation`` group's parser."""
    actions = federation.add_subparsers(dest="action", required=True)

    actions.add_parser(
        "list", help="list routing policies and built-in topologies"
    )

    describe = actions.add_parser(
        "describe", help="show one routing policy or topology"
    )
    describe.add_argument("name", help="routing policy or topology name")
    describe.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    run = actions.add_parser("run", help="run one scenario on a federation")
    run.add_argument(
        "--scenario", default="trace-replay",
        help="built-in scenario to federate (default: trace-replay)",
    )
    run.add_argument(
        "--topology", default="hetero3",
        help="built-in federation topology (default: hetero3)",
    )
    run.add_argument(
        "--routing", default=None,
        help="routing policy override (default: the topology's own)",
    )
    run.add_argument(
        "--faults", default=None,
        help="fault plan to arm against the federation (a registered plan "
        "name, see `federation list`)",
    )
    run.add_argument("--seed", type=int, default=0, help="root seed (default 0)")


def _cmd_list(_args: argparse.Namespace) -> int:
    from ..faults.plan import FAULT_PLANS, get_fault_plan

    rows = [("routing", name, ROUTINGS.describe(name)) for name in ROUTINGS.names()]
    rows += [
        ("topology", name, TOPOLOGIES.get(name).label()) for name in TOPOLOGIES.names()
    ]
    rows += [
        ("fault-plan", name, get_fault_plan(name).label())
        for name in FAULT_PLANS.names()
    ]
    print(format_table(["kind", "name", "description"], rows))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    if args.name in ROUTINGS:
        if args.json:
            print(
                json.dumps(
                    {"routing": args.name, "description": ROUTINGS.describe(args.name)},
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        print((ROUTINGS.get(args.name).__doc__ or "").strip())
        return 0
    if args.name not in TOPOLOGIES:
        raise unknown_name(
            "routing policy or topology", args.name, ROUTINGS.names() + TOPOLOGIES.names()
        )
    topology = TOPOLOGIES.get(args.name)
    if args.json:
        print(json.dumps(topology.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"topology {args.name}: routing={topology.routing}")
    rows = [
        (c.name, c.nodes if c.nodes else "derived", c.policy or "(scenario default)")
        for c in topology.clusters
    ]
    print(format_table(["cluster", "nodes", "policy"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    # Imported here: the campaign layer depends on this package, so the
    # module level must stay import-light to avoid a cycle.
    from ..campaign.registry import get_runner, resolve_scenarios

    topology = TOPOLOGIES.get(args.topology)
    if args.routing is not None:
        topology = topology.with_routing(args.routing)
    # A figure runner rejecting federation, a sweep run as one point, an
    # unknown fault plan, a topology none of whose clusters can hold the
    # scenario's applications: every rejection is a ReproError, which
    # ``repro.__main__`` reports.
    (spec,) = resolve_scenarios([args.scenario])
    spec = replace(spec, federation=topology)
    if args.faults is not None:
        spec = replace(spec, faults=args.faults)
    seed = derive_seed(args.seed, spec.name, 0)
    metrics = dict(get_runner(spec.runner)(spec, seed))
    _LOG.info(
        "scenario %r on topology %r (routing %r, seed %d)",
        spec.name,
        args.topology,
        topology.routing,
        seed,
    )
    print(format_table(["metric", "value"], sorted(metrics.items())))
    return 0


def run_command(args: argparse.Namespace) -> int:
    handlers = {
        "list": _cmd_list,
        "describe": _cmd_describe,
        "run": _cmd_run,
    }
    return handlers[args.action](args)
