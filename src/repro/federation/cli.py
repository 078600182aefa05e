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
import sys
from dataclasses import replace

from ..metrics.report import format_table
from ..obs.logsetup import get_logger
from ..sim.randomness import derive_seed
from .routing import describe_routing, make_routing, routing_names
from .spec import get_topology, topology_names

__all__ = ["add_federation_commands", "run_federation_command"]

_LOG = get_logger("federation")


def add_federation_commands(commands: argparse._SubParsersAction) -> None:
    """Attach the ``federation`` command group to the top-level CLI parser."""
    federation = commands.add_parser(
        "federation", help="inspect routing policies and run federated scenarios"
    )
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
    from ..faults.plan import fault_plan_names, get_fault_plan

    rows = [
        ("routing", name, describe_routing(name)) for name in routing_names()
    ]
    for name in topology_names():
        topology = get_topology(name)
        rows.append(("topology", name, topology.label()))
    for name in fault_plan_names():
        rows.append(("fault-plan", name, get_fault_plan(name).label()))
    print(format_table(["kind", "name", "description"], rows))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    if args.name in routing_names():
        if args.json:
            print(
                json.dumps(
                    {"routing": args.name, "description": describe_routing(args.name)},
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        policy = make_routing(args.name)
        print((policy.__doc__ or "").strip())
        return 0
    try:
        topology = get_topology(args.name)
    except KeyError:
        print(
            f"error: unknown routing policy or topology {args.name!r}; "
            f"routings: {routing_names()}, topologies: {topology_names()}",
            file=sys.stderr,
        )
        return 2
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
    from ..campaign.registry import builtin_scenarios, get_runner

    scenarios = builtin_scenarios()
    if args.scenario not in scenarios:
        print(
            f"error: unknown scenario {args.scenario!r}; known: "
            f"{sorted(scenarios)}",
            file=sys.stderr,
        )
        return 2
    try:
        topology = get_topology(args.topology)
        if args.routing is not None:
            topology = topology.with_routing(args.routing)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    spec = replace(scenarios[args.scenario], federation=topology)
    if args.faults is not None:
        try:
            spec = replace(spec, faults=args.faults)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    seed = derive_seed(args.seed, spec.name, 0)
    try:
        metrics = dict(get_runner(spec.runner)(spec, seed))
    except ValueError as exc:
        # e.g. a figure runner rejecting federation, or a topology none of
        # whose clusters can hold the scenario's applications.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _LOG.info(
        "scenario %r on topology %r (routing %r, seed %d)",
        spec.name,
        args.topology,
        topology.routing,
        seed,
    )
    print(format_table(["metric", "value"], sorted(metrics.items())))
    return 0


def run_federation_command(args: argparse.Namespace) -> int:
    handlers = {
        "list": _cmd_list,
        "describe": _cmd_describe,
        "run": _cmd_run,
    }
    return handlers[args.action](args)
