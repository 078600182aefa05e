"""The ``python -m repro policy`` command group.

Commands::

    python -m repro policy list
    python -m repro policy describe NAME [--json]
    python -m repro policy stages

``list`` fronts the policy registry with one line per registered policy;
``describe`` prints a policy's stage composition and documentation;
``stages`` enumerates the individual stage implementations a custom
policy mapping may reference.
"""
from __future__ import annotations

import argparse
import json

from ..metrics.report import format_table
from ..obs.logsetup import get_logger
from .registry import BACKFILLS, ORDERINGS, POLICIES, SHARINGS, get_policy

#: The stage tables in the order a policy composes them.
_STAGE_TABLES = (("ordering", ORDERINGS), ("backfill", BACKFILLS), ("sharing", SHARINGS))

__all__ = ["add_commands", "run_command"]

_LOG = get_logger("policy")


def add_commands(policy: argparse.ArgumentParser) -> None:
    """Attach the sub-commands to the ``policy`` group's parser."""
    actions = policy.add_subparsers(dest="action", required=True)

    actions.add_parser("list", help="list registered policies")

    describe = actions.add_parser(
        "describe", help="show one policy's stage composition"
    )
    describe.add_argument("name", help="registered policy name")
    describe.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    actions.add_parser("stages", help="list individual stage implementations")


def _cmd_list(_args: argparse.Namespace) -> int:
    _LOG.debug("listing %d registered policies", len(POLICIES.names()))
    policies = [POLICIES.get(name) for name in POLICIES.names()]
    rows = [(p.name, p.ordering, p.backfill, p.sharing, p.description) for p in policies]
    print(format_table(["policy", "ordering", "backfill", "sharing", "description"], rows))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    policy = get_policy(args.name)
    if args.json:
        print(json.dumps(policy.to_dict(), indent=2, sort_keys=True))
        return 0
    print(policy.describe())
    print()
    names = policy.stage_names()
    rows = [
        (stage, names[stage], table.describe(names[stage]))
        for stage, table in _STAGE_TABLES
    ]
    print(format_table(["stage", "implementation", "behaviour"], rows))
    return 0


def _cmd_stages(_args: argparse.Namespace) -> int:
    rows = [
        (stage, name, table.describe(name))
        for stage, table in _STAGE_TABLES
        for name in table.names()
    ]
    print(format_table(["stage", "name", "behaviour"], rows))
    return 0


def run_command(args: argparse.Namespace) -> int:
    handlers = {
        "list": _cmd_list,
        "describe": _cmd_describe,
        "stages": _cmd_stages,
    }
    return handlers[args.action](args)
