"""``python -m repro`` -- centralised subcommand dispatch.

Every command group registers itself here through one uniform interface: a
``(name, help, module)`` triple, where the module's ``add_commands`` attaches
the group's sub-commands to the group's parser and its ``run_command``
executes a parsed invocation.  ``python -m repro --help`` therefore always
lists every group -- adding one is a single entry in :data:`COMMAND_GROUPS`,
not an edit to an ad-hoc dispatch chain -- and a group's module is imported
when the group is dispatched: ``policy list`` does not pay for ``obs``.

The top-level parser also carries the global ``-v``/``--verbose`` and
``-q``/``--quiet`` flags; :func:`main` feeds them into the shared
:func:`repro.obs.logging_setup` before dispatching, so every group's
narration obeys the same verbosity control.  It is also the one place a
library error (:class:`~repro.core.errors.ReproError`) is turned into an
``error:`` line on stderr and exit status 2, so no group prints a traceback
for a bad input it did not anticipate.
"""
from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import List, Optional

from .core.errors import ReproError
from .obs.logsetup import logging_setup

__all__ = ["COMMAND_GROUPS", "build_parser", "main"]

#: The registered command groups, in help-listing order.
COMMAND_GROUPS = (
    ("campaign", "run and inspect campaigns", "repro.campaign.cli"),
    ("dist", "join or query a 'campaign run --transport tcp' coordinator", "repro.dist.cli"),
    ("trace", "inspect, transform and synthesize workload traces", "repro.traces.cli"),
    ("policy", "inspect the scheduling-policy registry", "repro.policies.cli"),
    ("federation", "inspect routing policies and run federated scenarios",
     "repro.federation.cli"),
    ("obs", "trace, summarize and analyse simulation runs", "repro.obs.cli"),
)


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The top-level parser; with *only*, every other group is name and help."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "CooRMv2 reproduction -- campaign orchestration, workload traces, "
            "scheduling policies, multi-cluster federation and observability."
        ),
    )
    # Distinct dests (log_verbose/log_quiet) keep these global flags from
    # colliding with subcommand options like ``campaign run --quiet``:
    # argparse lets a subparser's defaults clobber same-named parent values.
    parser.add_argument(
        "-v", "--verbose", dest="log_verbose", action="store_true",
        help="debug-level narration on stderr",
    )
    parser.add_argument(
        "-q", "--quiet", dest="log_quiet", action="store_true",
        help="warnings and errors only on stderr",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text, module in COMMAND_GROUPS:
        group = commands.add_parser(name, help=help_text)
        if only in (None, name):
            import_module(module).add_commands(group)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top-level options take no value, so the first bare word names the
    # group; with none (``--help``) or an unknown one nothing is imported.
    only = next((word for word in argv if not word.startswith("-")), "")
    args = build_parser(only).parse_args(argv)
    logging_setup(
        verbose=getattr(args, "log_verbose", False),
        quiet=getattr(args, "log_quiet", False),
    )
    module = {name: module for name, _help, module in COMMAND_GROUPS}[args.command]
    try:
        return import_module(module).run_command(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
