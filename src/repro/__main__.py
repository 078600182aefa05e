"""``python -m repro`` -- centralised subcommand dispatch.

Every command group registers itself here through one uniform interface: a
``(name, add_commands, run_command)`` triple, where ``add_commands`` attaches
the group's sub-parser to the top-level parser and ``run_command`` executes a
parsed invocation.  ``python -m repro --help`` therefore always lists every
group -- adding one is a single entry in :data:`COMMAND_GROUPS`, not an edit
to an ad-hoc dispatch chain.

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
from typing import List, Optional

from .campaign.cli import add_campaign_commands, run_campaign_command
from .core.errors import ReproError
from .dist.cli import add_dist_commands, run_dist_command
from .federation.cli import add_federation_commands, run_federation_command
from .obs.cli import add_obs_commands, run_obs_command
from .obs.logsetup import logging_setup
from .policies.cli import add_policy_commands, run_policy_command
from .traces.cli import add_trace_commands, run_trace_command

__all__ = ["COMMAND_GROUPS", "build_parser", "main"]

#: The registered command groups, in help-listing order.
COMMAND_GROUPS = (
    ("campaign", add_campaign_commands, run_campaign_command),
    ("dist", add_dist_commands, run_dist_command),
    ("trace", add_trace_commands, run_trace_command),
    ("policy", add_policy_commands, run_policy_command),
    ("federation", add_federation_commands, run_federation_command),
    ("obs", add_obs_commands, run_obs_command),
)


def build_parser() -> argparse.ArgumentParser:
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
    for _name, add_commands, _run_command in COMMAND_GROUPS:
        add_commands(commands)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging_setup(
        verbose=getattr(args, "log_verbose", False),
        quiet=getattr(args, "log_quiet", False),
    )
    for name, _add_commands, run_command in COMMAND_GROUPS:
        if args.command == name:
            try:
                return run_command(args)
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
