"""The ``python -m repro trace`` command group.

Commands::

    python -m repro trace info TRACE.swf[.gz] [--lenient]
    python -m repro trace convert TRACE.swf OUT.swf[.gz] [transform flags]
    python -m repro trace synth OUT.swf[.gz] --jobs 200 --seed 7 [model flags]

``info`` prints the header directives and summary statistics of a trace;
``convert`` applies a transformation chain (and optionally an adaptive-kind
mix preview) and writes the result; ``synth`` draws a synthetic trace from a
statistical model.  All commands read and write gzip-compressed traces
transparently based on the file suffix.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List

from ..core.errors import WorkloadError
from ..metrics.report import format_table
from ..obs.logsetup import get_logger
from .convert import AdaptiveMix, convert_trace, mix_counts
from .models import (
    DailyCycleArrivals,
    LogNormalDuration,
    LogUniformNodes,
    PoissonArrivals,
    TraceModel,
)
from .swf import Trace, dump_swf, load_swf
from .transform import (
    ClampNodes,
    FilterJobs,
    LoadRescale,
    Pipeline,
    ShiftToZero,
    TimeWindow,
)

__all__ = ["add_commands", "run_command"]

_LOG = get_logger("trace")


def add_commands(trace: argparse.ArgumentParser) -> None:
    """Attach the sub-commands to the ``trace`` group's parser."""
    actions = trace.add_subparsers(dest="action", required=True)

    info = actions.add_parser("info", help="print header directives and job statistics")
    info.add_argument("path", help="SWF trace file (.swf or .swf.gz)")
    info.add_argument(
        "--lenient", action="store_true",
        help="skip malformed job lines instead of failing",
    )
    info.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON",
    )

    convert = actions.add_parser(
        "convert", help="transform a trace and write the result"
    )
    convert.add_argument("path", help="input SWF trace file")
    convert.add_argument("output", help="output SWF trace file (.gz compresses)")
    convert.add_argument(
        "--lenient", action="store_true",
        help="skip malformed job lines instead of failing",
    )
    convert.add_argument(
        "--window", nargs=2, type=float, metavar=("START", "END"),
        help="keep jobs submitted in [START, END) seconds",
    )
    convert.add_argument(
        "--load-factor", type=float, default=None,
        help="rescale the offered load (2 doubles it, 0.5 halves it)",
    )
    convert.add_argument(
        "--clamp-nodes", type=int, default=None,
        help="clamp job node counts to this cluster size",
    )
    convert.add_argument(
        "--min-duration", type=float, default=None,
        help="drop jobs shorter than this many seconds",
    )
    convert.add_argument(
        "--drop-invalid", action="store_true",
        help="drop records that cannot run (unknown size or duration)",
    )
    convert.add_argument(
        "--shift-to-zero", action="store_true",
        help="re-base submit times so the first job arrives at t=0",
    )
    convert.add_argument(
        "--mix", default=None,
        help='preview an adaptive conversion, e.g. "rigid=0.5,malleable=0.5"',
    )

    synth = actions.add_parser(
        "synth", help="synthesize a trace from a statistical model"
    )
    synth.add_argument("output", help="output SWF trace file (.gz compresses)")
    synth.add_argument("--jobs", type=int, default=200, help="number of jobs")
    synth.add_argument("--seed", type=int, default=0, help="synthesis seed")
    synth.add_argument(
        "--arrivals", choices=("poisson", "daily"), default="poisson",
        help="arrival process (constant-rate Poisson or daily cycle)",
    )
    synth.add_argument(
        "--mean-interarrival", type=float, default=300.0,
        help="mean seconds between submissions",
    )
    synth.add_argument(
        "--max-nodes", type=int, default=128, help="largest node count drawn"
    )
    synth.add_argument(
        "--median-runtime", type=float, default=1800.0,
        help="median job runtime, seconds",
    )
    synth.add_argument(
        "--fit-from", default=None,
        help="fit the model from this SWF trace instead of the flags above",
    )


def _trace_summary_rows(trace: Trace) -> List[tuple]:
    rigid = trace.to_rigid_jobs()
    rows = [
        ("jobs", trace.job_count),
        ("runnable jobs", len(rigid)),
        ("max nodes", trace.max_nodes),
        ("span (s)", round(trace.span, 3)),
        ("total node-seconds", round(trace.total_area(), 3)),
    ]
    if trace.skipped_lines:
        rows.append(("skipped lines", trace.skipped_lines))
    if rigid:
        rows.append(
            ("mean interarrival (s)",
             round(trace.span / max(1, len(rigid) - 1), 3))
        )
    return rows


def _cmd_info(args: argparse.Namespace) -> int:
    trace = load_swf(args.path, strict=not args.lenient)
    if args.json:
        payload = {
            "directives": dict(trace.header.directives),
            "comments": list(trace.header.comments),
            "summary": {str(k): v for k, v in _trace_summary_rows(trace)},
            "provenance": trace.provenance_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if trace.header.comments:
        for comment in trace.header.comments:
            print(f"; {comment}")
    if trace.header.directives:
        print(format_table(
            ["directive", "value"], sorted(trace.header.directives.items())
        ))
        print()
    print(format_table(["statistic", "value"], _trace_summary_rows(trace)))
    return 0


def _pipeline_from_args(args: argparse.Namespace) -> Pipeline:
    steps = []
    # No filter flags -> a lossless copy; real archive traces are full of
    # unknown-runtime records that only an explicit flag may drop.
    if args.min_duration is not None or args.drop_invalid:
        steps.append(
            FilterJobs(
                min_duration=args.min_duration, require_valid=args.drop_invalid
            )
        )
    if args.window is not None:
        steps.append(TimeWindow(start=args.window[0], end=args.window[1]))
    if args.load_factor is not None:
        steps.append(LoadRescale(factor=args.load_factor))
    if args.clamp_nodes is not None:
        steps.append(ClampNodes(max_nodes=args.clamp_nodes))
    if args.shift_to_zero:
        steps.append(ShiftToZero())
    return Pipeline(steps=tuple(steps))


def _cmd_convert(args: argparse.Namespace) -> int:
    trace = load_swf(args.path, strict=not args.lenient)
    before = trace.job_count
    trace = _pipeline_from_args(args).apply(trace)
    dump_swf(trace, args.output)
    _LOG.info(
        "wrote %d jobs (%d dropped) to %s",
        trace.job_count,
        before - trace.job_count,
        args.output,
    )
    if args.mix is not None:
        mix = AdaptiveMix.parse(args.mix)
        converted = convert_trace(trace, mix=mix, seed=0)
        counts = mix_counts(converted)
        print(format_table(["kind", "jobs"], sorted(counts.items())))
    return 0


def _model_from_args(args: argparse.Namespace) -> TraceModel:
    if args.fit_from:
        return TraceModel.fit(
            load_swf(args.fit_from, strict=False),
            daily_cycle=args.arrivals == "daily",
        )
    if args.mean_interarrival <= 0:
        raise WorkloadError("--mean-interarrival must be positive")
    rate = 1.0 / args.mean_interarrival
    arrivals = (
        DailyCycleArrivals(mean_rate=rate)
        if args.arrivals == "daily"
        else PoissonArrivals(rate=rate)
    )
    return TraceModel(
        arrivals=arrivals,
        durations=LogNormalDuration(log_mean=math.log(args.median_runtime)),
        nodes=LogUniformNodes(max_nodes=args.max_nodes),
    )


def _cmd_synth(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    trace = model.synthesize(args.jobs, seed=args.seed)
    dump_swf(trace, args.output)
    _LOG.info(
        "synthesized %d jobs (span %.0fs, max %d nodes) to %s",
        trace.job_count,
        trace.span,
        trace.max_nodes,
        args.output,
    )
    return 0


def run_command(args: argparse.Namespace) -> int:
    """Dispatch a parsed ``trace`` command (entry point used by the CLI)."""
    handlers = {"info": _cmd_info, "convert": _cmd_convert, "synth": _cmd_synth}
    try:
        return handlers[args.action](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
