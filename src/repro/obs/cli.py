"""The ``python -m repro obs`` command group.

Commands::

    python -m repro obs export --scenario fig9-spontaneous --seed 1
    python -m repro obs export --scenario fig9 --seed 1 --format jsonl --out t.jsonl
    python -m repro obs summarize --scenario fig9 --seed 1
    python -m repro obs timeline --scenario fig9 --seed 1
    python -m repro obs audit --scenario fig9 --seed 1
    python -m repro obs slo --scenario fig9 --seed 1 --spec default
    python -m repro obs report --scenario fig9 --seed 1
    python -m repro obs diff a.trace.jsonl b.trace.jsonl

``export`` runs one scenario under the event tracer -- a sweep such as fig9
runs every point, in expansion order, under the one tracer -- and writes the
trace as Chrome ``trace_event`` JSON (open it in ``chrome://tracing`` or
Perfetto) or canonical JSONL.  ``summarize`` prints the event and metric
breakdown of one run.  The analytics commands replay the deterministic trace: ``timeline``
samples sim-time series (utilization, queue depth, job counts) on a fixed
grid, ``audit`` derives per-job lifecycle statistics, ``slo`` evaluates a
declarative SLO spec (exit 1 on violation) and ``report`` renders all of it
as one text dashboard.  ``diff`` compares two JSONL traces and pinpoints
the first divergence -- the exports are deterministic, so any difference is
a real behavioural difference.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Tuple

from .hooks import observe
from .logsetup import get_logger
from .metrics import MetricsRegistry
from .tracer import EventTracer, diff_events, load_jsonl

__all__ = ["add_commands", "run_command"]

_LOG = get_logger("obs")


def add_commands(obs: argparse.ArgumentParser) -> None:
    """Attach the sub-commands to the ``obs`` group's parser."""
    actions = obs.add_subparsers(dest="action", required=True)

    export = actions.add_parser(
        "export", help="run one scenario under the tracer and export the trace"
    )
    export.add_argument("--scenario", required=True, help="built-in scenario name")
    export.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    export.add_argument(
        "--scale", default=None, help="evaluation scale override (tiny/reduced/paper)"
    )
    export.add_argument(
        "--format", choices=("chrome", "jsonl"), default="chrome",
        help="chrome trace_event JSON (default) or canonical JSONL",
    )
    export.add_argument(
        "--out", default=None, help="output file (default: stdout)"
    )

    summarize = actions.add_parser(
        "summarize", help="run one scenario and print its event/metric breakdown"
    )
    summarize.add_argument("--scenario", required=True, help="built-in scenario name")
    summarize.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    summarize.add_argument(
        "--scale", default=None, help="evaluation scale override (tiny/reduced/paper)"
    )

    def scenario_command(name: str, help_text: str) -> argparse.ArgumentParser:
        parser = actions.add_parser(name, help=help_text)
        parser.add_argument(
            "--scenario", required=True, help="built-in scenario name"
        )
        parser.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
        parser.add_argument(
            "--scale", default=None,
            help="evaluation scale override (tiny/reduced/paper)",
        )
        parser.add_argument(
            "--json", action="store_true", help="emit canonical JSON instead of text"
        )
        parser.add_argument("--out", default=None, help="output file (default: stdout)")
        return parser

    timeline = scenario_command(
        "timeline", "sample one run's sim-time series on a fixed grid"
    )
    timeline.add_argument(
        "--samples", type=int, default=None,
        help="grid intervals (default 60); the grid has samples+1 points",
    )

    scenario_command("audit", "derive per-job lifecycle audits from one run")

    slo = scenario_command(
        "slo", "evaluate one run against an SLO spec (exit 1 on violation)"
    )
    slo.add_argument(
        "--spec", default="default",
        help="'default' or a path to an SLO spec JSON file",
    )

    scenario_command(
        "report", "render timeline + audits + SLO of one run as a text dashboard"
    )

    diff = actions.add_parser(
        "diff", help="compare two JSONL trace exports, pinpointing divergence"
    )
    diff.add_argument("trace_a", help="first JSONL trace file")
    diff.add_argument("trace_b", help="second JSONL trace file")


def _traced_run(
    scenario: str, seed: int, scale
) -> Tuple[EventTracer, MetricsRegistry, List[Tuple[str, str, object]]]:
    """Run one scenario -- every point of a sweep, in order -- under tracer +
    metrics; returns both instruments and ``(variant, metric, value)`` rows."""
    from ..campaign.registry import resolve_scenarios, run_sweep

    spec = resolve_scenarios([scenario], scale=scale)[0]
    tracer = EventTracer()
    registry = MetricsRegistry()
    with observe(tracer=tracer, metrics=registry):
        points = run_sweep(spec, seed)
    rows = [
        (variant.name, key, value)
        for variant, metrics in points
        for key, value in sorted(metrics.items())
    ]
    return tracer, registry, rows


def _cmd_export(args: argparse.Namespace) -> int:
    tracer, _registry, _metrics = _traced_run(args.scenario, args.seed, args.scale)
    text = tracer.to_chrome(label=f"repro {args.scenario} seed={args.seed}")
    if args.format == "jsonl":
        text = tracer.to_jsonl()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        _LOG.info(
            "%d events (%s) -> %s", len(tracer), args.format, args.out
        )
        print(args.out)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    from ..metrics.report import format_table

    tracer, registry, metrics = _traced_run(args.scenario, args.seed, args.scale)
    dropped = tracer.summary()["dropped"]
    truncation = f" ({dropped} dropped past max_events)" if dropped else ""
    print(
        f"scenario {args.scenario!r} seed={args.seed}: "
        f"{len(tracer)} trace events{truncation}, {len(registry)} metrics"
    )
    event_rows = [
        (cat, name, count)
        for (cat, name), count in sorted(tracer.count_by().items())
    ]
    if event_rows:
        print()
        print(format_table(["category", "event", "count"], event_rows))
    if len(registry):
        print()
        print(format_table(["metric", "value"], registry.rows()))
    if metrics:
        print()
        print(format_table(["scenario", "simulation metric", "value"], metrics))
    return 0


def _emit(args: argparse.Namespace, text: str) -> None:
    """Write a command's output to ``--out`` or stdout."""
    if args.out:
        Path(args.out).write_text(
            text if text.endswith("\n") else text + "\n", encoding="utf-8"
        )
        print(args.out)
    else:
        print(text)


def _analytics_run(args: argparse.Namespace):
    """Traced run + timeline + audits; shared by the analytics commands."""
    from .lifecycle import build_audits
    from .timeline import DEFAULT_SAMPLES, TimelineBuilder

    tracer, _registry, _metrics = _traced_run(args.scenario, args.seed, args.scale)
    samples = getattr(args, "samples", None) or DEFAULT_SAMPLES
    timeline = TimelineBuilder(samples=samples).build(tracer.events)
    audits = build_audits(tracer.events)
    return tracer, timeline, audits


def _timeline_text(timeline) -> str:
    from .timeline import sparkline

    lines = [
        f"timeline: t=[{timeline.t0:g}, {timeline.t1:g}]s, "
        f"{timeline.samples} intervals, {timeline.event_count} events, "
        "capacity "
        + (
            ", ".join(f"{k}={v}" for k, v in sorted(timeline.capacity.items()))
            or "unknown"
        )
    ]
    width = max(len(name) for name in timeline.series) if timeline.series else 0
    for name in sorted(timeline.series):
        stats = timeline.stats(name)
        lines.append(
            f"  {name:<{width}}  {sparkline(timeline.series[name])}  "
            f"min={stats['min']:g} mean={stats['mean']:.2f} max={stats['max']:g}"
        )
    return "\n".join(lines)


def _cmd_timeline(args: argparse.Namespace) -> int:
    _tracer, timeline, _audits = _analytics_run(args)
    _emit(args, timeline.to_json() if args.json else _timeline_text(timeline))
    return 0


def _audit_text(audits) -> str:
    from ..metrics.report import format_table
    from .lifecycle import summarize_audits

    def fmt(value, precision: str = ".1f"):
        return "-" if value is None else format(value, precision)

    rows = [
        (
            a.app,
            fmt(a.queue_wait),
            fmt(a.runtime),
            fmt(a.bounded_slowdown, ".3f"),
            a.grows,
            a.shrinks,
            f"{a.node_seconds:.0f}",
            "killed" if a.killed else ("done" if a.end_ts is not None else "open"),
        )
        for a in audits
    ]
    table = format_table(
        ["job", "wait s", "runtime s", "slowdown", "grows", "shrinks", "node-s", "state"],
        rows,
    )
    summary = summarize_audits(audits)
    summary_table = format_table(["statistic", "value"], sorted(summary.items()))
    return f"{table}\n\n{summary_table}"


def _cmd_audit(args: argparse.Namespace) -> int:
    from .lifecycle import audits_to_json

    _tracer, _timeline, audits = _analytics_run(args)
    _emit(args, audits_to_json(audits) if args.json else _audit_text(audits))
    return 0


def _slo_text(report) -> str:
    lines = [
        f"SLO spec {report.spec_name!r}: "
        f"{'PASS' if report.passed else 'FAIL'} "
        f"({report.violations} violation(s), {len(report.evaluated)} evaluated)"
    ]
    for r in report.results:
        kind = r["kind"]
        if r.get("skipped"):
            lines.append(f"  [skip] {kind}: not measurable with these inputs")
            continue
        verdict = "ok  " if r["ok"] else "FAIL"
        thresholds = ", ".join(
            f"{k}={v}" for k, v in r.items() if k not in ("kind", "measured", "ok")
        )
        lines.append(f"  [{verdict}] {kind}: measured {r['measured']:g} ({thresholds})")
    return "\n".join(lines)


def _cmd_slo(args: argparse.Namespace) -> int:
    import json

    from .slo import DEFAULT_SLO, SLOSpec, evaluate_slo

    spec = DEFAULT_SLO if args.spec == "default" else SLOSpec.load(args.spec)
    _tracer, timeline, audits = _analytics_run(args)
    report = evaluate_slo(spec, audits, timeline)
    _emit(
        args,
        json.dumps(report.to_dict(), sort_keys=True, allow_nan=False)
        if args.json
        else _slo_text(report),
    )
    return 0 if report.passed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from .slo import DEFAULT_SLO, evaluate_slo

    tracer, timeline, audits = _analytics_run(args)
    slo_report = evaluate_slo(DEFAULT_SLO, audits, timeline)
    if args.json:
        _emit(
            args,
            json.dumps(
                {
                    "scenario": args.scenario,
                    "seed": args.seed,
                    "trace": tracer.summary(),
                    "timeline": timeline.to_dict(),
                    "audits": [a.to_dict() for a in audits],
                    "slo": slo_report.to_dict(),
                },
                sort_keys=True,
                allow_nan=False,
            ),
        )
        return 0
    trace = tracer.summary()
    truncation = f" ({trace['dropped']} dropped)" if trace["dropped"] else ""
    sections = [
        f"== obs report: scenario {args.scenario!r} seed={args.seed} ==",
        f"trace: {trace['events']} events{truncation}",
        "",
        _timeline_text(timeline),
        "",
        f"-- job lifecycle ({len(audits)} jobs) --",
        _audit_text(audits),
        "",
        _slo_text(slo_report),
    ]
    _emit(args, "\n".join(sections))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        events_a = load_jsonl(Path(args.trace_a).read_text(encoding="utf-8"))
        events_b = load_jsonl(Path(args.trace_b).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = diff_events(events_a, events_b)
    if not lines:
        print(f"identical: {len(events_a)} events")
        return 0
    for line in lines:
        print(line)
    return 1


def run_command(args: argparse.Namespace) -> int:
    handlers = {
        "export": _cmd_export,
        "summarize": _cmd_summarize,
        "timeline": _cmd_timeline,
        "audit": _cmd_audit,
        "slo": _cmd_slo,
        "report": _cmd_report,
        "diff": _cmd_diff,
    }
    return handlers[args.action](args)
