"""The ``python -m repro campaign`` command group.

Commands::

    python -m repro campaign run --scenarios fig9,fig10 --seeds 4 --workers 4
    python -m repro campaign run --scenarios trace-replay --policies coorm,easy,sjf
    python -m repro campaign run --scenarios fed-dual-trace --routings round-robin,least-loaded
    python -m repro campaign run --spec my_campaign.json
    python -m repro campaign list
    python -m repro campaign report <name> [--compare <other>]
    python -m repro campaign scenarios

``campaign run`` executes the variant x seed grid in parallel -- a figure
such as fig9 is one variant per x-point, see
:meth:`~repro.campaign.spec.ScenarioSpec.sweep` -- and persists one
JSON-lines record per run under the results directory (``results/`` by
default, or ``--results-dir`` / the ``REPRO_RESULTS_DIR`` variable).  Runs
are deterministic: the same spec writes byte-identical records regardless of
the worker count and of how the workers are reached (``--workers N``: local
socket pairs; ``--transport tcp --bind HOST:PORT``: ``dist worker`` processes on any
host as well).  ``campaign report`` adds one sweep table per swept
scenario.  The top-level parser that dispatches this group next to
``trace``, ``policy`` and ``federation`` lives in :mod:`repro.__main__`.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from ..core.errors import SpecError
from ..dist.coordinator import DistConfig
from ..dist.transport import TRANSPORT_NAMES, parse_endpoint
from ..metrics.report import format_comparison, format_table
from ..obs.logsetup import get_logger
from . import builtin  # noqa: F401  (registers the built-in scenarios)
from .registry import builtin_scenarios, resolve_scenarios
from .runner import CampaignInterrupted, CampaignRunner
from .spec import SCALE_NAMES, CampaignSpec
from .store import (
    ResultStore, by_policy, by_routing, compare, comparisons, medians, provenance, sweep_tables,
)

__all__ = ["add_commands", "run_command"]

_LOG = get_logger("campaign")


def add_commands(campaign: argparse.ArgumentParser) -> None:
    """Attach the sub-commands to the ``campaign`` group's parser."""
    actions = campaign.add_subparsers(dest="action", required=True)

    run = actions.add_parser("run", help="execute a campaign")
    run.add_argument(
        "--scenarios",
        help="comma-separated built-in scenario names (see 'campaign scenarios')",
    )
    run.add_argument("--spec", help="path to a campaign JSON file (overrides --scenarios)")
    run.add_argument(
        "--seeds", type=int, default=None,
        help="replicates per scenario (default: 1, or the spec file's value)",
    )
    run.add_argument(
        "--root-seed", type=int, default=None,
        help="campaign root seed (default: 0, or the spec file's value)",
    )
    run.add_argument(
        "--workers", type=int, default=None,
        help="worker processes to launch (default: the spec's worker count; 1 "
        "runs in this process; 0 on tcp serves only workers that connect)",
    )
    run.add_argument(
        "--scale", choices=SCALE_NAMES, default=None,
        help="override the evaluation scale of every scenario",
    )
    run.add_argument(
        "--policies",
        help="comma-separated scheduling policies; every scenario runs once "
        "per policy on the same workload (see 'policy list')",
    )
    run.add_argument(
        "--routings",
        help="comma-separated federation routing policies; every (federated) "
        "scenario runs once per routing on the same workload "
        "(see 'federation list')",
    )
    run.add_argument("--name", help="campaign name (defaults to the scenario list)")
    run.add_argument("--results-dir", default=None, help="result store root")
    run.add_argument(
        "--append", action="store_true",
        help="append to existing records instead of replacing them",
    )
    run.add_argument("--quiet", action="store_true", help="suppress progress output")
    run.add_argument(
        "--obs", action="store_true",
        help="collect per-run observability: metric counters into the run "
        "records ('obs' field, shown by 'campaign report') and wall-clock "
        "phase timers into meta.json",
    )
    run.add_argument(
        "--trace-dir", default=None,
        help="write one deterministic JSONL event trace per run into this "
        "directory (implies per-run tracing; see 'python -m repro obs')",
    )
    run.add_argument(
        "--slo", default=None, metavar="SPEC",
        help="evaluate every run against an SLO spec ('default' or a path "
        "to a spec JSON file); verdicts land in the run records ('slo' "
        "field, aggregated by 'campaign report')",
    )
    run.add_argument(
        "--transport", choices=TRANSPORT_NAMES, default=None,
        help="how workers are reached: subprocesses on socket pairs (ipc, the "
        "default whenever more than one worker is asked for), TCP connections "
        "(tcp, which also accepts 'dist worker' processes) or threads on "
        "socket pairs (thread)",
    )
    run.add_argument(
        "--bind", default=DistConfig.bind, metavar="HOST:PORT",
        help="tcp transport: the endpoint to serve workers on (default: "
        "%(default)s, a free port that is logged when the run starts)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="skip runs whose idempotency key already has a store row "
        "(implies --append)",
    )
    run.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help="seconds before a worker's lease expires without completion "
        "or heartbeat",
    )
    run.add_argument(
        "--dist-kill-after", default=None, metavar="IDX:N[,IDX:N...]",
        help="chaos (testing): kill launched worker IDX after its Nth lease",
    )

    listing = actions.add_parser("list", help="list stored campaigns")
    listing.add_argument("--results-dir", default=None, help="result store root")

    report = actions.add_parser("report", help="summarize a stored campaign")
    report.add_argument("name", help="campaign name")
    report.add_argument("--compare", help="second campaign to compare against")
    report.add_argument("--results-dir", default=None, help="result store root")

    actions.add_parser("scenarios", help="list built-in scenarios")


def _default_name(scenario_names: Sequence[str], seeds: int) -> str:
    return "-".join(scenario_names) + f"_x{seeds}"


def _cmd_run(args: argparse.Namespace) -> int:
    policies = tuple(
        p.strip() for p in (args.policies or "").split(",") if p.strip()
    )
    routings = tuple(
        r.strip() for r in (args.routings or "").split(",") if r.strip()
    )
    # Every rejection below -- an unknown name, a malformed spec file, a
    # routing matrix over unfederated scenarios -- is a ReproError, which
    # ``repro.__main__`` turns into one ``error:`` line and exit status 2.
    if args.spec:
        spec = CampaignSpec.load(args.spec)
        overrides = {}
        # A spec file's axis values are used as written: --scale resizes
        # the runs, not a sweep laid out for another scale.
        if args.scale is not None:
            overrides["scenarios"] = [
                s.with_scale(args.scale).to_dict() for s in spec.scenarios
            ]
        # Explicit flags beat the spec file; omitted flags keep its values.
        if args.seeds is not None:
            overrides["seeds"] = args.seeds
        if args.root_seed is not None:
            overrides["root_seed"] = args.root_seed
        if policies:
            overrides["policies"] = list(policies)
        if routings:
            overrides["routings"] = list(routings)
        if overrides:
            spec = CampaignSpec.from_dict({**spec.to_dict(), **overrides})
    else:
        if not args.scenarios:
            raise SpecError("provide --scenarios or --spec")
        names = [n.strip() for n in args.scenarios.split(",") if n.strip()]
        seeds = 1 if args.seeds is None else args.seeds
        spec = CampaignSpec(
            name=args.name or _default_name(names, seeds),
            scenarios=tuple(resolve_scenarios(names, scale=args.scale)),
            seeds=seeds,
            root_seed=0 if args.root_seed is None else args.root_seed,
            workers=args.workers or 1,
            policies=policies,
            routings=routings,
        )
    if args.name and spec.name != args.name:
        spec = CampaignSpec.from_dict({**spec.to_dict(), "name": args.name})

    store = ResultStore(args.results_dir)
    store.campaign_dir(spec.name)  # validate the name before running

    def progress(done: int, total: int, record) -> None:
        # Narration goes through the shared logger (stderr): --quiet keeps
        # the historic behaviour, the global -q/-v flags tune it further.
        if not args.quiet:
            _LOG.info(
                "[%d/%d] %s replicate=%s seed=%s",
                done,
                total,
                record["scenario"],
                record["replicate"],
                record["seed"],
            )

    # A missing or malformed --slo spec file fails here, before any run starts.
    runner = CampaignRunner(
        spec,
        store=store,
        progress=progress,
        collect_obs=args.obs,
        trace_dir=args.trace_dir,
        slo_spec=args.slo,
    )

    workers = spec.workers if args.workers is None else args.workers
    try:
        parse_endpoint(args.bind)
        config = DistConfig(
            bind=args.bind,
            lease_ttl=args.lease_ttl,
            kill_after_leases=_parse_kill_spec(args.dist_kill_after),
        )
        if args.transport is not None:
            config.transport = args.transport
        # One worker and no transport named is the runner's in-process loop,
        # which leases nothing: it gets no coordinator options.
        coordinated = args.transport is not None or workers != 1
        result = runner.run(
            workers=workers,
            append=args.append,
            resume=args.resume,
            dist=config if coordinated else None,
        )
    except CampaignInterrupted as exc:
        partial = exc.result
        print(
            f"interrupted: {len(partial.records)} completed run(s) flushed to "
            f"{partial.store_path}; re-run with --resume to finish",
            file=sys.stderr,
        )
        return 130
    if args.trace_dir:
        _LOG.info("event traces written under %s", args.trace_dir)
    skipped = f" ({result.skipped} resumed)" if result.skipped else ""
    print(
        f"campaign {spec.name!r}: {len(result.records)} runs{skipped} in "
        f"{result.elapsed_seconds:.2f}s with {result.workers} "
        f"{result.transport} worker(s) -> {result.store_path}"
    )
    return 0


def _parse_kill_spec(text: Optional[str]) -> dict:
    """``"0:1,2:3"`` -> ``{0: 1, 2: 3}`` (worker index -> kill after Nth lease)."""
    kills = {}
    for position, part in enumerate((text or "").split(",")):
        part = part.strip()
        if not part:
            continue
        index, _, count = part.partition(":")
        if not (index.isdigit() and count.isdigit()):
            raise SpecError(
                f"expects IDX:N pairs, got {part!r}", f"--dist-kill-after[{position}]"
            )
        kills[int(index)] = int(count)
    return kills


def _cmd_list(args: argparse.Namespace) -> int:
    store = ResultStore(args.results_dir)
    infos = store.list_campaigns()
    if not infos:
        print(f"no campaigns under {store.root}")
        return 0
    rows = [(i.name, i.run_count, ", ".join(i.scenarios)) for i in infos]
    print(format_table(["campaign", "runs", "scenarios"], rows))
    return 0


def _describe_provenance(provenance) -> str:
    """One human-readable line summarising a workload provenance record."""
    source = provenance.get("source", {})
    if isinstance(source, dict) and "path" in source and source.get("path"):
        description = f"trace file {source['path']}"
    elif isinstance(source, dict) and source.get("model"):
        arrivals = source["model"].get("arrivals", {}).get("kind", "?")
        # An unset source job_count means the default was synthesized; the
        # realised count always rides along in the provenance record.
        jobs = source.get("job_count") or provenance.get("job_count") or "?"
        description = f"synthesized trace ({arrivals} arrivals, {jobs} jobs)"
    elif isinstance(source, dict) and source.get("generator"):
        description = "generated rigid workload"
    else:
        description = json.dumps(source, sort_keys=True)
    steps = [
        step.get("kind", "?")
        for step in provenance.get("steps", [])
        if isinstance(step, dict)
        and step.get("kind") not in ("load", "synthesize", "fingerprint")
    ]
    if steps:
        description += f"; transforms: {' -> '.join(steps)}"
    counts = provenance.get("kind_counts")
    if isinstance(counts, dict):
        mixed = {k: v for k, v in counts.items() if v}
        if set(mixed) - {"rigid"}:
            description += "; mix: " + ", ".join(
                f"{kind}={count}" for kind, count in sorted(mixed.items())
            )
    return description


def _federation_breakdown_rows(summary: dict) -> List[tuple]:
    """Per-cluster table rows from the flat ``fed_*[name]`` metric keys."""
    clusters = []
    for key in summary:
        if key.startswith("fed_util_pct[") and key.endswith("]"):
            clusters.append(key[len("fed_util_pct["):-1])
    rows = []
    for name in sorted(clusters):
        rows.append(
            (
                name,
                summary.get(f"fed_nodes[{name}]", ""),
                summary.get(f"fed_routed[{name}]", ""),
                summary.get(f"fed_alloc_node_seconds[{name}]", ""),
                summary.get(f"fed_util_pct[{name}]", ""),
            )
        )
    return rows


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.results_dir)
    # One read of each run file; every table below is a function of its rows.
    try:
        records = store.load_records(args.name)
        if args.compare:
            other = store.load_records(args.compare)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = medians(records)
    if args.compare:
        print(f"campaign comparison: {args.name} vs {args.compare}")
        rows = compare(summary, medians(other))
        print(format_comparison(rows, label_a=args.name, label_b=args.compare))
        return 0
    spec = store.load_spec(args.name)
    sweeps = sweep_tables(spec, summary) if spec is not None else {}
    # A swept scenario's policies and routings are axes of its sweep table.
    plain = [r for r in records if r.get("base_scenario") not in sweeps]
    provenance_of = provenance(records)
    obs_summary = medians(records, field="obs")
    slo_summary = medians(records, field="slo")
    print(f"campaign {args.name!r}: per-scenario medians over replicates")
    for scenario in summary:
        print()
        print(f"== {scenario} ==")
        if scenario in provenance_of:
            print(f"workload: {_describe_provenance(provenance_of[scenario])}")
        rows = list(summary[scenario].items())
        print(format_table(["metric", "median"], rows))
        breakdown = _federation_breakdown_rows(summary[scenario])
        if breakdown:
            print()
            print(f"-- {scenario}: per-cluster breakdown --")
            print(
                format_table(
                    ["cluster", "nodes", "routed", "alloc node-s", "util %"],
                    breakdown,
                )
            )
        if scenario in obs_summary:
            print()
            print(f"-- {scenario}: observability (median per run) --")
            print(
                format_table(
                    ["counter", "median"], list(obs_summary[scenario].items())
                )
            )
        if scenario in slo_summary:
            verdicts = slo_summary[scenario]
            # slo.passed is 1.0/0.0 per run; its median reads as "did the
            # majority of replicates pass".
            passed = verdicts.get("slo.passed", 0.0) >= 1.0
            print()
            print(
                f"-- {scenario}: SLO "
                f"({'PASS' if passed else 'FAIL'}, median per run) --"
            )
            print(format_table(["objective", "median"], list(verdicts.items())))
    for base, (headers, rows) in sweeps.items():
        print()
        print(
            f"== {base}: sweep (medians; Δ, Δ% against the first value of its last own axis) =="
        )
        print(format_table(headers, rows))
    # Matrix campaigns additionally get side-by-side comparisons of every
    # policy (and, for federated campaigns, every routing) on the same base
    # scenario -- identical workload per seed in both matrices.
    _print_comparisons(comparisons(plain, by_policy), "policy comparison")
    _print_comparisons(comparisons(plain, by_routing), "routing comparison")
    meta = store.load_meta(args.name)
    if meta and meta.get("dist"):
        print()
        print("== distributed execution (last run) ==")
        rows = [(k, v) for k, v in sorted(meta["dist"].items())]
        print(format_table(["counter", "value"], rows))
    return 0


def _print_comparisons(matrix: dict, title: str) -> None:
    """One table per point of :func:`~repro.campaign.store.comparisons`."""
    for base in sorted(matrix):
        variants = matrix[base]
        names = sorted(variants)
        metrics = sorted(set().union(*(variants[n] for n in names)))
        rows = [
            tuple([metric] + [variants[n].get(metric, "") for n in names])
            for metric in metrics
        ]
        print()
        print(f"== {base}: {title} ==")
        print(format_table(["metric"] + names, rows))


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    specs = builtin_scenarios().values()
    rows = [(spec.name, spec.runner, spec.scale, spec.description) for spec in specs]
    print(format_table(["scenario", "runner", "scale", "description"], rows))
    return 0


def run_command(args: argparse.Namespace) -> int:
    handlers = {
        "run": _cmd_run,
        "list": _cmd_list,
        "report": _cmd_report,
        "scenarios": _cmd_scenarios,
    }
    return handlers[args.action](args)
