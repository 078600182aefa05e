#!/usr/bin/env python
"""Run one campaign twice -- serially, then over TCP workers -- and diff rows.

The distributed walk-through, one layer above plain campaign runs (for
which see ``quickstart.py``):

1. **run** a small two-scenario campaign in-process (``workers=1``, the
   serial loop), producing the reference ``runs.jsonl``;
2. **serve** the same campaign from a coordinator bound to an ephemeral
   TCP port, with two standalone worker processes connecting over
   length-prefixed JSON frames -- the exact setup ``python -m repro
   campaign run --transport tcp --bind HOST:PORT --workers 0`` and ``dist
   worker`` give you across machines;
3. **verify** the two stores row for row: per-run seeds come from
   ``derive_seed`` and records are canonically ordered before persist,
   so distribution must change *nothing* -- the files are byte-identical.

The same campaign runs through ``python -m repro campaign run --transport
tcp --workers 2`` (or, over pipes, just ``--workers 2``); this script uses
the library API so the coordinator/worker split is visible.

Run with::

    PYTHONPATH=src python examples/distributed_campaign.py
"""
from __future__ import annotations

import multiprocessing
import tempfile
from pathlib import Path

from repro.campaign import CampaignRunner, CampaignSpec, ResultStore, resolve_scenarios
from repro.dist.coordinator import Coordinator, DistConfig
from repro.dist.transport import parse_endpoint
from repro.dist.worker import tcp_worker_entry

SCENARIOS = ("baseline-dynamic", "strict-equipartition")
SEEDS = 1  # one replicate per scenario keeps the walk-through quick
WORKERS = 2


def make_spec() -> CampaignSpec:
    return CampaignSpec(
        name="dist-demo",
        scenarios=tuple(resolve_scenarios(SCENARIOS)),
        seeds=SEEDS,
    )


def run_distributed(store: ResultStore) -> None:
    """Serve the campaign over TCP with external worker processes."""
    spec = make_spec()
    runner = CampaignRunner(spec, store=store)
    # workers=0: the coordinator only serves; we launch workers ourselves,
    # exactly as `python -m repro dist worker --connect HOST:PORT` would.
    coordinator = Coordinator(
        runner.tasks(), DistConfig(transport="tcp", bind="127.0.0.1:0")
    )
    host, port = parse_endpoint(coordinator.bind())
    print(f"coordinator listening on {host}:{port}, "
          f"launching {WORKERS} TCP workers")
    processes = [
        multiprocessing.Process(
            target=tcp_worker_entry,
            args=(host, port, f"demo-w{i}", {"heartbeat_interval": 2.0}),
            daemon=True,
        )
        for i in range(WORKERS)
    ]
    for process in processes:
        process.start()
    try:
        outcome = coordinator.run(workers=0)
    finally:
        for process in processes:
            process.join(timeout=5.0)
    store.save_campaign(spec, outcome.records)
    completed = int(outcome.stats["dist_completed"])
    print(f"distributed run complete: {completed} units over "
          f"{int(outcome.stats['dist_leases'])} leases")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-dist-demo-") as tmp:
        serial_store = ResultStore(Path(tmp) / "serial")
        dist_store = ResultStore(Path(tmp) / "dist")

        print(f"serial reference run ({', '.join(SCENARIOS)}, seeds={SEEDS})")
        CampaignRunner(make_spec(), store=serial_store).run(workers=1)
        serial_rows = serial_store.runs_path("dist-demo").read_bytes()

        run_distributed(dist_store)
        dist_rows = dist_store.runs_path("dist-demo").read_bytes()

        if dist_rows != serial_rows:
            print("MISMATCH: distributed rows differ from the serial run")
            return 1
        lines = serial_rows.decode("utf-8").strip().splitlines()
        print(f"byte-identical stores: {len(lines)} rows, "
              f"{len(serial_rows)} bytes each")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
