"""The six ledger workloads.

Every workload has the same five steps, called by ``run.py``:

``setup(seed, size, workdir)``
    Generate the inputs (SWF files, spec files, an evolution profile) and
    return a JSON-able description of them.  Timed as ``setup_s``.
``load(inputs, workdir)``
    Read the generated inputs back in the measuring process (untimed).
``prepare(index)``
    Untimed per-repeat housekeeping: a fresh store directory, a fresh copy
    of the SWF file.
``run(recorder, traced)``
    One repeat of the whole user-visible job.  This is what is timed.
``check(outputs)``
    ``(failed operations, deterministic outputs)``; the outputs feed
    ``sim_digest``.  Any failed check fails every operation of the repeat.

**Seeds.**  ``--seed`` draws the inputs wherever host cost is a sum over
many independent draws (40 000 synthesized jobs, 1500 dist units).  Where
host cost is a chaotic function of a single simulated trajectory -- one
working-set evolution, one queue history -- it cannot: ten evolution seeds
at equal step count cost 0.40--0.86 s, ten ``fed-hetero3`` chaos seeds
0.8--19 s, six 1000-job replay seeds 5.7--7.6 s, all far outside any bound
a regression gate could use.  Those workloads therefore simulate one
pinned, documented seed (``SIM_SEED`` below) and ``--seed`` does not reach
them; their ``sim_digest`` is the same for every ``--seed`` by design.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Dict, Tuple

import repro.traces as traces
from repro.__main__ import main as repro_main
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    ScenarioSpec,
    builtin_scenarios,
    get_runner,
)
from repro.campaign.builtin import TRACE_SCENARIO_MODEL
from repro.core.cbf import CbfJob, ConservativeBackfillQueue
from repro.dist import DistConfig, ensure_noop_runner
from repro.experiments.runner import EvaluationScale, build_evolution, run_scenario
from repro.faults.plan import get_fault_plan
from repro.models.amr_evolution import WorkingSetEvolution
from repro.models.speedup import TIB_IN_MIB
from repro.sim.engine import Simulator
from repro.sim.randomness import derive_seed

from spans import span

__all__ = ["WORKLOADS"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _campaign_report(recorder, name: str, results_dir: Path) -> Tuple[int, str]:
    """``python -m repro campaign report`` in-process; ``(exit code, text)``."""
    out = io.StringIO()
    with span(recorder, "campaign.report"), contextlib.redirect_stdout(out):
        code = repro_main(["campaign", "report", name, "--results-dir", str(results_dir)])
    return code, out.getvalue()


class Workload:
    name = ""
    why = ""
    work_unit = ""
    #: Per scale: the knobs ``setup`` turns into inputs.
    sizes: Dict[str, Dict] = {}
    #: Operations per repeat (numerator of ``work_per_s``); set by ``load``.
    work = 0

    def setup(self, seed: int, size: Dict, workdir: Path) -> Dict:
        raise NotImplementedError

    def load(self, inputs: Dict, workdir: Path) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        pass

    def run(self, recorder, traced: bool) -> Dict:
        raise NotImplementedError

    def check(self, outputs: Dict) -> Tuple[int, object]:
        raise NotImplementedError


# --------------------------------------------------------------------- #
class PaperEvolving(Workload):
    name = "paper-evolving"
    why = (
        "the paper's Section-5 AMR+PSA scenario: few applications, hundreds of RMS "
        "passes, long request chains; core.request_set, apps and sharing do the work"
    )
    work_unit = "AMR steps"
    #: Pinned: the evolution seed ISSUE 11 profiled (see the module docstring).
    SIM_SEED = 1
    sizes = {
        "full": {"num_steps": 110, "s_max_div": 4.0, "psa": [600.0, 60.0], "announce": 300.0},
        "smoke": {"num_steps": 12, "s_max_div": 32.0, "psa": [60.0, 10.0], "announce": 30.0},
    }

    @staticmethod
    def _scale(size: Dict) -> EvaluationScale:
        return EvaluationScale(
            num_steps=size["num_steps"],
            s_max_mib=3.16 * TIB_IN_MIB / size["s_max_div"],
            psa1_task_duration=size["psa"][0],
            psa2_task_duration=size["psa"][1],
        )

    def setup(self, seed, size, workdir):
        evolution = build_evolution(self._scale(size), seed=self.SIM_SEED)
        path = workdir / "evolution.json"
        path.write_text(json.dumps([float(s) for s in evolution.sizes_mib]), encoding="utf-8")
        return {**size, "evolution": path.name}

    def load(self, inputs, workdir):
        self.scale = self._scale(inputs)
        sizes = json.loads((workdir / inputs["evolution"]).read_text(encoding="utf-8"))
        self.evolution = WorkingSetEvolution(sizes)
        two_psas = tuple(inputs["psa"])
        #: The four runs of figures 9, 10 and 11 (filling, then strict).
        self.variants = (
            {},
            {"announce_interval": inputs["announce"]},
            {"psa_task_durations": two_psas},
            {"psa_task_durations": two_psas, "strict_equipartition": True},
        )
        self.work = len(self.variants) * inputs["num_steps"]

    def run(self, recorder, traced):
        return {
            "results": [
                run_scenario(self.scale, seed=self.SIM_SEED, evolution=self.evolution, **variant)
                for variant in self.variants
            ]
        }

    def check(self, outputs):
        failed = 0
        payload = []
        for result in outputs["results"]:
            metrics = result.metrics.to_dict()
            payload.append(metrics)
            failed += self.evolution.num_steps - len(result.amr.step_records)
            done = result.amr.finished() and all(psa.finished() for psa in result.psas)
            finite = all(
                isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values()
            )
            if not (done and finite):
                return self.work, payload
        return failed, payload


# --------------------------------------------------------------------- #
class SwfReplayRms(Workload):
    name = "swf-replay-rms"
    why = (
        "an SWF file of rigid jobs replayed through the RMS under coorm and easy: "
        "short chains, so Scheduler.schedule, fit, policies and StepFunction dominate"
    )
    work_unit = "job replays"
    #: Pinned: queue histories make host cost chaotic in the trace seed.
    SIM_SEED = 11
    POLICIES = ("coorm", "easy")
    sizes = {"full": {"jobs": 250}, "smoke": {"jobs": 15}}

    def setup(self, seed, size, workdir):
        model = traces.TraceModel.from_dict(TRACE_SCENARIO_MODEL)
        trace = model.synthesize(size["jobs"], seed=derive_seed(self.SIM_SEED, self.name))
        traces.dump_swf(trace, workdir / "trace.swf")
        return {"jobs": size["jobs"], "swf": "trace.swf"}

    def load(self, inputs, workdir):
        self.workdir = workdir
        self.source = workdir / inputs["swf"]
        self.jobs = inputs["jobs"]
        self.base = builtin_scenarios()["trace-replay"]
        self.runner = get_runner(self.base.runner)
        self.work = len(self.POLICIES) * self.jobs

    def prepare(self, index):
        # One copy per repeat: ``_load_file_trace`` caches per path, and a
        # cache hit would hide ingest from every repeat but the first.
        self.path = self.workdir / f"replay-{index}.swf"
        shutil.copyfile(self.source, self.path)

    def run(self, recorder, traced):
        trace = traces.TraceSource(
            path=str(self.path), transforms=({"kind": "clamp_nodes", "max_nodes": 64},)
        )
        workload = replace(self.base.workload, trace=trace)
        return {
            policy: self.runner(
                replace(self.base, workload=workload, policy=policy), self.SIM_SEED
            )
            for policy in self.POLICIES
        }

    def check(self, outputs):
        self.path.unlink()
        failed = 0
        for metrics in outputs.values():
            if metrics.get("trace_jobs") != self.jobs:
                return self.work, outputs
            failed += self.jobs - int(metrics.get("trace_finished", 0))
        return failed, outputs


# --------------------------------------------------------------------- #
class SwfPipelineCbf(Workload):
    name = "swf-pipeline-cbf"
    why = (
        "synthesize -> dumps_swf -> loads_swf -> Simulator + CBF queue: traces does most "
        "of the work, the RMS/scheduler stack is bypassed; the memory-sensitive workload"
    )
    work_unit = "jobs"
    sizes = {"full": {"jobs": 40_000}, "smoke": {"jobs": 2_000}}

    def setup(self, seed, size, workdir):
        return {"jobs": size["jobs"], "synth_seed": derive_seed(seed, self.name, "synth")}

    def load(self, inputs, workdir):
        self.jobs = inputs["jobs"]
        self.synth_seed = inputs["synth_seed"]
        self.work = self.jobs

    def run(self, recorder, traced):
        # The shape of benchmarks/bench_million_jobs.run_pipeline.
        trace = traces.TraceModel().synthesize(self.jobs, seed=self.synth_seed)
        parsed = traces.loads_swf(traces.dumps_swf(trace))
        jobs = parsed.jobs
        # Capacity from offered load (~40% headroom): a starved cluster
        # would measure backlog growth, an infinite one would never backfill.
        horizon = max(job.submit_time for job in jobs) or 1.0
        node_seconds = sum(job.node_count * max(job.run_time, 1.0) for job in jobs)
        nodes = max(max(job.node_count for job in jobs), math.ceil(1.4 * node_seconds / horizon))
        sim = Simulator()
        queue = ConservativeBackfillQueue(nodes)
        submit = queue.submit
        for job in jobs:
            run_time = max(job.run_time, 1.0)
            cbf_job = CbfJob(str(job.job_number), job.node_count, run_time, job.submit_time)
            sim.schedule_at(job.submit_time, submit, cbf_job)
        sim.run()
        return {"parsed": parsed.job_count, "nodes": nodes, "queue": queue}

    def check(self, outputs):
        queue = outputs["queue"]
        payload = {
            "jobs": outputs["parsed"],
            "nodes": outputs["nodes"],
            "reserved": len(queue.jobs),
            "makespan": queue.makespan(),
            "mean_wait": queue.mean_wait_time(),
        }
        ok = payload["jobs"] == self.jobs and payload["makespan"] > 0.0
        failed = self.jobs - payload["reserved"] if ok else self.work
        return failed, payload


# --------------------------------------------------------------------- #
class FedChaosAdaptive(Workload):
    name = "fed-chaos-adaptive"
    why = (
        "fed-hetero3 adaptive mix under the flaky-nodes plan: the only workload running "
        "federation routing, faults, traces.convert and pruning with many adaptive apps"
    )
    work_unit = "jobs"
    #: Pinned: chaos runs of this mix cost 0.8--19 s depending on the seed.
    SIM_SEED = 6
    PLAN = "flaky-nodes"
    sizes = {"full": {"jobs": 300}, "smoke": {"jobs": 15}}

    def setup(self, seed, size, workdir):
        base = builtin_scenarios()["fed-hetero3"]
        source = replace(base.workload.trace, job_count=size["jobs"])
        spec = replace(
            base,
            name=self.name,
            workload=replace(base.workload, trace=source),
            faults=self.PLAN,
        )
        (workdir / "scenario.json").write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        return {"jobs": size["jobs"], "scenario": "scenario.json"}

    def load(self, inputs, workdir):
        text = (workdir / inputs["scenario"]).read_text(encoding="utf-8")
        self.spec = ScenarioSpec.from_dict(json.loads(text))
        self.runner = get_runner(self.spec.runner)
        self.jobs = inputs["jobs"]
        self.work = self.jobs
        events = get_fault_plan(self.PLAN).events
        self.expected = {
            "fault_crashes": sum(1 for e in events if e.kind == "crash"),
            "fault_restarts": sum(1 for e in events if e.kind == "restart"),
        }

    def run(self, recorder, traced):
        return self.runner(self.spec, self.SIM_SEED)

    def check(self, outputs):
        accounted = (
            outputs.get("trace_finished", 0)
            + outputs.get("fault_jobs_lost", 0)
            + outputs.get("fault_jobs_rejected", 0)
        )
        ok = accounted == self.jobs and all(
            outputs.get(key) == count for key, count in self.expected.items()
        )
        failed = self.jobs - int(outputs.get("trace_finished", 0)) if ok else self.work
        return failed, outputs


# --------------------------------------------------------------------- #
class _CampaignWorkload(Workload):
    """Shared by the two workloads that run a campaign into a store."""

    work_unit = "units"

    def load(self, inputs, workdir):
        self.workdir = workdir
        self.spec = CampaignSpec.load(workdir / inputs["campaign"])
        self.work = self.spec.run_count

    def prepare(self, index):
        self.results_dir = self.workdir / f"results-{index}"

    def _rows_ok(self, results_dir: Path) -> Tuple[bool, bytes]:
        """Exactly one row per unit, every ``unit`` key distinct."""
        store = ResultStore(results_dir)
        data = store.runs_path(self.spec.name).read_bytes()
        keys = [record.get("unit") for record in store.load_records(self.spec.name)]
        return len(keys) == self.work and len(set(keys)) == self.work, data


class CampaignMatrix(_CampaignWorkload):
    name = "campaign-matrix"
    why = (
        "a policy x routing x seed campaign on the default backend plus campaign report: "
        "pool start-up, pickling, store writes and the observed engine loop with obs live"
    )
    #: Pinned: 64 units are 4 trace draws x 16 variants, too few to average out.
    SIM_SEED = 5
    sizes = {
        "full": {
            "jobs": 20,
            "policies": ["coorm", "easy", "sjf", "coorm-strict"],
            "routings": ["round-robin", "least-loaded", "best-fit", "random"],
            "seeds": 4,
        },
        "smoke": {
            "jobs": 5,
            "policies": ["coorm", "easy"],
            "routings": ["round-robin", "least-loaded"],
            "seeds": 2,
        },
    }

    def setup(self, seed, size, workdir):
        base = builtin_scenarios()["fed-dual-trace"]
        source = replace(base.workload.trace, job_count=size["jobs"])
        scenario = replace(
            base, name="fed-dual-mini", workload=replace(base.workload, trace=source)
        )
        CampaignSpec(
            name="matrix",
            scenarios=(scenario,),
            seeds=size["seeds"],
            root_seed=self.SIM_SEED,
            policies=tuple(size["policies"]),
            routings=tuple(size["routings"]),
        ).save(workdir / "campaign.json")
        return {"campaign": "campaign.json"}

    def load(self, inputs, workdir):
        super().load(inputs, workdir)
        # The serial reference every 2-worker repeat must match byte for byte.
        self.results_dir = workdir / "results-serial"
        self._execute(None, workers=1)
        _ok, self.reference = self._rows_ok(self.results_dir)
        shutil.rmtree(self.results_dir)

    def _execute(self, recorder, workers: int) -> Dict:
        runner = CampaignRunner(
            self.spec, store=ResultStore(self.results_dir), collect_obs=True, slo_spec="default"
        )
        runner.run(workers=workers)
        code, text = _campaign_report(recorder, self.spec.name, self.results_dir)
        return {"report_code": code, "report_chars": len(text)}

    def run(self, recorder, traced):
        # Traced in-process, so unit execution happens under the wrappers.
        return self._execute(recorder, workers=1 if traced else 2)

    def check(self, outputs):
        rows_ok, data = self._rows_ok(self.results_dir)
        shutil.rmtree(self.results_dir)
        ok = rows_ok and data == self.reference and outputs["report_code"] == 0
        return (0 if ok else self.work), _sha(data)


class DistNoopTcp(_CampaignWorkload):
    name = "dist-noop-tcp"
    why = (
        "no-op units over dist/tcp, report, then a resume that skips them all: lease/grant/"
        "result/ack round trips, WorkQueue and the store's write/read/resume paths only"
    )
    sizes = {"full": {"units": 1500}, "smoke": {"units": 75}}

    def setup(self, seed, size, workdir):
        CampaignSpec(
            name="noop",
            scenarios=(ScenarioSpec(name="noop", runner=ensure_noop_runner()),),
            seeds=size["units"],
            root_seed=derive_seed(seed, self.name),
        ).save(workdir / "campaign.json")
        return {"campaign": "campaign.json"}

    def load(self, inputs, workdir):
        ensure_noop_runner()
        super().load(inputs, workdir)

    def run(self, recorder, traced):
        def execute(workers: int, resume: bool):
            runner = CampaignRunner(self.spec, store=ResultStore(self.results_dir))
            return runner.run(
                workers=workers, backend="dist", dist=DistConfig(transport="tcp"), resume=resume
            )

        first = execute(workers=2, resume=False)
        code, _text = _campaign_report(recorder, self.spec.name, self.results_dir)
        # Coordinator only: with every unit skipped there is nothing to
        # lease, and launching workers just to terminate them mid-start-up
        # is a 0.1--2 s race, not the resume path this workload measures.
        second = execute(workers=0, resume=True)
        stats = first.dist_stats or {}
        return {
            "report_code": code,
            "skipped": second.skipped,
            "counters": {
                "dist.leases": stats.get("dist_leases", 0.0),
                "dist.retries": stats.get("dist_retries", 0.0),
                "dist.reclaims": stats.get("dist_reclaims", 0.0),
            },
        }

    def check(self, outputs):
        rows_ok, data = self._rows_ok(self.results_dir)
        shutil.rmtree(self.results_dir)
        ok = (
            rows_ok
            and outputs["report_code"] == 0
            and outputs["counters"]["dist.retries"] == 0
            and outputs["skipped"] == self.work
        )
        return (0 if ok else self.work), _sha(data)


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (
        PaperEvolving,
        SwfReplayRms,
        SwfPipelineCbf,
        FedChaosAdaptive,
        CampaignMatrix,
        DistNoopTcp,
    )
}
