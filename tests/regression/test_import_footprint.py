"""Start-up is pay-as-you-go: what a process does not use, it does not import.

Deterministic and timing-free: every probe starts a fresh interpreter on
``src/``, runs a few lines and writes what it saw (``sys.modules`` mostly)
to a file.  The rules the probes pin:

* numpy is never imported.  ``RandomSource`` draws numpy's own streams in
  pure Python, so not even a process that simulates loads it -- nor does
  ``import repro``, a listing command, a coordinator and its workers,
  ``campaign report`` or ``--resume``.
* A package names its exports and imports none: ``python -m repro`` imports
  a command group when it is dispatched, and a package a submodule when one
  of its names is asked for.  So the spec layer -- writing a campaign spec,
  an SWF trace, an evolution -- loads no simulator, and the front door no
  ``hashlib``.
* A coordinator imports before it forks: a worker compiles nothing while it
  runs its units.

The counts are budgets with a little head-room over what was measured when
this file was last changed (``import repro``: 2 ``repro.*`` modules, 36
before the package exports went lazy and 43 before the command groups did;
``python -m repro policy list``: 14, then 53 and 103).
"""
from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
SUPPORT = SRC.parent / "tests" / "support"

IMPORT_REPRO_BUDGET = 4
POLICY_LIST_BUDGET = 18


def probe(tmp_path: Path, code: str) -> dict:
    """Run *code* in a fresh interpreter; returns the ``seen`` dict it filled.

    ``seen["modules"]`` is added for it: ``sys.modules`` when *code* ended.
    """
    out = tmp_path / "seen.json"
    script = (
        "import json, sys\nseen = {}\n" + code + "\n"
        "seen['modules'] = sorted(sys.modules)\n"
        f"open({str(out)!r}, 'w').write(json.dumps(seen))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120.0,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def cli(*argv: str) -> str:
    """Probe code that runs ``python -m repro *argv`` to its (clean) exit."""
    return (
        "import runpy\n"
        f"sys.argv = ['repro'] + {list(argv)!r}\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    assert not stop.code, stop.code\n"
    )


def repro_modules(seen: dict) -> list:
    return [m for m in seen["modules"] if m == "repro" or m.startswith("repro.")]


# --------------------------------------------------------------------- #
# (a) numpy stays out of every process, simulating ones too
# --------------------------------------------------------------------- #
SIMULATING = """
from dataclasses import replace

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition('.')[0] == 'numpy':
            raise ImportError('numpy is not installed here')

sys.meta_path.insert(0, NoNumpy())
from repro.__main__ import main
from repro.campaign import builtin_scenarios, get_runner
from repro.traces import TraceSource

seen['synth'] = main(['trace', 'synth', {swf!r}, '--jobs', '20', '--seed', '7'])
seen['fig9'] = main(['campaign', 'run', '--scenarios', 'fig9', '--seeds', '1',
                     '--results-dir', {results!r}, '--quiet'])
base = builtin_scenarios()['trace-replay']
replay = replace(base, workload=replace(base.workload, trace=TraceSource(path={swf!r})))
seen['replayed'] = get_runner(base.runner)(replay, 1)['trace_finished']
"""


def test_a_simulating_process_never_loads_numpy(tmp_path):
    # numpy's import fails in the probe, so this also runs a simulating
    # campaign and an SWF replay where numpy is not installed.
    seen = probe(tmp_path, SIMULATING.format(
        swf=str(tmp_path / "jobs.swf"), results=str(tmp_path / "results")
    ))
    assert (seen["synth"], seen["fig9"], seen["replayed"]) == (0, 0, 20)
    assert "numpy" not in seen["modules"]


@pytest.mark.parametrize(
    "argv", [("policy", "list"), ("campaign", "scenarios"), ("--help",)], ids=" ".join
)
def test_listing_commands_do_not_load_numpy(tmp_path, argv):
    assert "numpy" not in probe(tmp_path, cli(*argv))["modules"]


NOOP_CAMPAIGN = """
from repro.__main__ import main
from repro.campaign import CampaignRunner, CampaignSpec, ResultStore, ScenarioSpec
from repro.dist import DistConfig, ensure_noop_runner

spec = CampaignSpec(
    name="noop", scenarios=(ScenarioSpec(name="noop", runner=ensure_noop_runner()),), seeds=20
)
store = ResultStore({results!r})

def run(resume):
    config = DistConfig(transport="thread")
    return CampaignRunner(spec, store=store).run(workers=2, dist=config, resume=resume)

seen["ran"] = len(run(resume=False).records)
seen["report"] = main(["campaign", "report", "noop", "--results-dir", {results!r}])
seen["resumed"] = run(resume=True).skipped
"""


def test_noop_campaign_report_and_resume_do_not_load_numpy(tmp_path):
    seen = probe(tmp_path, NOOP_CAMPAIGN.format(results=str(tmp_path / "results")))
    assert (seen["ran"], seen["report"], seen["resumed"]) == (20, 0, 20)
    assert "numpy" not in seen["modules"]


# --------------------------------------------------------------------- #
# (b) a forked ipc worker on units that do not simulate
# --------------------------------------------------------------------- #
IPC_WORKERS = """
import os
from repro.campaign import RUNNERS, CampaignRunner, CampaignSpec, ScenarioSpec
from repro.dist import DistConfig

@RUNNERS.register("numpy-probe")
def numpy_probe(spec, seed):
    return {"numpy": float("numpy" in sys.modules), "pid": float(os.getpid())}

spec = CampaignSpec(
    name="probe", scenarios=(ScenarioSpec(name="probe", runner="numpy-probe"),), seeds=20
)
result = CampaignRunner(spec).run(workers=2, dist=DistConfig(transport="ipc"))
seen["own_pid"] = os.getpid()
seen["rows"] = [record["metrics"] for record in result.records]
"""


def test_ipc_workers_on_noop_units_do_not_load_numpy(tmp_path):
    # The workers are forked from the probe, so this also says the
    # coordinator had not loaded numpy by the time it launched them.
    seen = probe(tmp_path, IPC_WORKERS)
    assert len(seen["rows"]) == 20
    assert seen["own_pid"] not in {row["pid"] for row in seen["rows"]}
    assert {row["numpy"] for row in seen["rows"]} == {0.0}


# --------------------------------------------------------------------- #
# (c) module sets
# --------------------------------------------------------------------- #
def test_import_repro_loads_no_layer(tmp_path):
    loaded = repro_modules(probe(tmp_path, "import repro"))
    assert loaded == ["repro", "repro._lazy"]
    assert len(loaded) <= IMPORT_REPRO_BUDGET, loaded


def test_the_rms_loads_hooks_and_no_other_obs_module(tmp_path):
    loaded = repro_modules(probe(tmp_path, "from repro import CooRMv2"))
    assert "repro.core.rms" in loaded
    assert [m for m in loaded if m.startswith("repro.obs")] == ["repro.obs", "repro.obs.hooks"]


PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts) for init in SRC.glob("repro/**/__init__.py")
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_shows_in_dir(package):
    # The exports are served by PEP 562 __getattr__/__dir__, not imported.
    module = importlib.import_module(package)
    assert sorted(set(module.__all__) - set(dir(module))) == []
    for name in module.__all__:
        getattr(module, name)


def test_an_export_named_like_its_submodule_stays_the_export(tmp_path):
    # Loading repro.core.fit binds the submodule on repro.core; the package
    # keeps exporting the function, as when it imported it eagerly.
    seen = probe(tmp_path, (
        "import repro.core.fit\n"
        "from repro.core import fit\n"
        "seen['fit'] = [callable(fit), fit.__module__]\n"
    ))
    assert seen["fit"] == [True, "repro.core.fit"]


def test_policy_list_imports_its_own_command_group_only(tmp_path):
    loaded = repro_modules(probe(tmp_path, cli("policy", "list")))
    assert [m for m in loaded if m.endswith(".cli")] == ["repro.policies.cli"]
    assert len(loaded) <= POLICY_LIST_BUDGET, loaded


@pytest.mark.parametrize(
    "code", ["import repro", cli("--help"), cli("policy", "list")],
    ids=["import repro", "--help", "policy list"],
)
def test_the_front_door_does_not_load_hashlib(tmp_path, code):
    # hashlib (OpenSSL's _hashlib) is derive_seed's, which no listing needs.
    modules = probe(tmp_path, code)["modules"]
    assert "hashlib" not in modules and "_hashlib" not in modules


#: What the spec layer must not load: the scheduler and its stages, the RMS,
#: the applications, federation placement, fault injection, the dist transports.
SIMULATOR = (
    "repro.core.rms", "repro.core.scheduler", "repro.core.fit", "repro.policies.backfill",
    "repro.policies.ordering", "repro.policies.sharing", "repro.core.events", "repro.apps",
    "repro.federation.federation", "repro.faults.injector", "repro.dist.transport",
    "repro.dist.worker", "multiprocessing", "socket",
)


def test_the_spec_layer_loads_no_simulator(tmp_path):
    # The ledger's three set-up paths (tests/support/spec_layer.py): a
    # campaign spec of a dist-noop scenario, a synthesized SWF trace and an
    # AMR evolution, all written to disk.
    seen = probe(tmp_path, (
        f"sys.path.insert(0, {str(SUPPORT)!r})\n"
        "from pathlib import Path\n"
        "from spec_layer import set_up\n"
        f"seen['steps'] = set_up(Path({str(tmp_path / 'out')!r}))\n"
    ))
    assert seen["steps"] == 40
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["campaign.json", "trace.swf"]
    loaded = [m for m in seen["modules"] if m in SIMULATOR or m.startswith("repro.apps.")]
    assert loaded == []


FORKED_WORKER = """
from repro.campaign import RUNNERS, CampaignRunner, CampaignSpec, ScenarioSpec
from repro.dist import DistConfig, worker

at_entry = []

def watched(entry):
    def enter(*args):
        at_entry.append(set(sys.modules))
        return entry(*args)
    return enter

worker.ipc_worker_entry = watched(worker.ipc_worker_entry)
worker.tcp_worker_entry = watched(worker.tcp_worker_entry)

@RUNNERS.register("module-probe")
def module_probe(spec, seed):
    # Every module this worker loaded since it was forked, the units it ran
    # and reported before this one included.
    return {{name: 1.0 for name in set(sys.modules) - at_entry[0]}}

spec = CampaignSpec(
    name="probe", scenarios=(ScenarioSpec(name="probe", runner="module-probe"),), seeds=12
)
result = CampaignRunner(spec).run(workers=2, dist=DistConfig(transport={transport!r}))
seen["rows"] = len(result.records)
seen["loaded"] = sorted({{name for record in result.records for name in record["metrics"]}})
"""


@pytest.mark.parametrize("transport", ["ipc", "tcp"])
def test_a_forked_worker_loads_no_module_while_it_runs_units(tmp_path, transport):
    # 12 units on 2 workers: some worker runs a unit after its first one
    # was run and reported, so what those loaded is in a later row.
    seen = probe(tmp_path, FORKED_WORKER.format(transport=transport))
    assert seen["rows"] == 12
    assert [m for m in seen["loaded"] if m == "repro" or m.startswith("repro.")] == []


# --------------------------------------------------------------------- #
# (d) the rule itself (ruff's TID251 says the same in CI)
# --------------------------------------------------------------------- #
def test_no_numpy_import_under_src():
    # Anywhere: module level, inside a function, under TYPE_CHECKING.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = (
                [node.module or ""] if isinstance(node, ast.ImportFrom)
                else [alias.name for alias in node.names]
            )
            if any(name.split(".")[0] == "numpy" for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
