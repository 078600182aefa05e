"""Start-up is pay-as-you-go: what a process does not use, it does not import.

Deterministic and timing-free: every probe starts a fresh interpreter on
``src/``, runs a few lines and writes what it saw (``sys.modules`` mostly)
to a file.  The rule the probes pin:

* numpy is imported where it is used.  A process that never draws a random
  number or touches an AMR profile -- ``import repro`` and its packages, the
  listing commands, a coordinator and its workers on units that do not
  simulate, ``campaign report``, ``--resume`` -- never loads it.
* ``python -m repro`` imports a command group when it is dispatched, and
  ``repro.obs`` imports an instrument when it is asked for.

The counts are budgets with a little head-room over what was measured when
this file was written (``import repro``: 36 ``repro.*`` modules, 43 before;
``python -m repro policy list``: 53, 103 before).
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Packages (and the CLI front door) whose import must not load numpy.
NUMPY_FREE_IMPORTS = [
    "repro", "repro.core", "repro.campaign", "repro.dist", "repro.traces",
    "repro.federation", "repro.faults", "repro.obs", "repro.__main__",
]
IMPORT_REPRO_BUDGET = 40
POLICY_LIST_BUDGET = 60


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
# (a) numpy stays out of processes that do not simulate
# --------------------------------------------------------------------- #
def test_no_package_import_loads_numpy(tmp_path):
    # One interpreter, in order: sys.modules only grows, so the first True
    # names the package that pulled numpy in.
    seen = probe(
        tmp_path,
        "import importlib\n"
        f"for name in {NUMPY_FREE_IMPORTS!r}:\n"
        "    importlib.import_module(name)\n"
        "    seen[name] = 'numpy' in sys.modules\n",
    )
    assert {name: seen[name] for name in NUMPY_FREE_IMPORTS} == dict.fromkeys(
        NUMPY_FREE_IMPORTS, False
    )


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
# (b) ... and arrives with the first thing that needs it
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "code",
    [
        "from repro.sim import RandomSource\nuse = lambda: RandomSource(1)",
        "from repro.models import WorkingSetEvolution\n"
        "use = lambda: WorkingSetEvolution.generate(1024.0, seed=1)",
        "from repro.models import SpeedupModel\n"
        "use = lambda: SpeedupModel().step_duration_array([1, 2], 1024.0)",
    ],
    ids=["RandomSource", "WorkingSetEvolution.generate", "step_duration_array"],
)
def test_numpy_arrives_with_its_first_user(tmp_path, code):
    seen = probe(
        tmp_path,
        code + "\nseen['before'] = 'numpy' in sys.modules\nuse()\n"
        "seen['after'] = 'numpy' in sys.modules\n",
    )
    assert (seen["before"], seen["after"]) == (False, True)


# --------------------------------------------------------------------- #
# (c) a forked ipc worker on units that do not simulate
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
# (d) module sets
# --------------------------------------------------------------------- #
def test_import_repro_loads_hooks_and_no_other_obs_module(tmp_path):
    loaded = repro_modules(probe(tmp_path, "import repro"))
    assert [m for m in loaded if m.startswith("repro.obs")] == ["repro.obs", "repro.obs.hooks"]
    assert len(loaded) <= IMPORT_REPRO_BUDGET, loaded


def test_policy_list_imports_its_own_command_group_only(tmp_path):
    loaded = repro_modules(probe(tmp_path, cli("policy", "list")))
    assert [m for m in loaded if m.endswith(".cli")] == ["repro.policies.cli"]
    assert len(loaded) <= POLICY_LIST_BUDGET, loaded


# --------------------------------------------------------------------- #
# (e) the rule itself (ruff's TID253 says the same in CI)
# --------------------------------------------------------------------- #
def _imports_at_import_time(node: ast.AST):
    """Import statements that run when the module does."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(child, ast.If) and "TYPE_CHECKING" in ast.unparse(child.test):
            continue
        else:
            yield from _imports_at_import_time(child)


def test_no_module_level_numpy_import_under_src():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in _imports_at_import_time(tree):
            names = (
                [node.module or ""] if isinstance(node, ast.ImportFrom)
                else [alias.name for alias in node.names]
            )
            if any(name.split(".")[0] == "numpy" for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
