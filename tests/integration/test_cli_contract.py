"""The CLI's contract for input it did not write itself.

* Listing commands print exactly what they printed before the registries
  were unified, and ``--help`` of the top level and of every group exactly
  what it printed before groups were imported on dispatch (snapshots under
  ``tests/data/cli_snapshots/``).
* Bad input -- an unknown name, a malformed or hostile spec file -- ends in
  ONE ``error:`` line on stderr that names the file and the path inside it,
  exit status 2, and never a traceback.
* Whatever a mutated spec dictionary looks like, loading it raises a
  :class:`~repro.core.errors.ReproError` or yields a usable object.
"""
from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import COMMAND_GROUPS, build_parser, main
from repro.campaign import CampaignSpec, ScenarioSpec, WorkloadSpec
from repro.campaign.registry import builtin_scenarios
from repro.core.errors import ReproError, SpecError
from repro.faults.plan import FaultPlan, get_fault_plan
from repro.federation import TOPOLOGIES, FederationSpec
from repro.obs.slo import DEFAULT_SLO, SLOSpec
from repro.traces import TraceSource

DATA = Path(__file__).resolve().parent.parent / "data"
HOSTILE = sorted((DATA / "hostile").glob("*.json"))


# --------------------------------------------------------------------- #
# Snapshots
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "command", ["policy list", "policy stages", "federation list", "campaign scenarios"]
)
def test_listing_output_is_pinned_byte_for_byte(command, capsys):
    assert main(command.split()) == 0
    snapshot = DATA / "cli_snapshots" / f"{command.replace(' ', '_')}.txt"
    assert capsys.readouterr().out == snapshot.read_text(encoding="utf-8")


#: Generated at 7ea979e, when ``repro.__main__`` still imported all six groups
#: up front: importing a group on dispatch must not move a byte of help text.
HELP_SNAPSHOTS = {"top": ["--help"]} | {
    group: [group, "--help"] for group, _help, _module in COMMAND_GROUPS
}


@pytest.mark.parametrize("name", sorted(HELP_SNAPSHOTS))
def test_help_output_is_pinned_byte_for_byte(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    with pytest.raises(SystemExit) as stop:
        main(HELP_SNAPSHOTS[name])
    assert stop.value.code == 0
    snapshot = DATA / "cli_snapshots" / f"help_{name}.txt"
    assert capsys.readouterr().out == snapshot.read_text(encoding="utf-8")


def test_unknown_group_lists_all_six(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(["nope"])
    assert stop.value.code == 2
    snapshot = DATA / "cli_snapshots" / "unknown_group.txt"
    assert capsys.readouterr().err == snapshot.read_text(encoding="utf-8")


def test_build_parser_without_a_group_builds_all_six():
    parser = build_parser()
    for argv in (["dist", "status"], ["obs", "diff", "a", "b"], ["policy", "list"]):
        assert parser.parse_args(argv).command == argv[0]


# --------------------------------------------------------------------- #
# Hostile input through the front door
# --------------------------------------------------------------------- #
def assert_one_error_line(code, captured, *fragments):
    assert code == 2
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    for fragment in fragments:
        assert fragment in lines[0]


#: file under tests/data/hostile/ -> the path fragment its error must name.
HOSTILE_FRAGMENTS = {
    "scenario_without_name.json": "scenarios[0]: ScenarioSpec needs field(s): ['name']",
    "fault_event_without_time.json": "scenarios[0].faults.events[0]:",
    "unknown_policy.json": "scenarios[0]: unknown scheduling policy 'nope'; known: ['coorm'",
    "psa_durations_not_a_list.json": "scenarios[0].workload.psa_task_durations:",
    "cluster_without_name.json": "scenarios[0].federation.clusters[0]:",
    "not_json.json": "not_json.json: Expecting value",
    "unknown_key_in_trace_model.json": "scenarios[0].workload.trace.model.arrivals:",
    "rigid_interarrival_zero.json": "scenarios[0].workload: rigid_mean_interarrival",
    "retired_trace_path.json": "scenarios[0].workload.trace_path:",
    "strict_with_filling_policy.json": "scenarios[0]: strict_equipartition=True conflicts",
    "psa_duration_nan.json": "scenarios[0].workload.psa_task_durations: must be positive",
    "elastic_until_infinity.json": "scenarios[0].faults.elastic[0]: elastic rule needs",
    "rms_interval_nan.json": "scenarios[0].rms: rescheduling_interval must be >= 0 and finite",
    "description_not_a_string.json": "scenarios[0].description: must be a string, got int",
    "fault_plan_on_analytic_runner.json": (
        "scenarios[0].faults: runner 'fig1' builds no RMS and ignores fault plans"
    ),
    "policy_on_analytic_runner.json": (
        "scenarios[0].policy: runner 'fig2' builds no RMS and ignores scheduling policies"
    ),
    "federation_on_analytic_runner.json": (
        "scenarios[0].federation: runner 'fig3' builds no RMS and ignores federations"
    ),
    "fault_member_missing.json": (
        "scenarios[0].faults: fault plan 'blackout' references member '#1' "
        "but the federation has 1 members"
    ),
}


def test_every_hostile_file_is_in_the_table():
    assert {p.name for p in HOSTILE} == set(HOSTILE_FRAGMENTS)


@pytest.mark.parametrize("path", HOSTILE, ids=lambda p: p.stem)
def test_hostile_campaign_file(path, tmp_path, capsys):
    code = main(["campaign", "run", "--spec", str(path), "--results-dir", str(tmp_path)])
    fragment = HOSTILE_FRAGMENTS[path.name]
    assert_one_error_line(code, capsys.readouterr(), path.name, fragment)
    assert not list(tmp_path.iterdir())  # nothing ran, nothing was stored


def test_a_policy_sweep_of_an_analytic_figure_is_refused_before_anything_is_written(
    tmp_path, capsys
):
    argv = ["campaign", "run", "--scenarios", "fig1", "--policies", "easy"]
    code = main([*argv, "--results-dir", str(tmp_path)])
    assert_one_error_line(
        code, capsys.readouterr(), "scenarios[0].policy: runner 'fig1' builds no RMS"
    )
    assert not list(tmp_path.iterdir())


#: argv -> what its one error line must say (the known names included).
UNKNOWN_NAMES = {
    "policy describe nope": "unknown scheduling policy 'nope'; known: ['coorm'",
    "federation describe nope": (
        "unknown routing policy or topology 'nope'; known: ['affinity'"
    ),
    "federation run --faults nope": "unknown fault plan 'nope'; known: ['blackout'",
    "federation run --topology ring": (
        "unknown federation topology 'ring'; known: ['dual'"
    ),
    "federation run --scenario ghost": (
        "unknown scenario 'ghost'; known: ['baseline-dynamic'"
    ),
    "obs export --scenario nope": "unknown scenario 'nope'; known: [",
    "campaign run --scenarios fig1 --policies bogus": (
        "unknown scheduling policy 'bogus'"
    ),
    "campaign run --scenarios ghost": "unknown scenario 'ghost'",
    "campaign run": "provide --scenarios or --spec",
}


@pytest.mark.parametrize("command", sorted(UNKNOWN_NAMES))
def test_unknown_names_list_the_known_ones(command, capsys):
    code = main(command.split())
    assert_one_error_line(code, capsys.readouterr(), UNKNOWN_NAMES[command])


#: Options of the dist tier that no parser ``type=`` can check: each used to
#: be caught as a bare ``ValueError`` by a handler of its own in ``*/cli.py``.
BAD_DIST_OPTIONS = {
    "campaign run --scenarios fig1 --dist-kill-after 0:1,x:2": (
        "--dist-kill-after[1]: expects IDX:N pairs, got 'x:2'"
    ),
    "campaign run --scenarios fig1 --transport tcp --bind nowhere": (
        "endpoint must look like host:port, got 'nowhere'"
    ),
    "campaign run --scenarios fig1 --workers 0": (
        "workers must be >= 1 on the 'ipc' transport, got 0"
    ),
    "campaign run --scenarios fig1 --workers 2 --lease-ttl 0": "lease_ttl must be positive",
    "dist worker --connect nowhere": "endpoint must look like host:port, got 'nowhere'",
    "dist status --connect nowhere": "endpoint must look like host:port, got 'nowhere'",
}


@pytest.mark.parametrize("command", sorted(BAD_DIST_OPTIONS))
def test_bad_dist_options_are_one_error_line(command, tmp_path, capsys):
    argv = command.split()
    if argv[0] == "campaign":
        argv += ["--results-dir", str(tmp_path), "--quiet"]
    assert_one_error_line(main(argv), capsys.readouterr(), BAD_DIST_OPTIONS[command])
    assert not list(tmp_path.iterdir())  # nothing ran, nothing was stored


#: hostile SLO spec file content (None = no file) -> its error fragment.
HOSTILE_SLO = {
    "missing-parameter": (
        '{"name": "s", "objectives": [{"kind": "p95_wait"}]}',
        "objectives[0]: objective 'p95_wait' missing",
    ),
    "unknown-kind": (
        '{"name": "s", "objectives": [{"kind": "nope"}]}',
        "objectives[0]: unknown objective kind 'nope'; known: [",
    ),
    "unknown-key": (
        '{"name": "s", "objectives": [], "colour": 1}',
        "SLOSpec does not understand field(s): ['colour']",
    ),
    "not-json": ("{nope", "Expecting property name"),
    "missing-file": (None, "No such file or directory"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_SLO))
@pytest.mark.parametrize("command", ["obs-slo", "campaign-run-slo"])
def test_hostile_slo_file(command, case, tmp_path, capsys):
    content, fragment = HOSTILE_SLO[case]
    path = tmp_path / "slo.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    if command == "obs-slo":
        argv = ["obs", "slo", "--scenario", "fig1", "--spec", str(path)]
    else:
        argv = ["campaign", "run", "--scenarios", "fig1", "--slo", str(path),
                "--results-dir", str(tmp_path / "results")]
    assert_one_error_line(main(argv), capsys.readouterr(), "slo.json", fragment)
    assert not (tmp_path / "results").exists()


def test_rigid_interarrival_fails_at_load_not_inside_a_worker():
    # It used to load fine and fail later as a unit error from the generator.
    with pytest.raises(ReproError, match="rigid_mean_interarrival must be positive"):
        WorkloadSpec(rigid_job_count=4, rigid_mean_interarrival=0)
    with pytest.raises(ReproError, match="rigid_max_nodes"):
        WorkloadSpec(rigid_max_nodes=0)


def test_slo_spec_rejects_unknown_keys_like_every_other_spec():
    data = DEFAULT_SLO.to_dict()
    assert SLOSpec.from_dict(data) == DEFAULT_SLO
    with pytest.raises(ReproError, match="does not understand"):
        SLOSpec.from_dict({**data, "colour": "blue"})


# --------------------------------------------------------------------- #
# Mutated dictionaries: a ReproError or a usable object, nothing else
# --------------------------------------------------------------------- #
def _campaign_dict() -> dict:
    scenarios = builtin_scenarios()
    return CampaignSpec(
        name="fuzz",
        scenarios=(
            scenarios["fed-chaos-dual"],
            scenarios["trace-adaptive"],
            ScenarioSpec(
                name="custom",
                policy={"ordering": "sjf"},
                federation=TOPOLOGIES.get("hetero3"),
                faults=get_fault_plan("elastic-tide"),
                workload=WorkloadSpec(psa_task_durations=(60.0, 30.0), rigid_job_count=3),
                params={"k": [1, 2]},
                metrics=("horizon",),
            ),
        ),
        seeds=2,
        policies=("coorm", "easy"),
    ).to_dict()


#: (loader, a valid dictionary) per spec family the ISSUE names.
SUBJECTS = {
    "campaign": (CampaignSpec.from_dict, _campaign_dict()),
    "fault-plan": (FaultPlan.from_dict, get_fault_plan("flaky-nodes").to_dict()),
    "elastic-plan": (FaultPlan.from_dict, get_fault_plan("elastic-tide").to_dict()),
    "federation": (FederationSpec.from_dict, TOPOLOGIES.get("hetero3").to_dict()),
    "slo": (SLOSpec.from_dict, DEFAULT_SLO.to_dict()),
    "trace-source": (
        TraceSource.from_dict,
        builtin_scenarios()["trace-adaptive"].workload.trace.to_dict(),
    ),
}


def _paths(node, prefix=()):
    """Every path into *node* (the root included), depth first."""
    yield prefix
    if isinstance(node, dict):
        children = list(node.items())
    else:
        children = list(enumerate(node)) if isinstance(node, list) else []
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _replace(root, path, value):
    if not path:
        return value
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return root


@st.composite
def mutated(draw, data):
    """*data* with one required-key deletion, unknown key or container swap."""
    root = copy.deepcopy(data)
    path = draw(st.sampled_from(sorted(_paths(root), key=repr)))
    node = root
    for key in path:
        node = node[key]
    kind = draw(st.sampled_from(["delete", "inject", "swap"]))
    if kind == "delete" and isinstance(node, dict) and node:
        del node[draw(st.sampled_from(sorted(node)))]
        return root
    if kind == "inject" and isinstance(node, dict):
        node[draw(st.sampled_from(["colour", "name2", ""]))] = draw(
            st.sampled_from([1, "x", None, [], {}])
        )
        return root
    swaps = [[], {}, [node], {"value": node}, 5, "text", None, True, -1.5,
             math.nan, math.inf, -math.inf]
    if isinstance(node, dict):
        swaps.append(list(node.values()))
    if isinstance(node, list):
        swaps.append(dict(enumerate(node)))
    return _replace(root, path, draw(st.sampled_from(swaps)))


@pytest.mark.parametrize("subject", sorted(SUBJECTS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_spec_is_rejected_or_usable(subject, data):
    load, valid = SUBJECTS[subject]
    candidate = data.draw(mutated(valid))
    try:
        loaded = load(candidate)
    except ReproError:
        return
    # A spec that loads must also serialise, as strict JSON as the wire does.
    json.dumps(loaded.to_dict(), allow_nan=False)


def _dotted(path) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


@pytest.mark.parametrize("subject", sorted(SUBJECTS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_number_for_a_name_or_description_is_rejected(subject, data):
    """Free-form text is typed too: a number in any ``name`` or
    ``description`` is a :class:`SpecError` located at that field or at the
    section that holds it."""
    load, valid = SUBJECTS[subject]
    names = [p for p in _paths(valid) if p and p[-1] in ("name", "description")]
    if not names:
        return
    path = data.draw(st.sampled_from(names))
    number = data.draw(st.integers() | st.floats(allow_nan=False, allow_infinity=False))
    with pytest.raises(SpecError) as error:
        load(_replace(copy.deepcopy(valid), path, number))
    assert error.value.path in (_dotted(path), _dotted(path[:-1]))


@pytest.mark.parametrize("subject", sorted(SUBJECTS))
def test_unmutated_subject_round_trips(subject):
    load, valid = SUBJECTS[subject]
    assert load(valid).to_dict() == valid
