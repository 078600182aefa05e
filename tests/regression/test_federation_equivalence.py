"""Every scenario runs on a federation: the one-member ``single`` topology
unless it names another.

``run_scenario`` has one way to build RMSs.  A scenario without a
federation runs on ``TOPOLOGIES["single"]`` (member ``cluster0`` under the
``any`` routing), sized like the paper's platform, so its applications take
the same placement seam as a federated scenario's.  Three layers pin it:

* :func:`test_scenario_without_a_federation_runs_on_single` -- the
  federation built is exactly the resolved ``single`` topology, and every
  application, background jobs included, lands on its one member unchanged;
* :func:`test_fed_columns_only_when_the_spec_names_a_federation` -- on
  every built-in single-cluster scenario, naming the ``single`` topology
  adds the ``fed_*`` breakdown and changes no other column, so default
  records keep their bytes;
* the ``fed-single`` golden fixture (see ``generate_golden.py``) pins the
  absolute values, and every single-cluster golden pins its own.
"""
from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.apps.rigid import RigidJobSpec
from repro.campaign import builtin  # noqa: F401  (registers the scenarios)
from repro.campaign.registry import builtin_scenarios, run_sweep
from repro.core.errors import RequestError
from repro.experiments.runner import EvaluationScale, run_scenario
from repro.faults import FaultPlan
from repro.federation import TOPOLOGIES, ClusterSpec, FederationSpec
from repro.sim.randomness import derive_seed
from repro.traces.convert import ConvertedJob

SINGLE = FederationSpec(clusters=(ClusterSpec(name="cluster0"),), routing="any")


def canonical(metrics: dict) -> str:
    return json.dumps(metrics, sort_keys=True, allow_nan=False)


def test_scenario_without_a_federation_runs_on_single() -> None:
    """The implicit federation is ``single`` resolved to the derived size.

    Rigid jobs keep their exact recorded size, converted jobs clamp to the
    one member, and every application -- AMR, PSA, background jobs -- is
    routed there.
    """
    result = run_scenario(
        EvaluationScale.tiny(),
        seed=5,
        rigid_jobs=[
            RigidJobSpec("r1", submit_time=10.0, node_count=4, duration=30.0),
            RigidJobSpec("r2", submit_time=25.0, node_count=8, duration=60.0),
        ],
        adaptive_jobs=[
            ConvertedJob("rigid", "t1", submit_time=5.0, node_count=2, duration=20.0),
            ConvertedJob("moldable", "t2", submit_time=40.0, node_count=4, duration=40.0),
        ],
    )
    fed = result.federation
    assert fed.spec == TOPOLOGIES.get("single").resolved(result.cluster_nodes)
    assert fed.spec.routing == "any" and len(fed.rms_list()) == 1
    assert fed.routed_counts() == {"cluster0": 6}
    assert [a.node_count for a in result.rigid_apps] == [4, 8]
    assert all(a.finished() for a in result.rigid_apps + result.trace_apps)


SINGLE_CLUSTER = sorted(
    name
    for name, spec in builtin_scenarios().items()
    if spec.runner == "amr_psa" and spec.federation is None
)


@pytest.mark.parametrize("replicate", [0, 1])
@pytest.mark.parametrize("name", SINGLE_CLUSTER)
def test_fed_columns_only_when_the_spec_names_a_federation(
    name: str, replicate: int
) -> None:
    """At every point of every built-in single-cluster scenario, the default
    record has no ``fed_*`` column, and naming the ``single`` topology only
    adds ``fed_*`` columns: every other metric keeps its bytes.
    """
    spec = replace(builtin_scenarios()[name], metrics=())
    seed = derive_seed(0, name, replicate)
    plain_points = run_sweep(spec, seed)
    named_points = run_sweep(replace(spec, federation=TOPOLOGIES.get("single")), seed)

    assert len(named_points) == len(plain_points)
    for (_, plain), (_, named) in zip(plain_points, named_points):
        assert not any(key.startswith("fed_") for key in plain)
        assert set(plain) <= set(named)
        extra = set(named) - set(plain)
        assert extra and all(key.startswith("fed_") for key in extra)
        assert canonical({k: named[k] for k in plain}) == canonical(plain)


def test_oversized_rigid_job_fails_on_both_paths() -> None:
    """A job no cluster fits errors out instead of being silently reshaped."""
    scale = EvaluationScale.tiny()
    kwargs = dict(
        seed=5,
        rigid_jobs=[
            RigidJobSpec("huge", submit_time=1.0, node_count=10_000, duration=30.0)
        ],
    )
    with pytest.raises(RequestError):
        run_scenario(scale, **kwargs)
    with pytest.raises(RequestError):
        run_scenario(scale, federation=SINGLE, **kwargs)


def test_amr_too_large_for_every_member_names_the_member() -> None:
    small = FederationSpec(clusters=(ClusterSpec(name="small", nodes=2),))
    with pytest.raises(RequestError, match="'amr' needs .* routed to member 'small'"):
        run_scenario(EvaluationScale.tiny(), federation=small)


@pytest.mark.parametrize("federation", [None, SINGLE])
def test_oversized_rigid_job_under_a_fault_plan_counts_rejected(federation) -> None:
    huge = RigidJobSpec("huge", submit_time=1.0, node_count=10_000, duration=30.0)
    result = run_scenario(
        EvaluationScale.tiny(), federation=federation, faults=FaultPlan(name="p"),
        rigid_jobs=[huge],
    )
    assert result.fault_injector.summary()["fault_jobs_rejected"] == 1.0
    assert result.rigid_apps == [] and result.amr.finished()


@pytest.mark.parametrize("federation", [None, SINGLE])
def test_converted_job_larger_than_its_member_is_clamped(federation) -> None:
    job = ConvertedJob("rigid", "t1", submit_time=5.0, node_count=10_000, duration=20.0)
    result = run_scenario(
        EvaluationScale.tiny(), federation=federation, adaptive_jobs=[job]
    )
    (app,) = result.trace_apps
    assert app.node_count == result.cluster_nodes and app.finished()
