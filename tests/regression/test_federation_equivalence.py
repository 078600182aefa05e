"""Single-cluster federation equivalence: the load-bearing federation contract.

A 1-cluster federation under the ``any`` routing and the ``coorm`` policy
must be **byte-identical** to the direct single-:class:`Scheduler` path --
same simulator events in the same order, hence exactly the same
:class:`SimulationMetrics`, bit for bit.  This is what lets every existing
scenario be federated without re-validating the paper's per-cluster
semantics.

Three layers pin the contract:

* :func:`test_run_scenario_equivalence` compares the raw ``run_scenario``
  metrics of the two paths (the substrate the fig3/fig9 experiments run on);
* :func:`test_fed_single_matches_baseline_dynamic` compares the campaign
  records of every built-in single-cluster scenario, run directly and on
  the ``single`` topology, at the same seed;
* the ``fed-single`` golden fixture (see ``generate_golden.py``) pins the
  absolute values, so the equivalence cannot silently co-drift.
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


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_run_scenario_equivalence(seed: int) -> None:
    """run_scenario with a 1-cluster federation == the direct path, bytewise."""
    scale = EvaluationScale.tiny()
    direct = run_scenario(scale, seed=seed)
    federated = run_scenario(scale, seed=seed, federation=SINGLE)

    assert canonical(federated.metrics.to_dict()) == canonical(direct.metrics.to_dict())
    assert federated.cluster_nodes == direct.cluster_nodes
    assert federated.ideal_preallocation == direct.ideal_preallocation
    # Every application went to the single member.
    assert federated.federation.routed_counts() == {"cluster0": 2}


def test_run_scenario_equivalence_with_background_workload() -> None:
    """Rigid and converted trace jobs stay byte-identical too.

    Rigid jobs keep their exact recorded size on both paths (the federated
    path must not reshape them), and converted jobs clamp to the single
    member exactly like the direct path clamps to the cluster.
    """
    scale = EvaluationScale.tiny()
    kwargs = dict(
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
    direct = run_scenario(scale, **kwargs)
    federated = run_scenario(scale, federation=SINGLE, **kwargs)
    assert canonical(federated.metrics.to_dict()) == canonical(direct.metrics.to_dict())
    assert [a.node_count for a in federated.rigid_apps] == [
        a.node_count for a in direct.rigid_apps
    ]
    assert all(a.finished() for a in federated.rigid_apps)
    assert all(a.finished() for a in federated.trace_apps)


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


def test_run_scenario_equivalence_with_announce_and_overcommit() -> None:
    """The fig9/fig10 knobs (overcommit, announced updates) stay equivalent."""
    scale = EvaluationScale.tiny()
    kwargs = dict(seed=3, overcommit=1.2, announce_interval=30.0)
    direct = run_scenario(scale, **kwargs)
    federated = run_scenario(scale, federation=SINGLE, **kwargs)
    assert canonical(federated.metrics.to_dict()) == canonical(direct.metrics.to_dict())


SINGLE_CLUSTER = sorted(
    name
    for name, spec in builtin_scenarios().items()
    if spec.runner == "amr_psa" and spec.federation is None
)


@pytest.mark.parametrize("replicate", [0, 1])
@pytest.mark.parametrize("name", SINGLE_CLUSTER)
def test_fed_single_matches_baseline_dynamic(name: str, replicate: int) -> None:
    """Every built-in single-cluster scenario reproduces itself on the
    ``single`` topology.

    The federated record additionally carries the ``fed_*`` federation
    columns; every metric the two records share must match byte for byte,
    at every point of a sweep (with every metric kept).
    """
    spec = replace(builtin_scenarios()[name], metrics=())
    seed = derive_seed(0, name, replicate)
    direct = run_sweep(spec, seed)
    federated = run_sweep(replace(spec, federation=TOPOLOGIES.get("single")), seed)

    assert len(federated) == len(direct)
    for (_, direct_metrics), (_, fed_metrics) in zip(direct, federated):
        shared = set(fed_metrics) & set(direct_metrics)
        assert shared == set(direct_metrics)  # the federation only *adds* columns
        assert canonical({k: fed_metrics[k] for k in shared}) == canonical(direct_metrics)
        extra = set(fed_metrics) - shared
        assert extra and all(key.startswith("fed_") for key in extra)


def test_amr_too_large_for_every_member_names_the_member() -> None:
    small = FederationSpec(clusters=(ClusterSpec(name="small", nodes=2),))
    with pytest.raises(RequestError, match="'amr' needs .* routed to member 'small'"):
        run_scenario(EvaluationScale.tiny(), federation=small)


def test_oversized_rigid_job_under_a_fault_plan_counts_rejected() -> None:
    huge = RigidJobSpec("huge", submit_time=1.0, node_count=10_000, duration=30.0)
    result = run_scenario(
        EvaluationScale.tiny(), federation=SINGLE, faults=FaultPlan(name="p"),
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
