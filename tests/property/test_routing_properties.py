"""Cross-routing property tests: safety invariants hold for EVERY policy.

Whatever placement rule a registered routing policy implements, the
meta-scheduler must preserve the same federation-level invariants:

* **request conservation** -- every submitted job is routed to exactly one
  member cluster, none is dropped or duplicated;
* **no cross-cluster double-booking** -- an application's requests live on
  exactly one member (its session, its events, its node allocations), and
  no member ever allocates beyond its own capacity;
* **determinism under derive_seed** -- the full assignment sequence is a
  pure function of the federation seed and the submission sequence, so
  parallel campaign replays are reproducible at any worker count.
"""
from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.apps.rigid import RigidApplication
from repro.core.events import RequestStarted
from repro.federation import (
    ROUTINGS,
    ClusterSpec,
    Federation,
    FederationSpec,
    locality_group,
)
from repro.obs.invariants import violations
from repro.sim import Simulator
from repro.sim.randomness import derive_seed

ALL_ROUTINGS = tuple(ROUTINGS.names())

#: (capacities, jobs) -- job node counts stay within the largest cluster so
#: every job is placeable somewhere.
topologies = st.lists(
    st.integers(min_value=4, max_value=32), min_size=1, max_size=4
)
job_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),        # node count
        st.floats(min_value=1.0, max_value=60.0),     # duration
        st.floats(min_value=0.0, max_value=120.0),    # submit time
    ),
    min_size=1,
    max_size=12,
)
routing_choice = st.sampled_from(ALL_ROUTINGS)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def build_federation(capacities, routing, seed):
    spec = FederationSpec(
        clusters=tuple(
            ClusterSpec(name=f"c{i}", nodes=n) for i, n in enumerate(capacities)
        ),
        routing=routing,
    )
    simulator = Simulator()
    return Federation(spec, simulator, seed=seed), simulator


def run_jobs(capacities, jobs, routing, seed):
    """Submit every job at its trace time and run the simulation to the end."""
    fed, simulator = build_federation(capacities, routing, seed)
    apps = []

    def submit(index, nodes, duration):
        app = RigidApplication(f"job{index}", node_count=nodes, duration=duration)
        fed.submit(app, node_count=nodes, group=locality_group(app.name))
        apps.append(app)

    for index, (nodes, duration, submit_time) in enumerate(jobs):
        simulator.schedule_at(submit_time, submit, index, nodes, duration)
    simulator.run()
    return fed, apps


@settings(max_examples=40, deadline=None)
@given(capacities=topologies, jobs=job_lists, routing=routing_choice, seeds_=seeds)
def test_request_conservation(capacities, jobs, routing, seeds_):
    """Every submitted job lands on exactly one cluster; none is lost."""
    fed, apps = run_jobs(capacities, jobs, routing, seeds_)

    assert len(apps) == len(jobs)
    decisions = fed.meta.decisions
    assert len(decisions) == len(jobs)
    # One decision per job (decisions are logged in submission-time order,
    # so compare as sets), each naming a real member.
    member_names = {m.name for m in fed.members}
    assert sorted(d.app_id for d in decisions) == sorted(
        f"job{i}" for i in range(len(jobs))
    )
    assert all(d.cluster in member_names for d in decisions)
    # Counts add up: conservation across the federation.
    assert sum(fed.routed_counts().values()) == len(jobs)
    # Every job ran to completion on its home member (node counts fit by
    # construction, so nothing may starve forever).
    assert all(app.finished() for app in apps)


@settings(max_examples=40, deadline=None)
@given(capacities=topologies, jobs=job_lists, routing=routing_choice, seeds_=seeds)
def test_no_cross_cluster_double_booking(capacities, jobs, routing, seeds_):
    """An application exists on exactly one member; capacity is respected."""
    fed, apps = run_jobs(capacities, jobs, routing, seeds_)

    # Sessions: each app id appears on exactly one member RMS.
    homes = {}
    for member in fed.members:
        for app_id in member.rms.sessions:
            assert app_id not in homes, (
                f"application {app_id} has sessions on {homes[app_id]} "
                f"and {member.name}"
            )
            homes[app_id] = member.name
    assert len(homes) == len(jobs)

    # Event logs: starts of one application only ever appear on its home.
    for member in fed.members:
        for event in member.rms.event_log.of_kind(RequestStarted):
            assert homes[event.app_id] == member.name

    # Physical allocation: no member ever breaks the paper's rules, its
    # capacity among them.
    for member in fed.members:
        assert not list(violations(member.rms.event_log)), member.name


@settings(max_examples=25, deadline=None)
@given(capacities=topologies, jobs=job_lists, routing=routing_choice, seeds_=seeds)
def test_routing_determinism_under_derive_seed(capacities, jobs, routing, seeds_):
    """Same derived seed -> identical assignment sequence, twice over."""
    seed = derive_seed(seeds_, "routing-determinism")
    fed_a, _ = run_jobs(capacities, jobs, routing, seed)
    fed_b, _ = run_jobs(capacities, jobs, routing, seed)
    assert fed_a.meta.decisions == fed_b.meta.decisions
