"""Federation: multi-cluster simulation behind a routing meta-scheduler.

This subsystem multiplies every existing scenario across heterogeneous
multi-cluster topologies without touching the paper's per-cluster
semantics:

* :mod:`repro.federation.spec` -- :class:`ClusterSpec` /
  :class:`FederationSpec` dataclasses that round-trip through JSON, plus
  named built-in topologies;
* :mod:`repro.federation.routing` -- the pluggable request-routing registry
  (``any``, ``round-robin``, ``least-loaded``, ``best-fit``, ``random``,
  ``affinity``);
* :mod:`repro.federation.federation` -- the :class:`Federation` (one
  :class:`~repro.core.rms.CooRMv2` per member cluster, one shared event
  engine) and the :class:`MetaScheduler` that places applications;
* :mod:`repro.federation.metrics` -- aggregated metrics and per-cluster
  utilisation breakdowns;
* :mod:`repro.federation.cli` -- the ``python -m repro federation``
  command group.

Every scenario runs on a federation: one that names none runs on the
one-member ``single`` topology (``cluster0`` under the ``any`` routing),
so ``run_scenario`` has one way to build RMSs.

Quick start::

    from repro.federation import ClusterSpec, Federation, FederationSpec
    from repro.sim import Simulator

    sim = Simulator()
    fed = Federation(
        FederationSpec(
            clusters=(ClusterSpec("east", 32), ClusterSpec("west", 64)),
            routing="least-loaded",
        ),
        sim,
    )
    fed.submit(my_application, node_count=16)  # routed, then connected
    sim.run()
"""
from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".federation": (
            "Federation", "FederationMember", "MetaScheduler", "RoutingDecision", "locality_group",
        ),
        ".metrics": ("federation_breakdown",),
        ".routing": (
            "DEFAULT_ROUTING", "ROUTINGS", "ClusterState", "RoutingPolicy", "RoutingRequest",
            "make_routing",
        ),
        ".spec": ("TOPOLOGIES", "ClusterSpec", "FederationSpec"),
    },
)
