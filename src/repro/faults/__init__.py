"""Deterministic fault injection and elasticity for federated simulations.

The package is split like the rest of the library:

- :mod:`repro.faults.plan` -- declarative, JSON round-trippable fault
  plans (node crashes, whole-cluster outages, elastic capacity rules,
  admission-control parameters) plus a registry of built-in plans.
- :mod:`repro.faults.admission` -- the meta-scheduler's admission
  control machinery (token buckets and circuit breakers).
- :mod:`repro.faults.injector` -- the :class:`FaultInjector` that arms a
  plan against a live :class:`~repro.federation.federation.Federation`
  as first-class simulation events and accounts for jobs lost,
  rescheduled, rejected and time-to-recover.

Everything is driven by ``derive_seed``: the same plan, topology and
seed replay byte-identically, so faulted scenarios can be golden-pinned
just like fault-free ones.
"""
from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".admission": ("AdmissionController", "CircuitBreaker", "TokenBucket"),
        ".injector": ("FaultInjector",),
        ".plan": (
            "FAULT_PLANS", "AdmissionSpec", "ElasticRule", "FaultEvent", "FaultPlan",
            "get_fault_plan", "resolve_fault_plan",
        ),
    },
)
