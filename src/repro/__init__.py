"""repro -- a reproduction of CooRMv2, the RMS for non-predictably evolving
applications of Klein & Pérez (INRIA RR-7644 / CLUSTER 2011).

The package is organised bottom-up:

* :mod:`repro.sim` -- discrete-event simulation engine;
* :mod:`repro.cluster` -- clusters of node IDs (free pool and per-application
  ownership) and the multi-cluster platform;
* :mod:`repro.core` -- requests, views, the scheduling algorithms
  (``toView`` / ``fit`` / ``eqSchedule`` / Conservative Back-Filling) and the
  CooRMv2 RMS server;
* :mod:`repro.models` -- AMR working-set evolution, speed-up model and the
  dynamic-vs-static analysis of Section 2;
* :mod:`repro.apps` -- application behaviours (rigid, moldable, malleable,
  evolving, the AMR application and the Parameter-Sweep Application);
* :mod:`repro.baselines` -- the closed-form static run and a rigid-only
  FCFS+CBF batch scheduler (strict equi-partitioning is the ``coorm-strict``
  policy);
* :mod:`repro.metrics`, :mod:`repro.workloads` -- measurement and workload
  generation utilities;
* :mod:`repro.experiments` -- one driver per figure of the evaluation;
* :mod:`repro.campaign` -- declarative scenario specs, parallel multi-seed
  campaign execution and a persistent result store (also the
  ``python -m repro`` command-line interface).

Quick start::

    from repro import Simulator, Platform, CooRMv2
    from repro.apps import AmrApplication, ParameterSweepApplication
    from repro.models import WorkingSetEvolution

    sim = Simulator()
    rms = CooRMv2(Platform.single_cluster(64), sim)
    amr = AmrApplication("amr", WorkingSetEvolution.generate(100_000, seed=1),
                         preallocation_nodes=40)
    psa = ParameterSweepApplication("psa", task_duration=60.0)
    amr.on_finished = lambda _: psa.shutdown()
    amr.connect(rms); psa.connect(rms)
    sim.run()
"""
from .core import (
    CooRMv2,
    Request,
    RequestType,
    RelatedHow,
    Scheduler,
    StepFunction,
    View,
)
from .cluster import Platform
from .sim import RandomSource, Simulator, derive_seed

__version__ = "1.1.0"

__all__ = [
    "CooRMv2",
    "Request",
    "RequestType",
    "RelatedHow",
    "Scheduler",
    "StepFunction",
    "View",
    "Platform",
    "Simulator",
    "RandomSource",
    "derive_seed",
    "campaign",
    "federation",
    "__version__",
]


def __getattr__(name: str):
    # The campaign and federation subsystems pull in the experiment drivers
    # and application behaviours, so they are imported lazily to keep
    # ``import repro`` light for library users.
    # (import_module, not ``from . import``: the latter re-enters this
    # __getattr__ through importlib's fromlist handling and recurses.)
    if name in ("campaign", "federation"):
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
