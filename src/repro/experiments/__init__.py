"""The paper's evaluation scenario: one AMR application plus PSAs on a
CooRMv2 platform, at a named scale.  The simulated figures 9--11 are sweeps
of it and the analytic figures 1--4 are runners of their own, all built in
:mod:`repro.campaign.builtin`."""
from .runner import EvaluationScale, ScenarioResult, build_evolution, run_scenario

__all__ = [
    "EvaluationScale",
    "ScenarioResult",
    "build_evolution",
    "run_scenario",
]
