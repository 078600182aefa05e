"""The paper's evaluation scenario: one AMR application plus PSAs on a
CooRMv2 platform, at a named scale.  The simulated figures 9--11 are sweeps
of it and the analytic figures 1--4 are runners of their own, all built in
:mod:`repro.campaign.builtin`."""
from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".runner": ("EvaluationScale", "ScenarioResult", "build_evolution", "run_scenario"),
    },
)
