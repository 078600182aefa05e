"""Experiment drivers: the analytic figures 1--4, one module each, and the
shared scenario of the simulated figures 9--11 (built in
:mod:`repro.campaign.builtin` as sweeps of that scenario)."""
from .runner import EvaluationScale, ScenarioResult, build_evolution, run_scenario
from . import (
    fig1_amr_profiles,
    fig2_speedup_fit,
    fig3_static_endtime,
    fig4_static_choices,
)

__all__ = [
    "EvaluationScale",
    "ScenarioResult",
    "build_evolution",
    "run_scenario",
    "fig1_amr_profiles",
    "fig2_speedup_fit",
    "fig3_static_endtime",
    "fig4_static_choices",
]
