"""Campaign orchestration: declarative scenario sweeps at scale.

This subsystem turns the one-off figure scripts of
:mod:`repro.experiments` into declarative, parallel, persistent experiment
campaigns:

* :mod:`repro.campaign.spec` -- :class:`ScenarioSpec` / :class:`CampaignSpec`
  dataclasses that round-trip through JSON;
* :mod:`repro.campaign.registry` -- named scenario runners and built-in
  scenario definitions;
* :mod:`repro.campaign.builtin` -- the paper's figures and mixed workloads,
  registered as runnable scenarios;
* :mod:`repro.campaign.runner` -- deterministic multi-process execution of
  the scenario x seed grid;
* :mod:`repro.campaign.store` -- JSON-lines result store with summary and
  comparison utilities;
* :mod:`repro.campaign.cli` -- the ``python -m repro campaign`` entry point.

Quick start::

    from repro.campaign import CampaignRunner, CampaignSpec, ResultStore
    from repro.campaign import resolve_scenarios

    spec = CampaignSpec(
        name="demo",
        scenarios=tuple(resolve_scenarios(["fig9", "fig10"])),
        seeds=4,
        workers=4,
    )
    result = CampaignRunner(spec, store=ResultStore("results")).run()
"""
from . import builtin  # noqa: F401  (registers built-in runners and scenarios)
from .registry import (
    RUNNERS,
    SCENARIOS,
    builtin_scenarios,
    get_runner,
    resolve_scenarios,
)
from .runner import CampaignResult, CampaignRunner, RunTask
from ..traces.source import TraceSource
from .spec import (
    CampaignSpec,
    PlatformSpec,
    RmsSpec,
    ScenarioSpec,
    WorkloadSpec,
    resolve_scale,
)
from .store import CampaignInfo, DEFAULT_RESULTS_DIR, ResultStore

__all__ = [
    "CampaignInfo",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "DEFAULT_RESULTS_DIR",
    "PlatformSpec",
    "ResultStore",
    "RmsSpec",
    "RUNNERS",
    "RunTask",
    "SCENARIOS",
    "ScenarioSpec",
    "TraceSource",
    "WorkloadSpec",
    "builtin_scenarios",
    "get_runner",
    "resolve_scale",
    "resolve_scenarios",
]
