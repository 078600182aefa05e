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
from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".registry": (
            "RUNNERS", "SCENARIOS", "builtin_scenarios", "get_runner", "resolve_scenarios",
        ),
        ".runner": ("CampaignResult", "CampaignRunner", "RunTask"),
        "..traces.source": ("TraceSource",),
        ".spec": (
            "CampaignSpec", "PlatformSpec", "RmsSpec", "ScenarioSpec", "WorkloadSpec",
            "resolve_scale",
        ),
        ".store": ("CampaignInfo", "DEFAULT_RESULTS_DIR", "ResultStore"),
    },
)
