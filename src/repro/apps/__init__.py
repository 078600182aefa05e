"""Application behaviours: rigid, moldable, malleable, evolving, AMR and PSA."""
from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".base": ("BaseApplication",),
        ".rigid": ("RigidApplication", "RigidJobSpec"),
        ".moldable": ("MoldableApplication",),
        ".malleable": ("MalleableApplication", "identity_selector", "power_of_two_selector"),
        ".evolving_predictable": ("EvolutionPhase", "FullyPredictableEvolvingApplication"),
        ".nea": ("AmrApplication", "AmrStepRecord"),
        ".psa": ("ParameterSweepApplication", "PsaStatistics"),
    },
)
