"""Application behaviours: rigid, moldable, malleable, evolving, AMR and PSA."""
from .base import BaseApplication
from .rigid import RigidApplication, RigidJobSpec
from .moldable import MoldableApplication
from .malleable import (
    MalleableApplication,
    identity_selector,
    power_of_two_selector,
)
from .evolving_predictable import EvolutionPhase, FullyPredictableEvolvingApplication
from .nea import AmrApplication, AmrStepRecord
from .psa import ParameterSweepApplication, PsaStatistics

__all__ = [
    "BaseApplication",
    "RigidApplication",
    "RigidJobSpec",
    "MoldableApplication",
    "MalleableApplication",
    "identity_selector",
    "power_of_two_selector",
    "EvolutionPhase",
    "FullyPredictableEvolvingApplication",
    "AmrApplication",
    "AmrStepRecord",
    "ParameterSweepApplication",
    "PsaStatistics",
]
