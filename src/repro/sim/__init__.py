"""Discrete-event simulation substrate used by the evaluation."""
from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".engine": ("EventHandle", "Simulator"),
        ".randomness": ("RandomSource", "derive_seed", "spawn_streams", "stable_fingerprint"),
    },
)
