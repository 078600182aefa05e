"""Discrete-event simulation substrate used by the evaluation."""
from .engine import EventHandle, Simulator
from .randomness import RandomSource, derive_seed, spawn_streams, stable_fingerprint

__all__ = [
    "EventHandle",
    "Simulator",
    "RandomSource",
    "derive_seed",
    "spawn_streams",
    "stable_fingerprint",
]
