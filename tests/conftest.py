"""Shared fixtures of the test suite.

The request/application/RMS factories live in :mod:`repro.testing` (one
home instead of per-module copies); this file re-exports them as fixtures
so test classes can request them by name, while modules that prefer plain
helpers import from ``repro.testing`` directly.
"""
from __future__ import annotations

import logging

import numpy as np
import pytest

from repro import testing
from repro.cluster import Platform
from repro.core import CooRMv2
from repro.models import SpeedupModel, WorkingSetEvolution
from repro.sim import Simulator


@pytest.fixture
def propagating_logs():
    """Let ``repro.*`` records reach caplog's root handler.

    Any earlier CLI test that called ``logging_setup`` left the package
    logger with ``propagate = False``, which would blind caplog.
    """
    logger = logging.getLogger("repro")
    before = logger.propagate
    logger.propagate = True
    yield
    logger.propagate = before


@pytest.fixture
def simulator() -> Simulator:
    return Simulator()


@pytest.fixture
def platform() -> Platform:
    return Platform.single_cluster(64)


@pytest.fixture
def rms(platform, simulator) -> CooRMv2:
    return CooRMv2(platform, simulator, rescheduling_interval=1.0)


@pytest.fixture
def speedup_model() -> SpeedupModel:
    return SpeedupModel()


@pytest.fixture
def small_evolution() -> WorkingSetEvolution:
    """A deterministic, linearly growing working set (20 steps, up to ~100 GiB)."""
    return WorkingSetEvolution(np.linspace(5_000.0, 100_000.0, 20))


# --------------------------------------------------------------------- #
# Shared builder fixtures (delegating to repro.testing)
# --------------------------------------------------------------------- #
@pytest.fixture
def request_builders():
    """The (pa, np_, p_) request factories as one namespace."""
    return testing


@pytest.fixture
def app_factory():
    """Factory building an application's request sets from requests."""
    return testing.app_with


@pytest.fixture
def pset_factory():
    """Factory building a preemptible request set from requests."""
    return testing.p_set


@pytest.fixture
def rms_env_factory():
    """Factory building a wired (simulator, platform, RMS) triple."""
    return testing.make_env


@pytest.fixture
def recording_app_cls():
    """Application class that records every RMS callback."""
    return testing.RecordingApp
