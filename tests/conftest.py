"""Shared fixtures of the test suite.

The request/application/RMS factories live in :mod:`repro.testing`; test
modules import them from there.
"""
from __future__ import annotations

import logging

import pytest


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
