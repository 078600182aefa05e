"""Exception hierarchy of the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything coming out of the RMS with a single ``except`` clause.
"""
from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class UnknownNameError(ReproError, KeyError):
    """A name is not in the :class:`~repro.core.registry.Registry` asked."""

    __str__ = Exception.__str__  # KeyError's would wrap the message in quotes


class DuplicateNameError(ReproError, ValueError):
    """A name is registered twice in one :class:`~repro.core.registry.Registry`."""


class SpecError(ReproError, ValueError):
    """A declarative spec (a dict or a JSON file) was rejected.

    ``path`` locates the offending section (``scenarios[0].faults.events[0]``)
    and prefixes the message; :func:`repro.core.serde.from_strict_dict`
    extends it one level at a time on the way out of a nested spec.
    """

    def __init__(self, reason: object, path: str = ""):
        super().__init__(f"{path}: {reason}" if path else str(reason))
        self.reason = str(reason)
        self.path = path


class ProfileError(ReproError):
    """An invalid operation on a step-function availability profile."""


class ViewError(ReproError):
    """An invalid operation on a view (collection of per-cluster profiles)."""


class RequestError(ReproError):
    """An invalid request (bad node count, duration, constraint, ...)."""


class ConstraintError(RequestError):
    """A request constraint refers to a missing or incompatible request."""


class SchedulingError(ReproError):
    """The scheduler reached an inconsistent state."""


class CapacityError(SchedulingError):
    """A request can never be satisfied with the configured resources."""


class ProtocolError(ReproError):
    """An application violated the CooRMv2 RMS-application protocol.

    The paper mandates that such applications be killed (Section 3.1.4).
    """


class SessionError(ReproError):
    """Operation on an unknown, closed or killed application session."""


class AllocationError(ReproError):
    """Node-ID bookkeeping failed (double allocation, unknown node, ...)."""


class AdmissionError(ReproError):
    """The meta-scheduler's admission control refused a placement.

    Raised when every federation member is down, throttled or behind an
    open circuit breaker; distinct from :class:`RequestError` so callers
    can tell "rejected right now" from "can never fit".
    """


class SimulationError(ReproError):
    """The discrete-event simulation engine reached an invalid state."""


class WorkloadError(ReproError):
    """A workload description or trace file is malformed."""
