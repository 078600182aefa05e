"""CooRMv2 core: requests, views, scheduling algorithms and the RMS server."""
from .types import (
    RelatedHow,
    RequestState,
    RequestType,
    Time,
)
from .errors import (
    AdmissionError,
    AllocationError,
    CapacityError,
    ConstraintError,
    ProfileError,
    ProtocolError,
    ReproError,
    RequestError,
    SchedulingError,
    SessionError,
    SimulationError,
    ViewError,
    WorkloadError,
)
from .profile import StepFunction
from .view import View
from .request import Request
from .request_set import ApplicationRequests, RequestSet
from .toview import to_view
from .fit import fit
from .eqschedule import eq_schedule, max_min_fair
from .cbf import CbfJob, ConservativeBackfillQueue
from .scheduler import Scheduler, ScheduleResult
from .session import ApplicationProtocol, Session
from .events import (
    Connected,
    Disconnected,
    EventLog,
    ProtocolEvent,
    RequestDone,
    RequestExpired,
    RequestStarted,
    RequestSubmitted,
    SessionKilled,
    ViewsPushed,
)
from .rms import CooRMv2

__all__ = [
    # types
    "RelatedHow",
    "RequestState",
    "RequestType",
    "Time",
    # errors
    "AdmissionError",
    "AllocationError",
    "CapacityError",
    "ConstraintError",
    "ProfileError",
    "ProtocolError",
    "ReproError",
    "RequestError",
    "SchedulingError",
    "SessionError",
    "SimulationError",
    "ViewError",
    "WorkloadError",
    # data structures
    "StepFunction",
    "View",
    "Request",
    "RequestSet",
    "ApplicationRequests",
    # algorithms
    "to_view",
    "fit",
    "eq_schedule",
    "max_min_fair",
    "CbfJob",
    "ConservativeBackfillQueue",
    "Scheduler",
    "ScheduleResult",
    # RMS server
    "ApplicationProtocol",
    "Session",
    "CooRMv2",
    # protocol events
    "Connected",
    "Disconnected",
    "EventLog",
    "ProtocolEvent",
    "RequestDone",
    "RequestExpired",
    "RequestStarted",
    "RequestSubmitted",
    "SessionKilled",
    "ViewsPushed",
]
