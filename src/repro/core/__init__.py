"""CooRMv2 core: requests, views, scheduling algorithms and the RMS server."""
from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".types": ("RelatedHow", "RequestState", "RequestType", "Time"),
        ".errors": (
            "AdmissionError", "AllocationError", "CapacityError", "ConstraintError",
            "ProfileError", "ProtocolError", "ReproError", "RequestError", "SchedulingError",
            "SessionError", "SimulationError", "ViewError", "WorkloadError",
        ),
        # data structures
        ".profile": ("StepFunction",),
        ".view": ("View",),
        ".request": ("Request",),
        ".request_set": ("RequestSet", "ApplicationRequests"),
        # algorithms
        ".toview": ("to_view",),
        ".fit": ("fit",),
        ".eqschedule": ("eq_schedule", "max_min_fair"),
        ".cbf": ("CbfJob", "ConservativeBackfillQueue"),
        ".scheduler": ("Scheduler", "ScheduleResult"),
        # RMS server
        ".session": ("ApplicationProtocol", "Session"),
        ".rms": ("CooRMv2",),
        # protocol events
        ".events": (
            "Connected", "Disconnected", "EventLog", "ProtocolEvent", "RequestDone",
            "RequestExpired", "RequestStarted", "RequestSubmitted", "SessionKilled",
            "ViewsPushed",
        ),
    },
)
