"""Fundamental enumerations and type aliases of the CooRMv2 core.

The paper (Section 3.1) defines three request types and three request
constraints.  They are modelled here as :class:`enum.Enum` members so that
invalid values are impossible to construct and comparisons are explicit.
"""
from __future__ import annotations

import enum
from typing import Union

#: Simulated time, in seconds.  ``float`` so that ``math.inf`` can represent
#: "never" / "unbounded".
Time = float

#: Node counts are plain integers.
NodeCount = int

#: Cluster identifiers are opaque strings (e.g. ``"cluster0"``).
ClusterId = str

#: Node identifiers are integers unique within a cluster.
NodeId = int

#: Anything accepted where a time is expected.
TimeLike = Union[int, float]


class RequestType(enum.Enum):
    """Type of a resource request (paper Section 3.1.1).

    * ``PREALLOCATION`` -- marks resources for possible future use; no node
      IDs are bound to it.  Written ``PA`` in the paper.
    * ``NON_PREEMPTIBLE`` -- a run-to-completion allocation (``¬P``).  Once
      started it cannot be interrupted by the RMS.
    * ``PREEMPTIBLE`` -- a best-effort allocation (``P``) that the RMS may
      shrink or revoke at any time.
    """

    PREALLOCATION = "PA"
    NON_PREEMPTIBLE = "nonP"
    PREEMPTIBLE = "P"

    @property
    def short(self) -> str:
        """Short label used in traces and log lines."""
        return {
            RequestType.PREALLOCATION: "PA",
            RequestType.NON_PREEMPTIBLE: "~P",
            RequestType.PREEMPTIBLE: "P",
        }[self]


class RelatedHow(enum.Enum):
    """Constraint between a request and its ``related_to`` request (Sec 3.1.2).

    * ``FREE`` -- the request is unconstrained; ``related_to`` is ignored.
    * ``COALLOC`` -- the request must start at the same time as its parent.
    * ``NEXT`` -- the request must start immediately after its parent ends,
      sharing common resources (node IDs are carried over).
    """

    FREE = "FREE"
    COALLOC = "COALLOC"
    NEXT = "NEXT"


class RequestState(enum.Enum):
    """Lifecycle of a request inside the RMS."""

    PENDING = "pending"      # submitted, not yet started
    STARTED = "started"      # node IDs allocated (or PA activated)
    FINISHED = "finished"    # done() called or duration elapsed
    CANCELLED = "cancelled"  # withdrawn before it started


#: Members the scheduler's inner loops compare against, as module globals:
#: reading an attribute of an enum class costs about ten times a global.
FREE, COALLOC, NEXT = RelatedHow.FREE, RelatedHow.COALLOC, RelatedHow.NEXT
PREALLOCATION, NON_PREEMPTIBLE = RequestType.PREALLOCATION, RequestType.NON_PREEMPTIBLE
PREEMPTIBLE = RequestType.PREEMPTIBLE
FINISHED, CANCELLED = RequestState.FINISHED, RequestState.CANCELLED
