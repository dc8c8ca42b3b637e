"""Exception hierarchy for :mod:`repro`.

Every error raised intentionally by the library derives from
:class:`ReproError` so that callers can catch library failures with a single
``except`` clause while programming errors (``TypeError`` etc.) propagate
unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "CycleError",
    "UnknownNodeError",
    "DuplicateNodeError",
    "ColorError",
    "PatternError",
    "PatternBudgetError",
    "SchedulingError",
    "SchedulingDeadlockError",
    "ScheduleValidationError",
    "SelectionError",
    "EnumerationLimitError",
    "FrontendError",
    "AllocationError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceUnavailableError",
    "JobValidationError",
    "ShardTransportError",
    "ShardTimeoutError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """A data-flow graph is structurally invalid for the requested operation."""


class CycleError(GraphError):
    """The graph contains a directed cycle and therefore is not a DFG."""


class UnknownNodeError(GraphError, KeyError):
    """A node name/id was referenced that is not present in the graph."""

    def __str__(self) -> str:  # KeyError quotes its payload; keep it readable.
        return Exception.__str__(self)


class DuplicateNodeError(GraphError):
    """A node with the same name was added to a graph twice."""


class ColorError(ReproError):
    """An operation color is invalid or inconsistent with the color universe."""


class PatternError(ReproError):
    """A pattern (color bag) is malformed, e.g. wider than the ALU array."""


class PatternBudgetError(PatternError):
    """A pattern library exceeded the architecture's pattern budget (32)."""


class SchedulingError(ReproError):
    """The multi-pattern scheduler could not produce a schedule."""


class SchedulingDeadlockError(SchedulingError):
    """No given pattern can execute any candidate node.

    This happens exactly when the union of the pattern colors does not cover
    every color reachable on the candidate list — e.g. a random pattern set
    that contains no multiplier slot for a graph with multiplications.
    """


class ScheduleValidationError(SchedulingError):
    """An alleged schedule violates dependencies, patterns or completeness."""


class SelectionError(ReproError):
    """The pattern selection algorithm was configured inconsistently."""


class EnumerationLimitError(ReproError):
    """Antichain enumeration exceeded the configured safety limit."""


class FrontendError(ReproError):
    """The expression frontend failed to parse or lower an input program."""


class AllocationError(ReproError):
    """The allocation phase found a schedule that exceeds tile resources."""


class ServiceError(ReproError):
    """The scheduling service failed to process a request."""


class JobValidationError(ServiceError):
    """A job request or result payload is malformed or inconsistent.

    Attributes
    ----------
    field:
        Name of the offending request/result field when one can be blamed
        (``None`` for payload-level problems such as invalid JSON).
    """

    def __init__(self, message: str, *, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class ServiceOverloadedError(ServiceError):
    """The service's bounded pending-job queue is full (admission control).

    Raised instead of queueing when a :class:`~repro.service.SchedulerService`
    configured with ``max_pending`` already has that many submissions pending
    (executing included).  The HTTP layer maps it to a 429 response with a
    ``Retry-After`` hint; a well-behaved client backs off and retries.

    Attributes
    ----------
    pending:
        Submissions in flight when the request was rejected.
    max_pending:
        The configured admission bound.
    """

    def __init__(
        self,
        message: str,
        *,
        pending: int | None = None,
        max_pending: int | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.pending = pending
        self.max_pending = max_pending
        #: Suggested back-off in seconds (the HTTP ``Retry-After`` hint);
        #: quota rejections compute it from the client's token bucket.
        self.retry_after = retry_after


class ShardTransportError(ServiceError):
    """The transport to a service instance failed, not the work itself.

    Connection refusals and resets, requests or streams that die
    mid-flight, truncated NDJSON shard streams (no terminal ``{"done":
    true}`` frame) and garbled frames all raise this: the *result* of the
    request is unknown, so — every route being idempotent and every
    result content-addressed — the request may be retried verbatim
    against the same instance or failed over to another one without
    changing a single output bit.  Deterministic failures
    (:class:`JobValidationError`, :class:`~repro.exceptions.EnumerationLimitError`,
    …) never raise this type: retrying those verbatim cannot succeed.
    """


class ShardTimeoutError(ShardTransportError):
    """A connect, read or stream deadline elapsed before the peer answered.

    A timeout is a transport failure with its own name so operators can
    tell "the shard is gone" from "the shard is slower than the
    configured :class:`~repro.service.retry.RetryPolicy` allows".
    """


class ServiceUnavailableError(ServiceError):
    """The service is draining and no longer accepts new work.

    Raised (and mapped to HTTP 503) once graceful drain has begun —
    ``SIGTERM`` or ``POST /v1/admin:drain`` — while in-flight jobs run to
    completion.  Unlike :class:`ServiceOverloadedError` this is not a
    transient backpressure signal: the instance is going away, so a
    well-behaved client re-resolves its endpoint before retrying.

    Attributes
    ----------
    retry_after:
        Suggested seconds before retrying (against another instance).
    """

    def __init__(
        self, message: str, *, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after
