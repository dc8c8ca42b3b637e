"""The one error shape every ``/v1`` route speaks.

Historically each route serialized failures ad hoc (flat ``{"error":
name, "message", "field"}`` objects, a different overload payload on
429, per-route re-raise code in :class:`~repro.service.http.ServiceClient`).
This module replaces all of that with a single envelope::

    {"error": {"type": "JobValidationError",
               "message": "...",
               "field": "capacity",        # validation errors only
               "retry_after": 1.0,         # backpressure errors only
               "pending": 3,               # overload detail
               "max_pending": 3}}

and a single registry mapping the ``type`` field back to the library's
exception hierarchy, so *every* typed error — validation, admission,
drain, enumeration limits, shard slot failures — crosses the
wire and re-raises as itself on the client.  The same envelope object
is used for whole-response errors (non-2xx bodies) and for the
slot-local error frames of the streaming shard protocol (see
``docs/WIRE_PROTOCOL.md``).

The registry is built from :mod:`repro.exceptions` by introspection:
any :class:`~repro.exceptions.ReproError` subclass round-trips by name.
Unknown types (a newer server, a hand-written payload) degrade to
:class:`~repro.exceptions.ServiceError` rather than failing to parse.
"""

from __future__ import annotations

import inspect
from typing import Any

from repro import exceptions as _exceptions
from repro.exceptions import (
    JobValidationError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)

__all__ = [
    "ERROR_TYPES",
    "error_envelope",
    "error_from_envelope",
    "http_status",
    "retry_after_of",
]

#: ``type`` field → exception class, for every public ReproError subclass.
ERROR_TYPES: dict[str, type[ReproError]] = {
    name: obj
    for name, obj in vars(_exceptions).items()
    if inspect.isclass(obj) and issubclass(obj, ReproError)
}


def retry_after_of(exc: BaseException) -> float | None:
    """The back-off hint an error carries, in seconds.

    Backpressure errors (:class:`ServiceOverloadedError`,
    :class:`ServiceUnavailableError`) default to one second when the
    raiser did not compute a tighter bound; other errors carry none —
    retrying a validation failure verbatim cannot succeed.
    """
    hint = getattr(exc, "retry_after", None)
    if hint is not None:
        return float(hint)
    if isinstance(exc, (ServiceOverloadedError, ServiceUnavailableError)):
        return 1.0
    return None


def http_status(exc: BaseException) -> int:
    """The HTTP status an error maps to (shared by both server cores)."""
    if isinstance(exc, JobValidationError):
        return 400
    if isinstance(exc, ServiceOverloadedError):
        return 429
    if isinstance(exc, ServiceUnavailableError):
        return 503
    if isinstance(exc, ReproError):
        # A well-formed request the scheduler cannot satisfy (deadlock,
        # enumeration limit, …) is the client's problem, not a crash.
        return 422
    return 500


def error_envelope(exc: BaseException) -> dict[str, Any]:
    """Serialize any error as the unified ``{"error": {...}}`` envelope."""
    detail: dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    field = getattr(exc, "field", None)
    if field is not None:
        detail["field"] = field
    retry_after = retry_after_of(exc)
    if retry_after is not None:
        detail["retry_after"] = retry_after
    for extra in ("pending", "max_pending"):
        value = getattr(exc, extra, None)
        if value is not None:
            detail[extra] = value
    return {"error": detail}


def error_from_envelope(
    payload: Any, *, default_message: str = "service request failed"
) -> ReproError:
    """The exception *instance* an envelope describes (returned, not raised).

    The inverse of :func:`error_envelope`: the ``type`` field resolves
    through :data:`ERROR_TYPES` so remote failures re-raise as
    themselves; anything unrecognized — including legacy flat payloads
    and non-dict bodies — degrades to :class:`ServiceError` with the
    best message available.
    """
    detail = payload.get("error") if isinstance(payload, dict) else None
    if not isinstance(detail, dict):
        # Legacy flat shape ({"error": name, "message": ...}) or garbage.
        if isinstance(payload, dict):
            detail = {
                "type": payload.get("error"),
                "message": payload.get("message"),
                "field": payload.get("field"),
            }
        else:
            return ServiceError(default_message)
    message = detail.get("message") or default_message
    cls = ERROR_TYPES.get(detail.get("type") or "")
    if cls is None:
        return ServiceError(message)
    try:
        if issubclass(cls, JobValidationError):
            return cls(message, field=detail.get("field"))
        if issubclass(cls, ServiceOverloadedError):
            return cls(
                message,
                pending=detail.get("pending"),
                max_pending=detail.get("max_pending"),
                retry_after=detail.get("retry_after"),
            )
        if issubclass(cls, ServiceUnavailableError):
            return cls(message, retry_after=detail.get("retry_after"))
        return cls(message)
    except Exception:  # pragma: no cover — malformed detail fields
        return ServiceError(message)
