"""Retry, backoff and circuit-breaker configuration for the shard fleet.

The fault-tolerance layer never hardcodes a delay or a threshold: every
knob lives in one frozen :class:`RetryPolicy` value that travels from
:class:`~repro.service.shard.ShardCoordinator` through
:class:`~repro.service.shard.RemoteShard` down to the HTTP clients — so
a caller (or a test) can tune recovery behaviour in one place, and a
fault-injection test can shrink every delay to microseconds without
monkeypatching.

Three pieces:

:class:`RetryPolicy`
    Per-attempt connect/read/stream-idle timeouts, a retry budget, and
    exponential backoff with **deterministic** jitter — the jitter is a
    hash of ``(salt, attempt)``, not a global RNG draw, so a seeded
    fault-injection run replays bit-identically.

:func:`is_retryable`
    The one predicate deciding whether an error may be retried or failed
    over: transport failures (:class:`~repro.exceptions.ShardTransportError`),
    backpressure (429/503 envelopes) and blind 5xx responses are; every
    deterministic typed failure — validation, enumeration limits,
    scheduling deadlocks — is not, because the adaptive-span ladder and
    the caller must see those as themselves, immediately.

:class:`CircuitBreaker`
    The classic three-state per-shard health gate: ``closed`` (healthy)
    → ``open`` after :attr:`~RetryPolicy.breaker_threshold` consecutive
    failures (the shard is ejected from the steal loop) → ``half-open``
    once :attr:`~RetryPolicy.breaker_cooldown` elapses (exactly one
    probe — the coordinator sends ``GET /healthz`` — decides between
    re-admission and another cool-down).  Transition counts are exposed
    for :class:`~repro.service.shard.CoordinatorStats` and ``/stats``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.exceptions import (
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    ShardTransportError,
)

__all__ = ["RetryPolicy", "CircuitBreaker", "is_retryable"]


def is_retryable(exc: BaseException) -> bool:
    """Whether retrying (or failing over) ``exc`` can possibly succeed.

    Transport failures are retryable by construction (the request's
    outcome is unknown; routes are idempotent).  Backpressure errors are
    retryable *elsewhere* — another shard, or later.  A 5xx status
    without a typed envelope is treated as transport: the server crashed
    mid-request.  Everything else — validation errors, enumeration
    limits, scheduling failures — is deterministic and must propagate.
    """
    if isinstance(exc, ShardTransportError):
        return True
    if isinstance(exc, (ServiceOverloadedError, ServiceUnavailableError)):
        return True
    status = getattr(exc, "http_status", None)
    return status is not None and status >= 500


@dataclass(frozen=True)
class RetryPolicy:
    """Every recovery knob of the shard fleet, as one frozen config value.

    Attributes
    ----------
    connect_timeout:
        Seconds to establish a TCP connection to a shard.
    read_timeout:
        Seconds a single read on an established connection may block
        (the socket timeout; also the async client's ``wait_for``
        deadline).
    stream_idle_timeout:
        Seconds a shard stream may go without a *slot* frame before the
        client declares it dead — heartbeat frames prove the connection
        is alive but not that work is progressing, so a heartbeat-only
        stall trips this instead of the read timeout.  ``None`` disables
        the check.
    retries:
        Transport retries *per shard call* beyond the first attempt
        (``retries=2`` → up to 3 attempts).  Partition failover to other
        shards is governed by the coordinator on top of this.
    backoff_base / backoff_cap:
        Exponential backoff: attempt ``k`` sleeps
        ``min(cap, base * 2**k)`` seconds before jitter.
    jitter:
        Fraction of the backoff added as deterministic jitter in
        ``[0, jitter)`` — derived from ``(salt, attempt)``, never a
        global RNG, so seeded fault runs replay exactly.
    breaker_threshold:
        Consecutive failures that open a shard's circuit breaker.
    breaker_cooldown:
        Seconds an open breaker waits before allowing the half-open
        probe.
    retry_after_cap:
        Cap, in seconds, on how long an HTTP client may politely honor a
        ``Retry-After`` hint from a 429/503 before giving the error to
        the caller; ``None`` (the default) disables the polite wait.
    """

    connect_timeout: float = 5.0
    read_timeout: float = 60.0
    stream_idle_timeout: float | None = 300.0
    retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.5
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0
    retry_after_cap: float | None = None

    def __post_init__(self) -> None:
        if self.connect_timeout <= 0 or self.read_timeout <= 0:
            raise ServiceError(
                f"timeouts must be positive, got connect="
                f"{self.connect_timeout!r} read={self.read_timeout!r}"
            )
        if self.stream_idle_timeout is not None and self.stream_idle_timeout <= 0:
            raise ServiceError(
                f"stream_idle_timeout must be positive or None, "
                f"got {self.stream_idle_timeout!r}"
            )
        if not isinstance(self.retries, int) or self.retries < 0:
            raise ServiceError(
                f"retries must be an int ≥ 0, got {self.retries!r}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0 or self.jitter < 0:
            raise ServiceError("backoff and jitter values must be ≥ 0")
        if not isinstance(self.breaker_threshold, int) or self.breaker_threshold < 1:
            raise ServiceError(
                f"breaker_threshold must be an int ≥ 1, "
                f"got {self.breaker_threshold!r}"
            )
        if self.breaker_cooldown < 0:
            raise ServiceError(
                f"breaker_cooldown must be ≥ 0, got {self.breaker_cooldown!r}"
            )

    # ------------------------------------------------------------------ #
    def delay(self, attempt: int, *, salt: str = "") -> float:
        """The backoff before retry ``attempt`` (1-based), jitter included.

        Deterministic: the jitter fraction is the first 8 hex digits of
        ``sha256(salt:attempt)``, so two runs with the same salts sleep
        identically — a property the seeded fault-injection tests pin.
        """
        base = min(self.backoff_cap, self.backoff_base * (2 ** max(0, attempt - 1)))
        if not self.jitter or not base:
            return base
        digest = hashlib.sha256(f"{salt}:{attempt}".encode()).hexdigest()
        fraction = int(digest[:8], 16) / 0xFFFFFFFF
        return base * (1.0 + self.jitter * fraction)

    def breaker(self) -> "CircuitBreaker":
        """A fresh breaker configured with this policy's thresholds."""
        return CircuitBreaker(
            threshold=self.breaker_threshold, cooldown=self.breaker_cooldown
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "connect_timeout": self.connect_timeout,
            "read_timeout": self.read_timeout,
            "stream_idle_timeout": self.stream_idle_timeout,
            "retries": self.retries,
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
            "jitter": self.jitter,
            "breaker_threshold": self.breaker_threshold,
            "breaker_cooldown": self.breaker_cooldown,
            "retry_after_cap": self.retry_after_cap,
        }


class CircuitBreaker:
    """Three-state health gate for one shard (thread-safe).

    .. code-block:: text

            success                      failure x threshold
        ┌──────────┐               ┌──────────────────────────┐
        ▼          │               │                          ▼
      CLOSED ──────┴───────────────┘        cooldown        OPEN
        ▲                                  elapsed │          │
        │ probe ok   ┌─────────────────────────────▼          │
        └─────────── HALF-OPEN ── probe fails ────────────────┘

    ``closed`` admits work; a failure streak of ``threshold`` opens the
    breaker (the shard is ejected); after ``cooldown`` seconds
    :meth:`state_now` reports ``half-open`` exactly once, admitting a
    single probe whose outcome either closes the breaker (re-admission)
    or re-opens it for another cool-down.  Any success resets the
    failure streak.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        *,
        threshold: int = 3,
        cooldown: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failure_streak = 0
        self._opened_at = 0.0
        #: Transition counters, surfaced through ``/stats``.
        self.opens = 0
        self.half_opens = 0
        self.closes = 0
        self.failures = 0
        self.successes = 0

    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        """The raw state (no cooldown transition applied)."""
        return self._state

    def state_now(self) -> str:
        """The current state, promoting ``open`` → ``half-open`` after
        the cool-down.  The promotion happens at most once per cool-down
        window: the caller that observes ``half-open`` owns the probe."""
        with self._lock:
            if (
                self._state == self.OPEN
                and self._clock() - self._opened_at >= self.cooldown
            ):
                self._state = self.HALF_OPEN
                self.half_opens += 1
            return self._state

    def record_success(self) -> None:
        with self._lock:
            self.successes += 1
            self._failure_streak = 0
            if self._state != self.CLOSED:
                self._state = self.CLOSED
                self.closes += 1

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self._failure_streak += 1
            if self._state == self.HALF_OPEN or (
                self._state == self.CLOSED
                and self._failure_streak >= self.threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()
                self.opens += 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "state": self.state_now(),
            "failure_streak": self._failure_streak,
            "threshold": self.threshold,
            "cooldown": self.cooldown,
            "opens": self.opens,
            "half_opens": self.half_opens,
            "closes": self.closes,
            "failures": self.failures,
            "successes": self.successes,
        }
