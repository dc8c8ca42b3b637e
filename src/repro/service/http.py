"""The :class:`ServiceClient` and the shard-row wire helpers.

Stdlib only (``http.client``) — the wire format is exactly the
:class:`~repro.service.jobs.JobRequest` / ``JobResult`` JSON, so the HTTP
layer is a pipe, not a second API.  The server side is the asyncio core
(:mod:`repro.service.aio`, behind ``repro serve``);
``docs/WIRE_PROTOCOL.md`` is the normative description.

=========  ===========================  ====================================
method     path                         body → response
=========  ===========================  ====================================
``POST``   ``/v1/jobs``                 job request JSON → job result JSON
``POST``   ``/v1/jobs:batch``           ``{"jobs": [...]}`` →
                                        ``{"results": [...]}``
``POST``   ``/v1/jobs:edit``            edit request JSON → job result JSON
``POST``   ``/v1/catalog:shard:stream`` shard claim JSON → chunked
                                        NDJSON, one frame per claimed
                                        seed range
``POST``   ``/v1/caches:clear``         (empty body) → ``{"cleared": true}``
``POST``   ``/v1/admin:drain``          (empty body) → ``{"draining": true}``
``GET``    ``/healthz``                 liveness + kernel + drain state
``GET``    ``/stats``                   :meth:`SchedulerService.describe`
``GET``    ``/workloads``               available workload names
=========  ===========================  ====================================

Every job response carries an ``X-Repro-Cache`` header naming the deepest
cache level that answered (``result`` / ``selection`` / ``catalog`` /
``edit`` / ``shard`` / ``none``) — cache behaviour is observable without
perturbing the bit-identical result body.  Single-result job responses
(``/v1/jobs``, ``/v1/jobs:edit``) also carry an ``ETag``, the strong
validator of the exact body; a request whose ``If-None-Match`` names it
is answered ``304 Not Modified`` with no body.  The client holds its last
:data:`HELD_ANSWERS` answers and revalidates repeats.

Every failure, on every route, is the one envelope from
:mod:`repro.service.errors`::

    {"error": {"type": ..., "message": ..., "field"?, "retry_after"?}}

with the status from :func:`~repro.service.errors.http_status` (400
validation, 429 overload, 503 draining, 422 typed scheduling failures,
500 defensive) and a ``Retry-After`` header whenever the error carries a
back-off hint.  The client's :func:`~repro.service.errors.error_from_envelope`
re-raises each as its own type — no per-route error code on either side.

``/v1/catalog:shard:stream`` is the executor side of
:class:`~repro.service.shard.ShardCoordinator`: the body is one
:class:`~repro.service.shard.ShardTask` — a claim carrying the graph and
one attempt's bounds once, plus the claimed seed ranges — and the
chunked ``application/x-ndjson`` response emits one frame per range —
``{"slot": i, "buckets": ..., "cache": ...}`` or
``{"slot": i, "error": {...}}``, ``i`` indexing the claim's ``ranges``
— then a terminal ``{"done": true}``, with ``{"heartbeat": ...}`` frames
while the claim classifies.  ``buckets`` is the partial classification
of that seed range, JSON-safe (``[bag_key, count, first_seen, values]``
rows in local first-visit order, see :func:`shard_rows_to_wire`);
``cache`` is ``shard`` when the server's content-addressed partial cache
answered with no DFS and ``none`` when the server computed (and cached)
it.  The server classifies a claim's misses in one pass, so a pass that
overflows ``max_count`` answers its typed error in every missed slot
while hit slots still carry rows; slot indices restore range order, so
merged results are bit-identical to an in-process build.

``/v1/admin:drain`` (or ``SIGTERM`` under ``repro serve``) starts a
graceful drain: the server keeps serving reads but answers every new
work submission with a 503
:class:`~repro.exceptions.ServiceUnavailableError` envelope and finishes
requests already in flight.  ``/v1/caches:clear`` drops every server-side cache level (an
operational reset; the cold-path benchmark uses it to measure honestly).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Iterator
from urllib.parse import urlsplit

import http.client

from repro.exceptions import (
    ReproError,
    ServiceError,
    ShardTimeoutError,
    ShardTransportError,
)
from repro.service.errors import error_from_envelope, retry_after_of
from repro.service.jobs import EditRequest, JobRequest, JobResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.shard import ShardTask

__all__ = ["ServiceClient"]

#: Header a client sends to identify itself for per-client quotas (the
#: server buckets by it; unset falls back to the peer address).
CLIENT_HEADER = "X-Repro-Client"

#: Answers a :class:`ServiceClient` holds for revalidation, least
#: recently used evicted first.
HELD_ANSWERS = 64


def shard_rows_to_wire(buckets: "list[tuple]") -> "list[list]":
    """In-process partial rows → JSON-safe wire rows."""
    return [
        [list(key), count, order, values]
        for key, count, order, values in buckets
    ]


def shard_rows_from_wire(rows: "list[list]") -> "list[tuple]":
    """Wire rows → the in-process shape ``merge_classified_parts`` takes."""
    return [(tuple(key), count, order, values) for key, count, order, values in rows]


class ServiceClient:
    """Persistent JSON-over-HTTP client for a running ``repro serve``.

    >>> with ServiceClient("http://127.0.0.1:8350") as client:  # doctest: +SKIP
    ...     result = client.submit(JobRequest(capacity=5, pdef=4,
    ...                                       workload="3dft"))

    One keep-alive connection is held per calling thread and reused
    across requests (the server speaks HTTP/1.1 keep-alive); a stale
    connection — the server restarted, an idle timeout fired — is
    dropped and the request retried once on a fresh one, which is safe
    because every route is idempotent (results are content-addressed).
    The client is a context manager; :meth:`close` is idempotent and
    closes every pooled connection.

    Server-side failures re-raise as their own exception types — the
    unified envelope's ``type`` field resolves through
    :func:`~repro.service.errors.error_from_envelope` — so callers
    handle local and remote submission identically.  Each raised error
    additionally carries the HTTP status on ``exc.http_status``.

    ``client_id`` names this client for the server's per-client
    quota buckets (the ``X-Repro-Client`` header); unset, the server
    buckets by peer address.

    Single-result submits revalidate.  The client holds the last
    :data:`HELD_ANSWERS` answers by request body, each with its ``ETag``;
    a repeat sends ``If-None-Match``, and on ``304 Not Modified`` it
    returns the held :class:`JobResult` *instance* without a body or a
    decode.  That is the in-process :meth:`SchedulerService.submit
    <repro.service.service.SchedulerService.submit>` contract, which
    returns its cached instance on a result hit: callers share it and
    must not mutate it.  The server still parses, admits and books every
    repeat as the submit it answers.

    Timeouts are split by phase: ``connect_timeout`` bounds establishing
    the TCP connection (default ``min(timeout, 5.0)`` — a dead host
    fails fast), ``timeout`` bounds each read on the established
    connection.  Both map to :class:`~repro.exceptions.ShardTimeoutError`
    (a retryable transport failure) when they fire.  With
    ``retry_after_cap`` set, a 429/503 answer carrying a ``Retry-After``
    hint is politely retried once after ``min(hint, cap)`` seconds
    instead of raising immediately; unset (the default), backpressure
    errors raise as before.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 60.0,
        connect_timeout: float | None = None,
        client_id: str | None = None,
        retry_after_cap: float | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.connect_timeout = (
            connect_timeout if connect_timeout is not None
            else min(timeout, 5.0)
        )
        self.retry_after_cap = retry_after_cap
        self.client_id = client_id
        split = urlsplit(self.base_url)
        if split.scheme not in ("http", ""):
            raise ServiceError(
                f"unsupported service URL scheme {split.scheme!r}; "
                f"expected http"
            )
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port or 80
        self._local = threading.local()
        self._lock = threading.Lock()
        self._conns: "list[http.client.HTTPConnection]" = []
        # (route, request body) → (ETag, answer), least recently used
        # first; guarded by _lock.
        self._held: "OrderedDict[tuple, tuple[str, JobResult]]" = OrderedDict()
        self._closed = False

    @property
    def last_cache(self) -> "str | None":
        """Cache level of this thread's most recent single-job submit
        (the ``X-Repro-Cache`` response header)."""
        return getattr(self._local, "last_cache", None)

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close every pooled connection and drop every held answer
        (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns, self._conns = self._conns, []
            self._held.clear()
        for conn in conns:
            try:
                conn.close()
            except Exception:  # pragma: no cover - socket already dead
                pass

    # ------------------------------------------------------------------ #
    def _connection(self) -> "http.client.HTTPConnection":
        if self._closed:
            raise ServiceError("ServiceClient is closed")
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.connect_timeout
            )
            self._local.conn = conn
            with self._lock:
                if self._closed:
                    conn.close()
                    raise ServiceError("ServiceClient is closed")
                self._conns.append(conn)
        if conn.sock is None:
            # Connect eagerly under the (short) connect timeout, then
            # widen the socket to the per-read timeout: a dead host fails
            # in connect_timeout seconds, a slow response gets the full
            # read budget.
            conn.connect()
            conn.sock.settimeout(self.timeout)
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is None:
            return
        with self._lock:
            try:
                self._conns.remove(conn)
            except ValueError:
                pass
        try:
            conn.close()
        except Exception:  # pragma: no cover - socket already dead
            pass

    def _headers(self, has_body: bool, etag: "str | None") -> "dict[str, str]":
        headers: "dict[str, str]" = {}
        if has_body:
            headers["Content-Type"] = "application/json"
        if self.client_id is not None:
            headers[CLIENT_HEADER] = self.client_id
        if etag is not None:
            headers["If-None-Match"] = etag
        return headers

    def _open(
        self, path: str, body: "bytes | None", etag: "str | None" = None
    ) -> "http.client.HTTPResponse":
        """Issue a request on the thread's connection, retrying once.

        The retry only covers connection-level failures (the keep-alive
        peer vanished before a response line came back); HTTP-level
        errors return a response and are mapped by the caller.
        """
        method = "POST" if body is not None else "GET"
        headers = self._headers(body is not None, etag)
        last_exc: "Exception | None" = None
        for _attempt in range(2):
            try:
                conn = self._connection()
                conn.request(method, path, body=body, headers=headers)
                return conn.getresponse()
            except (http.client.HTTPException, OSError) as exc:
                self._drop_connection()
                last_exc = exc
        if isinstance(last_exc, (socket.timeout, TimeoutError)):
            raise ShardTimeoutError(
                f"cannot reach service at {self.base_url}: "
                f"timed out after {self.connect_timeout}s"
            ) from last_exc
        raise ShardTransportError(
            f"cannot reach service at {self.base_url}: {last_exc}"
        ) from last_exc

    def _error_for(self, status: int, data: bytes) -> ReproError:
        try:
            payload: Any = json.loads(data.decode("utf-8"))
        except Exception:
            payload = None
        exc = error_from_envelope(
            payload, default_message=f"service returned HTTP {status}"
        )
        exc.http_status = status  # type: ignore[attr-defined]
        return exc

    def _request(
        self, path: str, body: "bytes | None" = None, etag: "str | None" = None
    ) -> "tuple[int, bytes, http.client.HTTPMessage]":
        """``(status, body, headers)`` of one request; errors raise typed.

        ``headers`` is the response's case-insensitive header map, so a
        proxy that lower-cases names changes nothing.
        """
        polite_waits = 0
        while True:
            resp = self._open(path, body, etag)
            try:
                data = resp.read()
            except (http.client.HTTPException, OSError) as exc:
                self._drop_connection()
                if isinstance(exc, (socket.timeout, TimeoutError)):
                    raise ShardTimeoutError(
                        f"read from {self.base_url} timed out after "
                        f"{self.timeout}s"
                    ) from exc
                raise ShardTransportError(
                    f"connection to {self.base_url} died mid-response: {exc}"
                ) from exc
            if resp.getheader("Connection", "").lower() == "close":
                self._drop_connection()
            if resp.status >= 400:
                exc = self._error_for(resp.status, data)
                hint = retry_after_of(exc)
                if (
                    resp.status in (429, 503)
                    and hint is not None
                    and self.retry_after_cap is not None
                    and polite_waits < 1
                ):
                    # Polite wait: honor the server's Retry-After hint,
                    # capped, then retry once before giving the caller
                    # the backpressure error.
                    polite_waits += 1
                    time.sleep(min(hint, self.retry_after_cap))
                    continue
                raise exc
            return resp.status, data, resp.headers

    def _json(self, path: str, body: "bytes | None" = None) -> Any:
        """The decoded JSON body of one request."""
        return json.loads(self._request(path, body)[1].decode("utf-8"))

    def _submit_one(self, path: str, body: bytes) -> JobResult:
        """One single-result submit, revalidating a held answer.

        The held entry is read before the request and used only for the
        tag it sent, so a concurrent replacement cannot pair a 304 with
        another answer.
        """
        key = (path, body)
        with self._lock:
            held = self._held.get(key)
            if held is not None:
                self._held.move_to_end(key)
        status, data, headers = self._request(
            path, body, held[0] if held is not None else None
        )
        self._local.last_cache = headers.get("X-Repro-Cache")
        if status == 304:
            if held is None:
                raise ServiceError(
                    f"{self.base_url}{path} answered 304 to a request "
                    f"that named no ETag"
                )
            return held[1]
        result = JobResult.from_json(data.decode("utf-8"))
        tag = headers.get("ETag")
        with self._lock:
            if tag is None or self._closed:
                self._held.pop(key, None)
            else:
                self._held[key] = (tag, result)
                self._held.move_to_end(key)
                if len(self._held) > HELD_ANSWERS:
                    self._held.popitem(last=False)
        return result

    # ------------------------------------------------------------------ #
    def submit(self, request: JobRequest) -> JobResult:
        """Submit one job; ``self.last_cache`` records the cache level.

        A repeat of a held request revalidates: on ``304`` the held
        instance is returned (see the class docstring).
        """
        return self._submit_one("/v1/jobs", request.to_json().encode("utf-8"))

    def submit_edit(self, request: "EditRequest") -> JobResult:
        """Submit an edit of a known job (``POST /v1/jobs:edit``).

        ``self.last_cache`` records the cache level; ``"edit"`` means the
        server rebuilt incrementally, reusing cached partition partials
        for everything outside the edit's dirty region.  Repeats
        revalidate as :meth:`submit` does.
        """
        return self._submit_one(
            "/v1/jobs:edit", request.to_json().encode("utf-8")
        )

    def submit_many(self, requests: "list[JobRequest]") -> list[JobResult]:
        """Submit a batch (service-side dedup applies)."""
        payload = json.dumps({"jobs": [r.to_dict() for r in requests]})
        parsed = self._json("/v1/jobs:batch", payload.encode("utf-8"))
        return [JobResult.from_dict(r) for r in parsed["results"]]

    def classify_shard_stream(
        self, task: "ShardTask", *, idle_timeout: "float | None" = None
    ) -> "Iterator[tuple[int, list[tuple] | ReproError, str | None]]":
        """Stream one shard claim (``POST /v1/catalog:shard:stream``).

        Yields ``(slot, rows_or_error, cache)`` per claimed seed range as
        its frame arrives; ``slot`` indexes ``task.ranges``.  Errors
        arrive as typed exception instances (not raised), so the steal
        loop can attribute each failure to its own range.  Heartbeat frames are consumed
        silently, but with ``idle_timeout`` set a stream that heartbeats
        for longer than that without delivering a single slot frame is
        declared stalled (:class:`~repro.exceptions.ShardTimeoutError`)
        — heartbeats prove the connection, not progress.  A stream that
        ends without the terminal ``{"done": true}`` frame was truncated
        and raises :class:`~repro.exceptions.ShardTransportError` — a
        retryable transport failure, never a short result.  Abandoning
        the generator mid-stream drops the connection (its remaining
        bytes are unread) rather than poisoning the pool.
        """
        resp = self._open(
            "/v1/catalog:shard:stream", task.to_json().encode("utf-8")
        )
        if resp.status >= 400:
            try:
                data = resp.read()
            except (http.client.HTTPException, OSError):
                data = b""
                self._drop_connection()
            raise self._error_for(resp.status, data)
        done = False
        last_progress = time.monotonic()
        try:
            while True:
                try:
                    line = resp.readline()
                except (http.client.HTTPException, OSError) as exc:
                    if isinstance(exc, (socket.timeout, TimeoutError)):
                        raise ShardTimeoutError(
                            f"shard stream from {self.base_url} timed out "
                            f"after {self.timeout}s without a frame"
                        ) from exc
                    raise ShardTransportError(
                        f"shard stream from {self.base_url} died: {exc}"
                    ) from exc
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    frame = json.loads(line.decode("utf-8"))
                except Exception as exc:
                    raise ShardTransportError(
                        f"malformed shard stream frame: {line[:200]!r}"
                    ) from exc
                if not isinstance(frame, dict):
                    raise ShardTransportError(
                        "malformed shard stream frame: expected an object"
                    )
                if "heartbeat" in frame:
                    if (
                        idle_timeout is not None
                        and time.monotonic() - last_progress > idle_timeout
                    ):
                        raise ShardTimeoutError(
                            f"shard stream from {self.base_url} stalled: "
                            f"heartbeats but no slot frame for "
                            f"{idle_timeout}s"
                        )
                    continue
                if frame.get("done"):
                    done = True
                    break
                slot = frame.get("slot")
                if not isinstance(slot, int):
                    raise ShardTransportError(
                        "malformed shard stream frame: missing slot index"
                    )
                last_progress = time.monotonic()
                if "error" in frame:
                    yield slot, error_from_envelope(
                        frame, default_message="shard task failed"
                    ), None
                    continue
                if not isinstance(frame.get("buckets"), list):
                    raise ShardTransportError(
                        "malformed shard stream frame: needs 'buckets' "
                        "or 'error'"
                    )
                yield slot, shard_rows_from_wire(frame["buckets"]), frame.get(
                    "cache"
                )
            if not done:
                raise ShardTransportError(
                    "shard stream ended without a terminal frame"
                )
            # Drain any trailing bytes so the connection is reusable.
            resp.read()
        finally:
            if not done:
                self._drop_connection()

    def clear_caches(self) -> None:
        """Drop every server-side cache level (``POST /v1/caches:clear``)."""
        self._request("/v1/caches:clear", b"{}")

    def drain(self) -> dict[str, Any]:
        """Start a graceful drain (``POST /v1/admin:drain``)."""
        return self._json("/v1/admin:drain", b"{}")

    def health(self) -> dict[str, Any]:
        return self._json("/healthz")

    def stats(self) -> dict[str, Any]:
        return self._json("/stats")

    def workloads(self) -> list[str]:
        return self._json("/workloads")["workloads"]
