"""Threaded HTTP front-end and the persistent :class:`ServiceClient`.

Stdlib only (``http.server`` + ``http.client``) — the wire format is
exactly the :class:`~repro.service.jobs.JobRequest` / ``JobResult``
JSON, so the HTTP layer is a pipe, not a second API.  The same ``/v1``
routes are also served by the asyncio core (:mod:`repro.service.aio`);
``docs/WIRE_PROTOCOL.md`` is the normative description.

=========  ===========================  ====================================
method     path                         body → response
=========  ===========================  ====================================
``POST``   ``/v1/jobs``                 job request JSON → job result JSON
``POST``   ``/v1/jobs:batch``           ``{"jobs": [...]}`` →
                                        ``{"results": [...]}``
``POST``   ``/v1/jobs:edit``            edit request JSON → job result JSON
``POST``   ``/v1/catalog:shard``        shard task JSON →
                                        ``{"buckets": [...]}``; batched
                                        ``{"tasks": [...]}`` →
                                        ``{"results": [...]}``
``POST``   ``/v1/catalog:shard:stream`` ``{"tasks": [...]}`` → chunked
                                        NDJSON, one frame per slot as it
                                        completes
``POST``   ``/v1/caches:clear``         (empty body) → ``{"cleared": true}``
``POST``   ``/v1/admin:drain``          (empty body) → ``{"draining": true,
                                        "flushed": n}``
``GET``    ``/healthz``                 liveness + backend + drain state
``GET``    ``/stats``                   :meth:`SchedulerService.describe`
``GET``    ``/workloads``               available workload names
=========  ===========================  ====================================

Every job response carries an ``X-Repro-Cache`` header naming the deepest
cache level that answered (``result`` / ``selection`` / ``catalog`` /
``edit`` / ``shard`` / ``none``) — cache behaviour is observable without
perturbing the bit-identical result body.

Every failure, on every route, is the one envelope from
:mod:`repro.service.errors`::

    {"error": {"type": ..., "message": ..., "field"?, "retry_after"?}}

with the status from :func:`~repro.service.errors.http_status` (400
validation, 429 overload, 503 draining, 422 typed scheduling failures,
500 defensive) and a ``Retry-After`` header whenever the error carries a
back-off hint.  The client's :func:`~repro.service.errors.error_from_envelope`
re-raises each as its own type — no per-route error code on either side.

``/v1/catalog:shard`` is the executor side of
:class:`~repro.service.shard.ShardCoordinator`: the body is a
:class:`~repro.service.shard.ShardTask` and the response carries the
partial classification of that task's seed partition, JSON-safe
(``[bag_key, count, first_seen, values]`` rows in local first-visit
order).  Its ``X-Repro-Cache`` header is ``shard`` when the
content-addressed partial cache answered — no DFS ran server-side — and
``none`` when this request computed (and cached) the partial.  The
batched form ``{"tasks": [...]}`` classifies several claimed partitions
in one round trip (the steal loop's ``claim_batch``); the response is
``{"results": [...]}`` with one ``{"buckets": ..., "cache": ...}`` or
``{"error": {...}}`` object per task — failures stay slot-local so one
bad partition cannot void its batch-mates.

``/v1/catalog:shard:stream`` is the server-push form of the same batch:
a chunked ``application/x-ndjson`` response emitting each slot's frame
*as that partition finishes* (``{"slot": i, "buckets": ..., "cache":
...}`` or ``{"slot": i, "error": {...}}``), a ``{"heartbeat": ...}``
frame at the server's discretion during long gaps, and a terminal
``{"done": true}``.  The coordinator's steal loop merges early frames
while later partitions are still classifying — overlap the batched form
cannot offer.  Frame order is server-chosen; slot indices restore task
order, so merged results stay bit-identical to the batched path.

``/v1/admin:drain`` (or ``SIGTERM`` under :func:`serve`) starts a
graceful drain: the server keeps serving reads but answers every new
work submission with a 503
:class:`~repro.exceptions.ServiceUnavailableError` envelope, finishes
requests already in flight, and flushes best-effort state
(:meth:`SchedulerService.flush`) so profile observations survive the
restart.  ``/v1/caches:clear`` drops every server-side cache level (an
operational reset; the cold-path benchmark uses it to measure honestly).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Iterator
from urllib.parse import urlsplit

import http.client

from repro.exceptions import (
    JobValidationError,
    ReproError,
    ServiceError,
    ServiceUnavailableError,
    ShardTimeoutError,
    ShardTransportError,
)
from repro.service.errors import (
    error_envelope,
    error_from_envelope,
    http_status,
    retry_after_of,
)
from repro.service.jobs import EditRequest, JobRequest, JobResult, results_json
from repro.service.service import SchedulerService

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.shard import ShardTask

__all__ = ["ServiceClient", "ServiceServer", "serve"]

#: Maximum accepted request body (64 MiB) — a guard, not a quota.
MAX_BODY_BYTES = 64 << 20

#: Header a client sends to identify itself for per-client quotas (the
#: asyncio core buckets by it; unset falls back to the peer address).
CLIENT_HEADER = "X-Repro-Client"


def _retry_after_header(exc: BaseException) -> "dict[str, str]":
    """``Retry-After`` header for errors that carry a back-off hint."""
    hint = retry_after_of(exc)
    if hint is None:
        return {}
    return {
        "Retry-After": str(int(hint)) if float(hint).is_integer() else str(hint)
    }


def shard_rows_to_wire(buckets: "list[tuple]") -> "list[list]":
    """In-process partial rows → JSON-safe wire rows (shared by cores)."""
    return [
        [list(key), count, order, values]
        for key, count, order, values in buckets
    ]


def shard_rows_from_wire(rows: "list[list]") -> "list[tuple]":
    """Wire rows → the in-process shape ``merge_classified_parts`` takes."""
    return [(tuple(key), count, order, values) for key, count, order, values in rows]


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to the owning :class:`ServiceServer`."""

    server: "ServiceServer"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #
    def _send_json(
        self,
        status: int,
        payload: "dict[str, Any] | str",
        headers: "dict[str, str] | None" = None,
    ) -> None:
        body = (
            payload if isinstance(payload, str) else json.dumps(payload)
        ).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            # Set by _read_body when the declared body was not consumed:
            # advertise the close so clients do not reuse the connection.
            self.send_header("Connection", "close")
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(body)

    def _send_exception(self, exc: Exception) -> None:
        self._send_json(
            http_status(exc), error_envelope(exc), headers=_retry_after_header(exc)
        )

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # The declared body cannot be located, let alone drained: the
            # keep-alive connection is unusable past this request.
            self.close_connection = True
            raise JobValidationError(
                "Content-Length header is not an integer"
            ) from None
        if length > MAX_BODY_BYTES:
            # Rejecting without draining leaves the body bytes in the
            # socket; the next request on this connection would be parsed
            # out of them.  Drop the connection instead of reading 64 MiB+.
            self.close_connection = True
            raise JobValidationError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length)

    def _check_accepting(self) -> None:
        """Refuse new work while draining (reads still answer)."""
        if self.server.draining:
            raise ServiceUnavailableError(
                "service is draining and no longer accepts new work"
            )

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        service = self.server.service
        if self.path == "/healthz":
            self._send_json(
                200,
                {
                    "status": "draining" if self.server.draining else "ok",
                    "backend": service.backend.describe(),
                    "draining": self.server.draining,
                },
            )
        elif self.path == "/stats":
            self._send_json(200, service.describe())
        elif self.path == "/workloads":
            self._send_json(200, {"workloads": service.describe()["workloads"]})
        else:
            self._send_json(
                404,
                {
                    "error": {
                        "type": "NotFound",
                        "message": f"no route {self.path!r}",
                    }
                },
            )

    def do_POST(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        service = self.server.service
        try:
            body = self._read_body()
            if self.path == "/v1/jobs":
                self._check_accepting()
                request = JobRequest.from_json(body.decode("utf-8"))
                outcome = service.submit_outcome(request)
                self._send_json(
                    200,
                    outcome.result.to_json(),
                    headers={"X-Repro-Cache": outcome.cache},
                )
            elif self.path == "/v1/jobs:batch":
                self._check_accepting()
                try:
                    payload = json.loads(body.decode("utf-8"))
                except json.JSONDecodeError as exc:
                    raise JobValidationError(
                        f"invalid batch JSON: {exc}"
                    ) from exc
                if not isinstance(payload, dict) or not isinstance(
                    payload.get("jobs"), list
                ):
                    raise JobValidationError(
                        "batch payload must be an object with a 'jobs' list",
                        field="jobs",
                    )
                requests = [
                    JobRequest.from_dict(job) for job in payload["jobs"]
                ]
                self._send_json(
                    200, results_json(service.submit_many(requests))
                )
            elif self.path == "/v1/jobs:edit":
                self._check_accepting()
                request = EditRequest.from_json(body.decode("utf-8"))
                outcome = service.submit_edit_outcome(request)
                self._send_json(
                    200,
                    outcome.result.to_json(),
                    headers={"X-Repro-Cache": outcome.cache},
                )
            elif self.path == "/v1/catalog:shard":
                self._check_accepting()
                from repro.service.shard import ShardTask

                try:
                    payload = json.loads(body.decode("utf-8"))
                except json.JSONDecodeError as exc:
                    raise JobValidationError(
                        f"invalid shard task JSON: {exc}"
                    ) from exc
                if isinstance(payload, dict) and "tasks" in payload:
                    if not isinstance(payload["tasks"], list):
                        raise JobValidationError(
                            "batched shard payload needs a 'tasks' list",
                            field="tasks",
                        )
                    results = []
                    for item in payload["tasks"]:
                        # Per-task isolation: a failing partition answers
                        # its own slot; its batch-mates still classify.
                        try:
                            task = ShardTask.from_dict(item)
                            buckets, cache = service.classify_shard_outcome(
                                task
                            )
                        except ReproError as exc:
                            results.append(error_envelope(exc))
                        else:
                            results.append(
                                {
                                    "buckets": shard_rows_to_wire(buckets),
                                    "cache": cache,
                                }
                            )
                    self._send_json(200, {"results": results})
                else:
                    task = ShardTask.from_dict(payload)
                    buckets, cache = service.classify_shard_outcome(task)
                    self._send_json(
                        200,
                        {"buckets": shard_rows_to_wire(buckets)},
                        headers={"X-Repro-Cache": cache},
                    )
            elif self.path == "/v1/catalog:shard:stream":
                self._check_accepting()
                try:
                    payload = json.loads(body.decode("utf-8"))
                except json.JSONDecodeError as exc:
                    raise JobValidationError(
                        f"invalid shard stream JSON: {exc}"
                    ) from exc
                if not isinstance(payload, dict) or not isinstance(
                    payload.get("tasks"), list
                ):
                    raise JobValidationError(
                        "streaming shard payload needs a 'tasks' list",
                        field="tasks",
                    )
                self._stream_shard(payload["tasks"])
            elif self.path == "/v1/caches:clear":
                service.clear_caches()
                self._send_json(200, {"cleared": True})
            elif self.path == "/v1/admin:drain":
                flushed = self.server.drain()
                self._send_json(200, {"draining": True, "flushed": flushed})
            else:
                self._send_json(
                    404,
                    {
                        "error": {
                            "type": "NotFound",
                            "message": f"no route {self.path!r}",
                        }
                    },
                )
        except ReproError as exc:
            self._send_exception(exc)
        except Exception as exc:  # pragma: no cover - defensive
            self._send_exception(exc)

    # ------------------------------------------------------------------ #
    def _write_frame(self, frame: "dict[str, Any]") -> None:
        data = json.dumps(frame).encode("utf-8") + b"\n"
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    def _stream_shard(self, items: "list[Any]") -> None:
        """Chunked NDJSON: one frame per slot, written as it completes.

        Slot failures are frames, not response errors — by the time a
        task fails the stream is already flowing.  A failure of the
        stream itself (a broken pipe, a defensive bug) cannot be
        reported in-band; the chunked body is simply left unterminated
        and the client maps truncation to a
        :class:`~repro.exceptions.ServiceError`.
        """
        from repro.service.shard import ShardTask

        service = self.server.service
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            for slot, item in enumerate(items):
                try:
                    task = ShardTask.from_dict(item)
                    buckets, cache = service.classify_shard_outcome(task)
                except ReproError as exc:
                    frame: "dict[str, Any]" = {"slot": slot}
                    frame.update(error_envelope(exc))
                else:
                    frame = {
                        "slot": slot,
                        "buckets": shard_rows_to_wire(buckets),
                        "cache": cache,
                    }
                self._write_frame(frame)
            self._write_frame({"done": True})
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except Exception:  # pragma: no cover - client went away mid-stream
            self.close_connection = True

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)


class ServiceServer(ThreadingHTTPServer):
    """A :class:`SchedulerService` behind ``http.server``.

    Parameters
    ----------
    service:
        The resident service; constructed from ``backend``/``jobs``/
        ``cache_dir``/``max_pending`` when omitted.
    host / port:
        Bind address; port 0 picks a free port (see :attr:`port`).
    cache_dir:
        Optional disk cache directory for the constructed service
        (catalogs/selections/results/shard partials survive restarts;
        see :mod:`repro.service.store`).
    cache_max_bytes:
        Optional per-namespace byte budget for the disk stores (LRU
        pruning on put; see :class:`~repro.service.store.DiskCacheStore`).
    max_pending:
        Optional admission bound for the constructed service; overload
        maps to HTTP 429.
    policy:
        Optional default scheduling policy for the constructed service
        (e.g. ``"auto"``); per-request ``policy``/``backend`` fields
        still win (see :class:`SchedulerService`).
    verbose:
        Log one line per request to stderr (off by default; tests stay
        quiet).
    """

    daemon_threads = True

    def __init__(
        self,
        service: SchedulerService | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 8350,
        backend: str = "fused",
        jobs: int | None = None,
        cache_dir: "str | os.PathLike[str] | None" = None,
        cache_max_bytes: int | None = None,
        max_pending: int | None = None,
        policy: str | None = None,
        verbose: bool = False,
    ) -> None:
        if service is None:
            service = SchedulerService(
                backend=backend,
                jobs=jobs,
                cache_dir=cache_dir,
                cache_max_bytes=cache_max_bytes,
                max_pending=max_pending,
                policy=policy,
            )
        self.service = service
        self.verbose = verbose
        #: Once set, work-submitting routes answer 503; reads still work.
        self.draining = False
        super().__init__((host, port), _Handler)

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should use."""
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def start_background(self) -> threading.Thread:
        """Serve from a daemon thread (tests and embedded use)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def drain(self) -> int:
        """Stop accepting new work and flush best-effort state.

        In-flight requests finish normally (their handler threads keep
        running); every subsequent submission is answered with a 503
        envelope carrying a ``Retry-After`` hint.  Returns the number of
        profile entries re-persisted by the flush.
        """
        self.draining = True
        return self.service.flush()

    def shutdown(self) -> None:
        super().shutdown()
        self.service.close()


def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 8350,
    backend: str = "fused",
    jobs: int | None = None,
    cache_dir: "str | os.PathLike[str] | None" = None,
    cache_max_bytes: int | None = None,
    max_pending: int | None = None,
    policy: str | None = None,
    verbose: bool = True,
) -> None:
    """Blocking entry point behind ``repro serve --threaded``.

    ``SIGTERM`` triggers a graceful drain (finish in-flight work, flush
    profiles, stop) so supervisors can restart the service without
    losing best-effort state; ``Ctrl-C`` stops immediately.
    """
    server = ServiceServer(
        host=host,
        port=port,
        backend=backend,
        jobs=jobs,
        cache_dir=cache_dir,
        cache_max_bytes=cache_max_bytes,
        max_pending=max_pending,
        policy=policy,
        verbose=verbose,
    )
    try:
        import signal

        def _drain_and_stop(signum: int, frame: Any) -> None:
            server.drain()
            threading.Thread(target=server.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _drain_and_stop)
    except (ImportError, ValueError):  # pragma: no cover - non-main thread
        pass
    extras = ""
    if cache_dir is not None:
        extras += f", cache_dir={cache_dir}"
    if max_pending is not None:
        extras += f", max_pending={max_pending}"
    if policy is not None:
        extras += f", policy={policy}"
    print(
        f"repro service listening on {server.url} "
        f"(backend {server.service.backend.describe()}{extras}); "
        f"Ctrl-C to stop",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.shutdown()
        server.server_close()


class ServiceClient:
    """Persistent JSON-over-HTTP client for a running ``repro serve``.

    >>> with ServiceClient("http://127.0.0.1:8350") as client:  # doctest: +SKIP
    ...     result = client.submit(JobRequest(capacity=5, pdef=4,
    ...                                       workload="3dft"))

    One keep-alive connection is held per calling thread and reused
    across requests (the server speaks HTTP/1.1 on both cores); a stale
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

    ``client_id`` names this client for the async core's per-client
    quota buckets (the ``X-Repro-Client`` header); unset, the server
    buckets by peer address.

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
        #: Cache level of the most recent single-job submit (the
        #: ``X-Repro-Cache`` response header).
        self.last_cache: str | None = None
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
        self._closed = False

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns, self._conns = self._conns, []
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

    def _headers(self, has_body: bool) -> "dict[str, str]":
        headers: "dict[str, str]" = {}
        if has_body:
            headers["Content-Type"] = "application/json"
        if self.client_id is not None:
            headers[CLIENT_HEADER] = self.client_id
        return headers

    def _open(
        self, path: str, body: "bytes | None"
    ) -> "http.client.HTTPResponse":
        """Issue a request on the thread's connection, retrying once.

        The retry only covers connection-level failures (the keep-alive
        peer vanished before a response line came back); HTTP-level
        errors return a response and are mapped by the caller.
        """
        method = "POST" if body is not None else "GET"
        headers = self._headers(body is not None)
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
        self, path: str, body: "bytes | None" = None
    ) -> tuple[str, dict[str, str]]:
        polite_waits = 0
        while True:
            resp = self._open(path, body)
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
            headers = dict(resp.getheaders())
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
            return data.decode("utf-8"), headers

    # ------------------------------------------------------------------ #
    def submit(self, request: JobRequest) -> JobResult:
        """Submit one job; ``self.last_cache`` records the cache level."""
        body, headers = self._request(
            "/v1/jobs", request.to_json().encode("utf-8")
        )
        self.last_cache = headers.get("X-Repro-Cache")
        return JobResult.from_json(body)

    def submit_edit(self, request: "EditRequest") -> JobResult:
        """Submit an edit of a known job (``POST /v1/jobs:edit``).

        ``self.last_cache`` records the cache level; ``"edit"`` means the
        server rebuilt incrementally, reusing cached partition partials
        for everything outside the edit's dirty region.
        """
        body, headers = self._request(
            "/v1/jobs:edit", request.to_json().encode("utf-8")
        )
        self.last_cache = headers.get("X-Repro-Cache")
        return JobResult.from_json(body)

    def submit_many(self, requests: "list[JobRequest]") -> list[JobResult]:
        """Submit a batch (service-side dedup applies)."""
        payload = json.dumps({"jobs": [r.to_dict() for r in requests]})
        body, _ = self._request("/v1/jobs:batch", payload.encode("utf-8"))
        parsed = json.loads(body)
        return [JobResult.from_dict(r) for r in parsed["results"]]

    def classify_shard(self, task: "ShardTask") -> list[tuple]:
        """Run one shard task remotely (``POST /v1/catalog:shard``).

        Returns the partial classification in the in-process shape —
        ``(bag_key tuple, count, first_seen list, values list)`` rows —
        ready for :func:`repro.exec.process.merge_classified_parts`.
        ``self.last_cache`` records the response's ``X-Repro-Cache``
        header: ``"shard"`` means the server answered from its
        content-addressed partial cache without running any DFS.
        """
        body, headers = self._request(
            "/v1/catalog:shard", task.to_json().encode("utf-8")
        )
        self.last_cache = headers.get("X-Repro-Cache")
        parsed = json.loads(body)
        if not isinstance(parsed, dict) or not isinstance(
            parsed.get("buckets"), list
        ):
            raise ServiceError(
                "malformed shard response: expected an object with a "
                "'buckets' list"
            )
        return shard_rows_from_wire(parsed["buckets"])

    def classify_shard_many(
        self, tasks: "list[ShardTask]"
    ) -> "list[tuple[list[tuple], str | None] | ReproError]":
        """Run a claimed batch in one trip (batched ``/v1/catalog:shard``).

        Returns one entry per task, in order: ``(rows, cache)`` on
        success — ``cache == "shard"`` meaning the server's partial cache
        answered with zero DFS — or a typed exception *instance* (not
        raised) for a slot-local failure, so the steal loop can attribute
        each failure to its own partition index.
        """
        payload = json.dumps({"tasks": [t.to_dict() for t in tasks]})
        body, _ = self._request("/v1/catalog:shard", payload.encode("utf-8"))
        parsed = json.loads(body)
        if not isinstance(parsed, dict) or not isinstance(
            parsed.get("results"), list
        ):
            raise ServiceError(
                "malformed batched shard response: expected an object "
                "with a 'results' list"
            )
        if len(parsed["results"]) != len(tasks):
            raise ServiceError(
                f"batched shard response has {len(parsed['results'])} "
                f"results for {len(tasks)} tasks"
            )
        out: "list[tuple[list[tuple], str | None] | ReproError]" = []
        for item in parsed["results"]:
            if not isinstance(item, dict):
                raise ServiceError(
                    "malformed batched shard response: each result must "
                    "be an object"
                )
            if "error" in item:
                out.append(
                    error_from_envelope(
                        item, default_message="shard task failed"
                    )
                )
                continue
            if not isinstance(item.get("buckets"), list):
                raise ServiceError(
                    "malformed batched shard response: result needs a "
                    "'buckets' list or an 'error'"
                )
            out.append((shard_rows_from_wire(item["buckets"]), item.get("cache")))
        return out

    def classify_shard_stream(
        self, tasks: "list[ShardTask]", *, idle_timeout: "float | None" = None
    ) -> "Iterator[tuple[int, list[tuple] | ReproError, str | None]]":
        """Stream a claimed batch (``POST /v1/catalog:shard:stream``).

        Yields ``(slot, rows_or_error, cache)`` as the server finishes
        each partition — in *server* completion order, not slot order;
        the slot index maps each frame back to its task.  Errors arrive
        as typed exception instances (not raised), mirroring
        :meth:`classify_shard_many`.  Heartbeat frames are consumed
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
        payload = json.dumps({"tasks": [t.to_dict() for t in tasks]})
        resp = self._open(
            "/v1/catalog:shard:stream", payload.encode("utf-8")
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
        body, _ = self._request("/v1/admin:drain", b"{}")
        return json.loads(body)

    def health(self) -> dict[str, Any]:
        body, _ = self._request("/healthz")
        return json.loads(body)

    def stats(self) -> dict[str, Any]:
        body, _ = self._request("/stats")
        return json.loads(body)

    def workloads(self) -> list[str]:
        body, _ = self._request("/workloads")
        return json.loads(body)["workloads"]
