"""Asyncio service core: ``repro serve``'s default front-end.

Same ``/v1`` wire protocol as the threaded core
(:mod:`repro.service.http`; ``docs/WIRE_PROTOCOL.md`` is normative),
rebuilt on ``asyncio.start_server`` in the spirit of Uberun's
master↔daemon link: many persistent keep-alive connections multiplexed
onto one event loop, compute pushed off-loop so the reactor never
blocks behind a DFS.

What this core adds over the threaded one:

**Priority scheduling.**  Compute runs on a small thread pool fed by a
priority queue.  Interactive edits (``/v1/jobs:edit``) and cache-warm
submissions (:meth:`SchedulerService.probe_result` says the result
cache will answer) jump ahead of cold catalog builds, so a long cold
build cannot starve the traffic that would have returned in
microseconds.  FIFO order is preserved within a priority class.

**Per-client quotas.**  A token bucket per client — keyed by the
``X-Repro-Client`` header, else the peer address — meters *work*
routes (reads are free).  An empty bucket answers 429 with the
bucket's own refill time as ``retry_after``, layered *in front of* the
service's global ``max_pending`` admission bound: one greedy client
exhausts its bucket, not the server.

**Graceful drain.**  ``POST /v1/admin:drain`` — or ``SIGTERM`` under
:func:`serve` — stops accepting new work (503 envelopes with a retry
hint), lets every in-flight request finish, and flushes best-effort
state (profile observations) to disk.  Reads keep answering during the
drain so load balancers can watch ``/healthz`` flip to ``draining``.

**Server-push shard streaming with heartbeats.**  The
``/v1/catalog:shard:stream`` route classifies every slot of a claimed
batch concurrently (through the priority pool) and emits each slot's
NDJSON frame *the moment that partition finishes* — completion order,
not slot order.  While nothing completes, a ``{"heartbeat": ...}``
frame goes out every ``heartbeat_interval`` seconds so the
coordinator's long-lived connection is provably alive, not silently
wedged.  Slot indices restore task order downstream; merged catalogs
stay bit-identical to the batched route.

:class:`AsyncServiceClient` is the asyncio twin of
:class:`~repro.service.http.ServiceClient`: one persistent connection,
an async context manager, the same typed-error re-raise through the
unified envelope, and an async-generator ``classify_shard_stream``.
The sync client works against this server unchanged — the wire format
is identical.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import queue
import threading
import time
from typing import TYPE_CHECKING, Any, AsyncIterator, Callable

from repro.exceptions import (
    JobValidationError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
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
from repro.service.http import (
    CLIENT_HEADER,
    MAX_BODY_BYTES,
    _retry_after_header,
    shard_rows_from_wire,
    shard_rows_to_wire,
)
from repro.service.jobs import EditRequest, JobRequest, JobResult, results_json
from repro.service.service import SchedulerService, SubmitOutcome

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.shard import ShardTask

__all__ = [
    "AsyncServiceClient",
    "AsyncServiceServer",
    "serve",
]

#: Priority classes for the compute pool (lower runs first).
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Routes that submit work (metered by quotas, refused while draining).
_WORK_ROUTES = frozenset(
    {
        "/v1/jobs",
        "/v1/jobs:batch",
        "/v1/jobs:edit",
        "/v1/catalog:shard",
        "/v1/catalog:shard:stream",
    }
)


class _TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = time.monotonic()

    def acquire(self, now: "float | None" = None) -> float:
        """Take one token; 0.0 when admitted, else seconds until one frees."""
        if now is None:
            now = time.monotonic()
        self.tokens = min(
            self.burst, self.tokens + (now - self.stamp) * self.rate
        )
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


def _encoded(outcome: SubmitOutcome) -> "tuple[str, str]":
    """``(cache level, response body)``, encoded on the calling pool thread.

    The encode runs once per result (:meth:`JobResult.to_json` memoises
    it), and never on the event loop: a cold 670 KB answer would
    otherwise block every other connection while it serialises.
    """
    return outcome.cache, outcome.result.to_json()


class _PriorityPool:
    """Threads draining a priority queue, resolving asyncio futures.

    The event loop never computes: every service call is packaged as a
    closure, queued with its priority class, and resolved back onto the
    submitting loop via ``call_soon_threadsafe``.  A sequence number
    keeps FIFO order within a class (and makes heap entries totally
    ordered so unorderable payloads never compare).
    """

    _STOP_PRIORITY = 1 << 30

    def __init__(self, workers: int) -> None:
        self._queue: "queue.PriorityQueue[tuple]" = queue.PriorityQueue()
        self._seq = itertools.count()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-aio-worker-{i}", daemon=True
            )
            for i in range(max(1, workers))
        ]
        for t in self._threads:
            t.start()
        self._closed = False

    def submit(
        self, fn: "Callable[[], Any]", *, priority: int = PRIORITY_NORMAL
    ) -> "asyncio.Future[Any]":
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        self._queue.put((priority, next(self._seq), fn, loop, future))
        return future

    def _worker(self) -> None:
        while True:
            priority, _seq, fn, loop, future = self._queue.get()
            if priority == self._STOP_PRIORITY:
                return
            try:
                result = fn()
            except BaseException as exc:
                self._resolve(loop, future, None, exc)
            else:
                self._resolve(loop, future, result, None)

    @staticmethod
    def _resolve(
        loop: asyncio.AbstractEventLoop,
        future: "asyncio.Future[Any]",
        result: Any,
        exc: "BaseException | None",
    ) -> None:
        def setter() -> None:
            if future.cancelled():
                return
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(result)

        try:
            loop.call_soon_threadsafe(setter)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def close(self) -> None:
        """Stop workers after the queued work drains (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._queue.put((self._STOP_PRIORITY, next(self._seq), None, None, None))
        for t in self._threads:
            t.join(timeout=5.0)


class AsyncServiceServer:
    """A :class:`SchedulerService` behind ``asyncio.start_server``.

    Parameters mirror :class:`~repro.service.http.ServiceServer`, plus:

    quota_rps / quota_burst:
        Per-client token-bucket rate (requests/second) and burst size
        for work routes; ``quota_rps=None`` disables metering.
        ``quota_burst`` defaults to ``max(1, 2 * quota_rps)``.
    workers:
        Compute threads behind the priority queue (the service
        serializes heavy work internally; a few threads keep warm hits
        and cold builds from queueing behind one another).
    heartbeat_interval:
        Seconds of streaming silence before a ``{"heartbeat": ...}``
        frame goes out on ``/v1/catalog:shard:stream``.
    """

    def __init__(
        self,
        service: "SchedulerService | None" = None,
        *,
        host: str = "127.0.0.1",
        port: int = 8350,
        backend: str = "fused",
        jobs: "int | None" = None,
        cache_dir: "str | os.PathLike[str] | None" = None,
        cache_max_bytes: "int | None" = None,
        max_pending: "int | None" = None,
        policy: "str | None" = None,
        quota_rps: "float | None" = None,
        quota_burst: "float | None" = None,
        workers: int = 4,
        heartbeat_interval: float = 10.0,
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
        self.draining = False
        self.heartbeat_interval = heartbeat_interval
        self.quota_rps = quota_rps
        if quota_rps is not None and quota_burst is None:
            quota_burst = max(1.0, 2.0 * quota_rps)
        self.quota_burst = quota_burst
        self._host = host
        self._requested_port = port
        self._buckets: "dict[str, _TokenBucket]" = {}
        self._pool = _PriorityPool(workers)
        self._server: "asyncio.base_events.Server | None" = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._inflight = 0
        self._idle: "asyncio.Event | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        """Base URL clients should use."""
        return f"http://{self._host}:{self.port}"

    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._requested_port
        )

    def drain(self) -> int:
        """Stop accepting new work; flush best-effort state.

        In-flight requests finish normally; every later submission gets
        a 503 envelope with a retry hint.  Returns the number of profile
        entries the flush re-persisted.
        """
        self.draining = True
        return self.service.flush()

    async def drain_and_wait(self) -> int:
        """:meth:`drain`, then wait for in-flight work to finish."""
        flushed = self.drain()
        assert self._idle is not None
        if self._inflight:
            self._idle.clear()
        await self._idle.wait()
        return flushed

    async def aclose(self) -> None:
        """Graceful stop: drain, finish in-flight, release everything."""
        if self._closed:
            return
        self._closed = True
        await self.drain_and_wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle keep-alive connections sit parked in readuntil(); nothing
        # more can arrive on them (the listener is closed and work is
        # refused), so cancel rather than wait for client timeouts.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._pool.close()
        self.service.close()

    async def serve_forever(self) -> None:
        """Serve until cancelled or :meth:`aclose` is called."""
        await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    # -- sync facade (tests, benchmarks, the CLI's background path) ---- #
    def start_background(self) -> threading.Thread:
        """Run the event loop in a daemon thread; returns once bound."""
        started = threading.Event()
        failure: "list[BaseException]" = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # pragma: no cover - bind failure
                failure.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        started.wait()
        if failure:
            raise failure[0]
        return self._thread

    def shutdown(self) -> None:
        """Graceful stop from any thread (pairs with start_background)."""
        loop = self._loop
        if loop is not None and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(self.aclose(), loop)
            future.result(timeout=60.0)
            loop.call_soon_threadsafe(loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10.0)
        else:
            self._pool.close()
            if not self._closed:
                self._closed = True
                self.service.close()

    # ------------------------------------------------------------------ #
    def _log(self, message: str) -> None:
        if self.verbose:  # pragma: no cover - debug aid
            print(f"[repro-aio] {message}", flush=True)

    def _client_key(self, headers: "dict[str, str]", peer: str) -> str:
        return headers.get(CLIENT_HEADER.lower()) or peer

    def _check_admission(self, path: str, headers: "dict[str, str]", peer: str) -> None:
        """Drain gate, then the per-client bucket (work routes only)."""
        if path not in _WORK_ROUTES:
            return
        if self.draining:
            raise ServiceUnavailableError(
                "service is draining and no longer accepts new work"
            )
        if self.quota_rps is None:
            return
        key = self._client_key(headers, peer)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _TokenBucket(
                self.quota_rps, self.quota_burst or 1.0
            )
        wait = bucket.acquire()
        if wait > 0.0:
            raise ServiceOverloadedError(
                f"client {key!r} exceeded its request quota "
                f"({self.quota_rps:g} req/s, burst {self.quota_burst:g})",
                retry_after=round(max(wait, 0.001), 3),
            )

    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) else str(peername)
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                try:
                    streamed = await self._dispatch(
                        writer, method, path, headers, body, peer
                    )
                except ReproError as exc:
                    await self._send_json(
                        writer,
                        http_status(exc),
                        error_envelope(exc),
                        headers=_retry_after_header(exc),
                    )
                    streamed = False
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except Exception as exc:  # pragma: no cover - defensive
                    await self._send_json(
                        writer, 500, error_envelope(exc)
                    )
                    streamed = False
                if not keep_alive and not streamed:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # peer went away or spoke garbage; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutdown cancelled an idle keep-alive reader
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> "tuple[str, str, dict[str, str], bytes] | None":
        """Parse one HTTP/1.1 request; None on clean EOF."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) < 3:
            await self._send_json(
                writer,
                400,
                {
                    "error": {
                        "type": "JobValidationError",
                        "message": f"malformed request line {lines[0]!r}",
                    }
                },
                close=True,
            )
            return None
        method, path = parts[0], parts[1]
        headers: "dict[str, str]" = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            await self._send_json(
                writer,
                400,
                error_envelope(
                    JobValidationError("Content-Length header is not an integer")
                ),
                close=True,
            )
            return None
        if length > MAX_BODY_BYTES:
            # Same guard as the threaded core: reject without reading
            # 64 MiB+, and drop the connection since the body bytes
            # would poison the next request's parse.
            await self._send_json(
                writer,
                400,
                error_envelope(
                    JobValidationError(
                        f"request body of {length} bytes exceeds the "
                        f"{MAX_BODY_BYTES}-byte limit"
                    )
                ),
                close=True,
            )
            return None
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    # ------------------------------------------------------------------ #
    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: "dict[str, Any] | str",
        headers: "dict[str, str] | None" = None,
        close: bool = False,
    ) -> None:
        body = (
            payload if isinstance(payload, str) else json.dumps(payload)
        ).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        for k, v in (headers or {}).items():
            head.append(f"{k}: {v}")
        if close:
            head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
        if close:
            writer.close()

    # ------------------------------------------------------------------ #
    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        headers: "dict[str, str]",
        body: bytes,
        peer: str,
    ) -> bool:
        """Route one request; True when the route streamed its response."""
        service = self.service
        if method == "GET":
            if path == "/healthz":
                await self._send_json(
                    writer,
                    200,
                    {
                        "status": "draining" if self.draining else "ok",
                        "backend": service.backend.describe(),
                        "draining": self.draining,
                    },
                )
            elif path == "/stats":
                await self._send_json(writer, 200, service.describe())
            elif path == "/workloads":
                await self._send_json(
                    writer, 200, {"workloads": service.describe()["workloads"]}
                )
            else:
                await self._send_json(
                    writer,
                    404,
                    {
                        "error": {
                            "type": "NotFound",
                            "message": f"no route {path!r}",
                        }
                    },
                )
            return False
        if method != "POST":
            await self._send_json(
                writer,
                404,
                {
                    "error": {
                        "type": "NotFound",
                        "message": f"no route {method} {path!r}",
                    }
                },
            )
            return False

        self._check_admission(path, headers, peer)
        assert self._idle is not None
        self._inflight += 1
        try:
            return await self._dispatch_post(writer, path, body)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    async def _dispatch_post(
        self, writer: asyncio.StreamWriter, path: str, body: bytes
    ) -> bool:
        service = self.service
        if path == "/v1/jobs":
            request = JobRequest.from_json(body.decode("utf-8"))
            # Warm traffic (the result cache will answer) jumps the
            # queue: its service time is microseconds, and making it
            # wait behind a cold build is the starvation this core
            # exists to prevent.
            priority = (
                PRIORITY_HIGH
                if service.probe_result(request)
                else PRIORITY_NORMAL
            )
            cache, text = await self._pool.submit(
                lambda: _encoded(service.submit_outcome(request)),
                priority=priority,
            )
            await self._send_json(
                writer, 200, text, headers={"X-Repro-Cache": cache}
            )
        elif path == "/v1/jobs:batch":
            try:
                payload = json.loads(body.decode("utf-8"))
            except json.JSONDecodeError as exc:
                raise JobValidationError(f"invalid batch JSON: {exc}") from exc
            if not isinstance(payload, dict) or not isinstance(
                payload.get("jobs"), list
            ):
                raise JobValidationError(
                    "batch payload must be an object with a 'jobs' list",
                    field="jobs",
                )
            requests = [JobRequest.from_dict(job) for job in payload["jobs"]]
            text = await self._pool.submit(
                lambda: results_json(service.submit_many(requests))
            )
            await self._send_json(writer, 200, text)
        elif path == "/v1/jobs:edit":
            request = EditRequest.from_json(body.decode("utf-8"))
            # Edits are interactive by definition: always high priority.
            cache, text = await self._pool.submit(
                lambda: _encoded(service.submit_edit_outcome(request)),
                priority=PRIORITY_HIGH,
            )
            await self._send_json(
                writer, 200, text, headers={"X-Repro-Cache": cache}
            )
        elif path == "/v1/catalog:shard":
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
                    try:
                        frame = await self._pool.submit(
                            self._slot_runner(item)
                        )
                    except ReproError as exc:
                        results.append(error_envelope(exc))
                    else:
                        buckets, cache = frame
                        results.append(
                            {
                                "buckets": shard_rows_to_wire(buckets),
                                "cache": cache,
                            }
                        )
                await self._send_json(writer, 200, {"results": results})
            else:
                task = ShardTask.from_dict(payload)
                buckets, cache = await self._pool.submit(
                    lambda: service.classify_shard_outcome(task)
                )
                await self._send_json(
                    writer,
                    200,
                    {"buckets": shard_rows_to_wire(buckets)},
                    headers={"X-Repro-Cache": cache},
                )
        elif path == "/v1/catalog:shard:stream":
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
            await self._stream_shard(writer, payload["tasks"])
            return True
        elif path == "/v1/caches:clear":
            await self._pool.submit(service.clear_caches)
            await self._send_json(writer, 200, {"cleared": True})
        elif path == "/v1/admin:drain":
            flushed = self.drain()
            await self._send_json(
                writer, 200, {"draining": True, "flushed": flushed}
            )
        else:
            await self._send_json(
                writer,
                404,
                {"error": {"type": "NotFound", "message": f"no route {path!r}"}},
            )
        return False

    # ------------------------------------------------------------------ #
    def _slot_runner(self, item: Any) -> "Callable[[], tuple[list, str]]":
        """Closure classifying one streamed/batched slot in a pool thread."""
        service = self.service

        def run() -> "tuple[list, str]":
            from repro.service.shard import ShardTask

            task = ShardTask.from_dict(item)
            return service.classify_shard_outcome(task)

        return run

    @staticmethod
    def _write_frame(writer: asyncio.StreamWriter, frame: "dict[str, Any]") -> None:
        data = json.dumps(frame).encode("utf-8") + b"\n"
        writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")

    async def _stream_shard(
        self, writer: asyncio.StreamWriter, items: "list[Any]"
    ) -> None:
        """Chunked NDJSON, one frame per slot in *completion* order.

        Every slot is queued into the priority pool up front, so slots
        classify concurrently (bounded by the pool) and a finished
        partition's frame goes out while its batch-mates are still
        running — the overlap the coordinator's merge loop feeds on.
        Heartbeat frames cover the silent stretches.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        await writer.drain()

        async def one(slot: int, item: Any) -> "dict[str, Any]":
            try:
                buckets, cache = await self._pool.submit(
                    self._slot_runner(item)
                )
            except ReproError as exc:
                frame: "dict[str, Any]" = {"slot": slot}
                frame.update(error_envelope(exc))
                return frame
            return {
                "slot": slot,
                "buckets": shard_rows_to_wire(buckets),
                "cache": cache,
            }

        started = time.monotonic()
        pending = {
            asyncio.ensure_future(one(slot, item))
            for slot, item in enumerate(items)
        }
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending,
                    timeout=self.heartbeat_interval,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:
                    self._write_frame(
                        writer,
                        {"heartbeat": round(time.monotonic() - started, 3)},
                    )
                    await writer.drain()
                    continue
                for task in done:
                    self._write_frame(writer, task.result())
                await writer.drain()
            self._write_frame(writer, {"done": True})
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            for task in pending:  # pragma: no cover - client went away
                task.cancel()


async def _serve_async(
    server: AsyncServiceServer, *, banner_extras: str = ""
) -> None:
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def request_stop() -> None:
        stop.set()

    def request_drain() -> None:
        # SIGTERM: refuse new work immediately, stop once idle.
        server.drain()
        stop.set()

    try:
        import signal

        loop.add_signal_handler(signal.SIGINT, request_stop)
        loop.add_signal_handler(signal.SIGTERM, request_drain)
    except (NotImplementedError, RuntimeError):  # pragma: no cover
        pass
    print(
        f"repro service listening on {server.url} "
        f"(backend {server.service.backend.describe()}{banner_extras}; "
        f"async core); Ctrl-C to stop",
        flush=True,
    )
    try:
        await stop.wait()
    finally:
        await server.aclose()


def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 8350,
    backend: str = "fused",
    jobs: "int | None" = None,
    cache_dir: "str | os.PathLike[str] | None" = None,
    cache_max_bytes: "int | None" = None,
    max_pending: "int | None" = None,
    policy: "str | None" = None,
    quota_rps: "float | None" = None,
    quota_burst: "float | None" = None,
    verbose: bool = True,
) -> None:
    """Blocking entry point behind ``repro serve`` (the default core).

    ``SIGTERM`` drains gracefully — in-flight requests finish, profile
    state flushes — before the loop stops; ``Ctrl-C`` stops promptly
    (still closing the service cleanly).
    """
    server = AsyncServiceServer(
        host=host,
        port=port,
        backend=backend,
        jobs=jobs,
        cache_dir=cache_dir,
        cache_max_bytes=cache_max_bytes,
        max_pending=max_pending,
        policy=policy,
        quota_rps=quota_rps,
        quota_burst=quota_burst,
        verbose=verbose,
    )
    extras = ""
    if cache_dir is not None:
        extras += f", cache_dir={cache_dir}"
    if max_pending is not None:
        extras += f", max_pending={max_pending}"
    if policy is not None:
        extras += f", policy={policy}"
    if quota_rps is not None:
        extras += f", quota_rps={quota_rps:g}"
    try:
        asyncio.run(_serve_async(server, banner_extras=extras))
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass


class AsyncServiceClient:
    """Asyncio twin of :class:`~repro.service.http.ServiceClient`.

    >>> async with AsyncServiceClient(url) as client:      # doctest: +SKIP
    ...     result = await client.submit(request)

    One persistent keep-alive connection (asyncio streams), lazily
    opened, retried once when the server dropped it between requests —
    safe because every route is idempotent.  Server-side failures
    re-raise as their own types through the unified envelope, with the
    HTTP status on ``exc.http_status``.  ``client_id`` fills the
    ``X-Repro-Client`` quota header.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 60.0,
        connect_timeout: "float | None" = None,
        client_id: "str | None" = None,
        retry_after_cap: "float | None" = None,
    ) -> None:
        from urllib.parse import urlsplit

        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: Seconds to establish the TCP connection (default
        #: ``min(timeout, 5.0)``); ``timeout`` bounds each read.
        self.connect_timeout = (
            connect_timeout if connect_timeout is not None
            else min(timeout, 5.0)
        )
        #: With a cap set, one polite capped wait honors a 429/503
        #: ``Retry-After`` hint before the error reaches the caller.
        self.retry_after_cap = retry_after_cap
        self.client_id = client_id
        self.last_cache: "str | None" = None
        split = urlsplit(self.base_url)
        if split.scheme not in ("http", ""):
            raise ServiceError(
                f"unsupported service URL scheme {split.scheme!r}; expected http"
            )
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port or 80
        self._reader: "asyncio.StreamReader | None" = None
        self._writer: "asyncio.StreamWriter | None" = None
        self._closed = False

    # ------------------------------------------------------------------ #
    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Close the pooled connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        await self._drop_connection()

    async def _drop_connection(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _connection(
        self,
    ) -> "tuple[asyncio.StreamReader, asyncio.StreamWriter]":
        if self._closed:
            raise ServiceError("AsyncServiceClient is closed")
        if self._reader is None or self._writer is None:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self._host, self._port),
                timeout=self.connect_timeout,
            )
        return self._reader, self._writer

    def _head(self, method: str, path: str, body: "bytes | None") -> bytes:
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self._host}:{self._port}",
        ]
        if body is not None:
            lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body) if body else 0}")
        if self.client_id is not None:
            lines.append(f"{CLIENT_HEADER}: {self.client_id}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _open(
        self, path: str, body: "bytes | None"
    ) -> "tuple[int, dict[str, str], asyncio.StreamReader]":
        """Send one request, parse the status line + headers (retry once)."""
        method = "POST" if body is not None else "GET"
        payload = self._head(method, path, body) + (body or b"")
        last_exc: "Exception | None" = None
        for _attempt in range(2):
            try:
                reader, writer = await self._connection()
                writer.write(payload)
                await writer.drain()
                status_line = await asyncio.wait_for(
                    reader.readline(), timeout=self.timeout
                )
                if not status_line:
                    raise ConnectionResetError("server closed the connection")
                parts = status_line.decode("latin-1").split(" ", 2)
                status = int(parts[1])
                headers: "dict[str, str]" = {}
                while True:
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=self.timeout
                    )
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                return status, headers, reader
            except (OSError, ConnectionError, ValueError, IndexError) as exc:
                await self._drop_connection()
                last_exc = exc
        if isinstance(last_exc, (asyncio.TimeoutError, TimeoutError)):
            raise ShardTimeoutError(
                f"cannot reach service at {self.base_url}: timed out"
            ) from last_exc
        raise ShardTransportError(
            f"cannot reach service at {self.base_url}: {last_exc}"
        ) from last_exc

    async def _read_body(
        self, headers: "dict[str, str]", reader: asyncio.StreamReader
    ) -> bytes:
        if headers.get("transfer-encoding", "").lower() == "chunked":
            chunks = []
            while True:
                chunk = await self._read_chunk(reader)
                if chunk is None:
                    break
                chunks.append(chunk)
            return b"".join(chunks)
        length = int(headers.get("content-length") or 0)
        if length == 0:
            return b""
        return await asyncio.wait_for(
            reader.readexactly(length), timeout=self.timeout
        )

    async def _read_chunk(self, reader: asyncio.StreamReader) -> "bytes | None":
        """One chunked-transfer chunk; None on the terminal chunk."""
        size_line = await asyncio.wait_for(
            reader.readline(), timeout=self.timeout
        )
        size = int(size_line.strip() or b"0", 16)
        if size == 0:
            await asyncio.wait_for(reader.readline(), timeout=self.timeout)
            return None
        data = await asyncio.wait_for(
            reader.readexactly(size), timeout=self.timeout
        )
        await asyncio.wait_for(reader.readexactly(2), timeout=self.timeout)
        return data

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

    async def _request(
        self, path: str, body: "bytes | None" = None
    ) -> "tuple[str, dict[str, str]]":
        polite_waits = 0
        while True:
            status, headers, reader = await self._open(path, body)
            try:
                data = await self._read_body(headers, reader)
            except (
                OSError,
                ConnectionError,
                asyncio.IncompleteReadError,
            ) as exc:
                await self._drop_connection()
                if isinstance(exc, (asyncio.TimeoutError, TimeoutError)):
                    raise ShardTimeoutError(
                        f"read from {self.base_url} timed out after "
                        f"{self.timeout}s"
                    ) from exc
                raise ShardTransportError(
                    f"connection to {self.base_url} died mid-response: {exc}"
                ) from exc
            if headers.get("connection", "").lower() == "close":
                await self._drop_connection()
            if status >= 400:
                exc = self._error_for(status, data)
                hint = retry_after_of(exc)
                if (
                    status in (429, 503)
                    and hint is not None
                    and self.retry_after_cap is not None
                    and polite_waits < 1
                ):
                    polite_waits += 1
                    await asyncio.sleep(min(hint, self.retry_after_cap))
                    continue
                raise exc
            return data.decode("utf-8"), headers

    # ------------------------------------------------------------------ #
    async def submit(self, request: JobRequest) -> JobResult:
        """Submit one job; ``self.last_cache`` records the cache level."""
        body, headers = await self._request(
            "/v1/jobs", request.to_json().encode("utf-8")
        )
        self.last_cache = headers.get("x-repro-cache")
        return JobResult.from_json(body)

    async def submit_edit(self, request: "EditRequest") -> JobResult:
        """Submit an edit of a known job (``POST /v1/jobs:edit``)."""
        body, headers = await self._request(
            "/v1/jobs:edit", request.to_json().encode("utf-8")
        )
        self.last_cache = headers.get("x-repro-cache")
        return JobResult.from_json(body)

    async def submit_many(
        self, requests: "list[JobRequest]"
    ) -> "list[JobResult]":
        """Submit a batch (service-side dedup applies)."""
        payload = json.dumps({"jobs": [r.to_dict() for r in requests]})
        body, _ = await self._request(
            "/v1/jobs:batch", payload.encode("utf-8")
        )
        return [
            JobResult.from_dict(r) for r in json.loads(body)["results"]
        ]

    async def classify_shard(self, task: "ShardTask") -> "list[tuple]":
        """Run one shard task remotely (``POST /v1/catalog:shard``)."""
        body, headers = await self._request(
            "/v1/catalog:shard", task.to_json().encode("utf-8")
        )
        self.last_cache = headers.get("x-repro-cache")
        parsed = json.loads(body)
        if not isinstance(parsed, dict) or not isinstance(
            parsed.get("buckets"), list
        ):
            raise ServiceError(
                "malformed shard response: expected an object with a "
                "'buckets' list"
            )
        return shard_rows_from_wire(parsed["buckets"])

    async def classify_shard_many(
        self, tasks: "list[ShardTask]"
    ) -> "list[tuple[list[tuple], str | None] | ReproError]":
        """Run a claimed batch in one trip; errors stay slot-local."""
        payload = json.dumps({"tasks": [t.to_dict() for t in tasks]})
        body, _ = await self._request(
            "/v1/catalog:shard", payload.encode("utf-8")
        )
        parsed = json.loads(body)
        if not isinstance(parsed, dict) or not isinstance(
            parsed.get("results"), list
        ):
            raise ServiceError(
                "malformed batched shard response: expected an object "
                "with a 'results' list"
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
                    error_from_envelope(item, default_message="shard task failed")
                )
                continue
            if not isinstance(item.get("buckets"), list):
                raise ServiceError(
                    "malformed batched shard response: result needs a "
                    "'buckets' list or an 'error'"
                )
            out.append(
                (shard_rows_from_wire(item["buckets"]), item.get("cache"))
            )
        return out

    async def classify_shard_stream(
        self, tasks: "list[ShardTask]", *, idle_timeout: "float | None" = None
    ) -> "AsyncIterator[tuple[int, list[tuple] | ReproError, str | None]]":
        """Stream a claimed batch; yields frames in completion order.

        Async-generator mirror of the sync client's
        ``classify_shard_stream``: ``(slot, rows_or_error, cache)`` per
        frame; heartbeats consumed silently unless ``idle_timeout``
        seconds pass without a slot frame
        (:class:`~repro.exceptions.ShardTimeoutError`); truncation —
        no terminal ``{"done": true}`` — raises
        :class:`~repro.exceptions.ShardTransportError`, a retryable
        transport failure, never a short result.
        """
        payload = json.dumps({"tasks": [t.to_dict() for t in tasks]})
        status, headers, reader = await self._open(
            "/v1/catalog:shard:stream", payload.encode("utf-8")
        )
        if status >= 400:
            try:
                data = await self._read_body(headers, reader)
            except (OSError, ConnectionError, asyncio.IncompleteReadError):
                data = b""
                await self._drop_connection()
            raise self._error_for(status, data)
        done = False
        buffer = b""
        last_progress = time.monotonic()
        try:
            while True:
                try:
                    chunk = await self._read_chunk(reader)
                except (
                    OSError,
                    ConnectionError,
                    asyncio.IncompleteReadError,
                ) as exc:
                    if isinstance(exc, (asyncio.TimeoutError, TimeoutError)):
                        raise ShardTimeoutError(
                            f"shard stream from {self.base_url} timed out "
                            f"after {self.timeout}s without a frame"
                        ) from exc
                    raise ShardTransportError(
                        f"shard stream from {self.base_url} died: {exc}"
                    ) from exc
                if chunk is None:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
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
                                f"shard stream from {self.base_url} "
                                f"stalled: heartbeats but no slot frame "
                                f"for {idle_timeout}s"
                            )
                        continue
                    if frame.get("done"):
                        done = True
                        continue
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
                    yield slot, shard_rows_from_wire(
                        frame["buckets"]
                    ), frame.get("cache")
            if not done:
                raise ShardTransportError(
                    "shard stream ended without a terminal frame"
                )
        finally:
            if not done:
                await self._drop_connection()

    async def clear_caches(self) -> None:
        """Drop every server-side cache level (``POST /v1/caches:clear``)."""
        await self._request("/v1/caches:clear", b"{}")

    async def drain(self) -> "dict[str, Any]":
        """Start a graceful drain (``POST /v1/admin:drain``)."""
        body, _ = await self._request("/v1/admin:drain", b"{}")
        return json.loads(body)

    async def health(self) -> "dict[str, Any]":
        body, _ = await self._request("/healthz")
        return json.loads(body)

    async def stats(self) -> "dict[str, Any]":
        body, _ = await self._request("/stats")
        return json.loads(body)

    async def workloads(self) -> "list[str]":
        body, _ = await self._request("/workloads")
        return json.loads(body)["workloads"]
