"""The asyncio service core: ``repro serve``'s front-end.

Serves the ``/v1`` wire protocol (the route table is in
:mod:`repro.service.http`, which also holds the :class:`ServiceClient`;
``docs/WIRE_PROTOCOL.md`` is normative) on ``asyncio.start_server``, in
the spirit of Uberun's master↔daemon link: many long-lived keep-alive
connections multiplexed onto one event loop, compute pushed off-loop so
the reactor never blocks behind a DFS.

**Warm hits on the loop, compute on a priority pool.**  A ``/v1/jobs``
request whose result sits in the service's in-memory result cache with
its encoding memoised (:meth:`SchedulerService.probe_result` returns it)
is answered from the event loop: its body is those memoised bytes, and
no pool thread is involved.  The loop probes only workload-named
requests, whose graph digest is memoised; a request carrying an inline
graph parses, hashes and probes as one high-priority pool task, so a
large graph never stalls the other connections.  Everything else is
compute and runs on a small thread pool fed by a priority queue.
Interactive edits (``/v1/jobs:edit``) and the warm submissions the loop
did not answer (disk-only hits, hits not yet encoded, requests naming a
``backend``) jump ahead of cold catalog builds, so a long cold build
cannot starve the traffic that would have returned in microseconds.
FIFO order is preserved within a priority class.

**Per-client quotas.**  A token bucket per client — keyed by the
``X-Repro-Client`` header, else the peer address — meters *work*
routes (reads are free).  An empty bucket answers 429 with the
bucket's own refill time as ``retry_after``, layered *in front of* the
service's global ``max_pending`` admission bound: one greedy client
exhausts its bucket, not the server.

**Graceful drain.**  ``POST /v1/admin:drain`` — or ``SIGTERM`` under
:func:`serve` — stops accepting new work (503 envelopes with a retry
hint) and lets every in-flight request finish.  Reads keep answering
during the drain so load balancers can watch ``/healthz`` flip to
``draining``.

**Server-push shard streaming with heartbeats.**  The
``/v1/catalog:shard:stream`` route takes one shard claim, probes each
claimed seed range against the partial cache and classifies the misses
in one pass on the priority pool, then emits one NDJSON frame per range.
While the claim classifies, a ``{"heartbeat": ...}`` frame goes out
every ``heartbeat_interval`` seconds so the coordinator's long-lived
connection is provably alive, not silently wedged.  Slot indices map
frames to ranges; merged catalogs stay bit-identical to an in-process
build.

**Request framing.**  A request head longer than
:data:`MAX_HEAD_BYTES`, or a ``Content-Length`` that is not a non-negative
integer or exceeds :data:`MAX_BODY_BYTES`, is answered with a 400
:class:`~repro.exceptions.JobValidationError` envelope and
``Connection: close`` — the connection cannot be parsed past it.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import queue
import threading
import time
from typing import Any, Callable

from repro.exceptions import (
    JobValidationError,
    ReproError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.service.errors import error_envelope, http_status, retry_after_of
from repro.service.http import CLIENT_HEADER, shard_rows_to_wire
from repro.service.jobs import EditRequest, JobRequest, results_json
from repro.service.service import SchedulerService, SubmitOutcome
from repro.service.shard import ShardTask

__all__ = ["AsyncServiceServer", "serve"]

#: Maximum accepted request body (64 MiB) — a guard, not a quota.
MAX_BODY_BYTES = 64 << 20

#: Maximum request head (request line + headers); the stream reader's limit.
MAX_HEAD_BYTES = 64 << 10

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
        "/v1/catalog:shard:stream",
    }
)


def _retry_after_header(exc: BaseException) -> "dict[str, str]":
    """``Retry-After`` header for errors that carry a back-off hint."""
    hint = retry_after_of(exc)
    if hint is None:
        return {}
    return {
        "Retry-After": str(int(hint)) if float(hint).is_integer() else str(hint)
    }


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


def _answer_inline(
    service: SchedulerService, body: bytes
) -> "tuple[JobRequest, tuple[str, str] | None]":
    """Parse an inline-graph job and answer it if it is warm (pool side).

    Returns the request and its ``(cache level, body)``, or ``None`` in
    place of the answer when the probe calls it cold.
    """
    request = JobRequest.from_json(body.decode("utf-8"))
    warm, hit = service.probe_result(request)
    if hit is not None:
        return request, ("result", hit.to_json())
    if warm:
        return request, _encoded(service.submit_outcome(request))
    return request, None


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

    Parameters
    ----------
    service:
        The resident service; constructed from ``backend``/``jobs``/
        ``cache_dir``/``cache_max_bytes``/``max_pending`` when omitted
        (overload maps to HTTP 429; a request's ``backend`` field still
        wins over ``backend``).
    host / port:
        Bind address; port 0 picks a free port (see :attr:`port`).
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
        quota_rps: "float | None" = None,
        quota_burst: "float | None" = None,
        workers: int = 4,
        heartbeat_interval: float = 10.0,
    ) -> None:
        if service is None:
            service = SchedulerService(
                backend=backend,
                jobs=jobs,
                cache_dir=cache_dir,
                cache_max_bytes=cache_max_bytes,
                max_pending=max_pending,
            )
        self.service = service
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
            self._handle_connection,
            self._host,
            self._requested_port,
            limit=MAX_HEAD_BYTES,
        )

    def drain(self) -> None:
        """Stop accepting new work.

        In-flight requests finish normally; every later submission gets
        a 503 envelope with a retry hint.
        """
        self.draining = True

    async def drain_and_wait(self) -> None:
        """:meth:`drain`, then wait for in-flight work to finish."""
        self.drain()
        assert self._idle is not None
        if self._inflight:
            self._idle.clear()
        await self._idle.wait()

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
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-request; nothing to answer
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
        except asyncio.LimitOverrunError:
            await self._reject(
                writer, f"request head exceeds the {MAX_HEAD_BYTES}-byte limit"
            )
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) < 3:
            await self._reject(writer, f"malformed request line {lines[0]!r}")
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
            await self._reject(writer, "Content-Length header is not an integer")
            return None
        if length < 0:
            await self._reject(writer, f"Content-Length {length} is negative")
            return None
        if length > MAX_BODY_BYTES:
            # Reject without reading 64 MiB+, and drop the connection
            # since the body bytes would poison the next request's parse.
            await self._reject(
                writer,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
            return None
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _reject(self, writer: asyncio.StreamWriter, message: str) -> None:
        """400 for a request that cannot be framed; the connection closes."""
        await self._send_json(
            writer, 400, error_envelope(JobValidationError(message)), close=True
        )

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
            cache, text = await self._submit_job(body)
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
        elif path == "/v1/catalog:shard:stream":
            try:
                payload = json.loads(body.decode("utf-8"))
            except json.JSONDecodeError as exc:
                raise JobValidationError(
                    f"invalid shard stream JSON: {exc}"
                ) from exc
            # Decoding an inline graph is real work: off the loop.
            task = await self._pool.submit(lambda: ShardTask.from_dict(payload))
            await self._stream_shard(writer, task)
            return True
        elif path == "/v1/caches:clear":
            await self._pool.submit(service.clear_caches)
            await self._send_json(writer, 200, {"cleared": True})
        elif path == "/v1/admin:drain":
            self.drain()
            await self._send_json(writer, 200, {"draining": True})
        else:
            await self._send_json(
                writer,
                404,
                {"error": {"type": "NotFound", "message": f"no route {path!r}"}},
            )
        return False

    async def _submit_job(self, body: bytes) -> "tuple[str, str]":
        """``(cache level, response body)`` for one ``/v1/jobs`` request.

        A workload-named request is parsed and probed here on the loop
        (a small body; its graph digest is memoised), and a memory-front
        result hit is answered with its memoised encoding without a pool
        hop.  A request carrying an inline graph does its parse, hash and
        probe as one high-priority pool task, which also answers a warm
        one; only a cold miss re-enters the queue at normal priority.
        Everything else the probe declines (a disk-only hit, a hit not yet
        encoded, a request naming a ``backend``) runs
        :meth:`SchedulerService.submit_outcome` on the pool at high
        priority, a miss or a contended lock at normal priority.
        """
        service = self.service
        if b'"dfg"' in body:
            request, answer = await self._pool.submit(
                lambda: _answer_inline(service, body), priority=PRIORITY_HIGH
            )
            if answer is not None:
                return answer
            priority = PRIORITY_NORMAL
        else:
            request = JobRequest.from_json(body.decode("utf-8"))
            warm, hit = service.probe_result(request)
            if hit is not None:
                return "result", hit.to_json()
            priority = PRIORITY_HIGH if warm else PRIORITY_NORMAL
        return await self._pool.submit(
            lambda: _encoded(service.submit_outcome(request)),
            priority=priority,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _write_frame(writer: asyncio.StreamWriter, frame: "dict[str, Any]") -> None:
        data = json.dumps(frame).encode("utf-8") + b"\n"
        writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")

    async def _stream_shard(
        self, writer: asyncio.StreamWriter, task: "ShardTask"
    ) -> None:
        """Chunked NDJSON: heartbeats while the claim classifies, then one
        frame per claimed range, in slot order.

        The whole claim is one pool job
        (:meth:`SchedulerService.classify_shard_outcome`: one probe per
        range, one classify call for the misses); a typed failure of the
        call itself (an unknown workload, a seed past the graph) answers
        in every slot.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        await writer.drain()
        service = self.service
        future = self._pool.submit(lambda: service.classify_shard_outcome(task))
        started = time.monotonic()
        try:
            while not future.done():
                await asyncio.wait({future}, timeout=self.heartbeat_interval)
                if not future.done():
                    self._write_frame(
                        writer,
                        {"heartbeat": round(time.monotonic() - started, 3)},
                    )
                    await writer.drain()
            try:
                outcomes = future.result()
            except ReproError as exc:
                outcomes = [(exc, None)] * len(task.ranges)
            for slot, (payload, cache) in enumerate(outcomes):
                frame: "dict[str, Any]" = {"slot": slot}
                if isinstance(payload, BaseException):
                    frame.update(error_envelope(payload))
                else:
                    frame["buckets"] = shard_rows_to_wire(payload)
                    frame["cache"] = cache
                self._write_frame(writer, frame)
            self._write_frame(writer, {"done": True})
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            if not future.done():  # pragma: no cover - client went away
                future.cancel()


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
        f"(backend {server.service.backend.describe()}{banner_extras}); "
        f"Ctrl-C to stop",
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
    quota_rps: "float | None" = None,
    quota_burst: "float | None" = None,
) -> None:
    """Blocking entry point behind ``repro serve``.

    ``SIGTERM`` drains gracefully — in-flight requests finish — before
    the loop stops; ``Ctrl-C`` stops promptly (still closing the service
    cleanly).
    """
    server = AsyncServiceServer(
        host=host,
        port=port,
        backend=backend,
        jobs=jobs,
        cache_dir=cache_dir,
        cache_max_bytes=cache_max_bytes,
        max_pending=max_pending,
        quota_rps=quota_rps,
        quota_burst=quota_burst,
    )
    extras = ""
    if cache_dir is not None:
        extras += f", cache_dir={cache_dir}"
    if max_pending is not None:
        extras += f", max_pending={max_pending}"
    if quota_rps is not None:
        extras += f", quota_rps={quota_rps:g}"
    try:
        asyncio.run(_serve_async(server, banner_extras=extras))
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
