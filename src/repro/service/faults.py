"""Deterministic fault injection for the shard fleet.

Testing recovery paths against a *real* flaky network is flaky by
definition; this module makes the network's misbehaviour a seeded input
instead.  A :class:`ChaosProxy` sits between a
:class:`~repro.service.http.ServiceClient` and a live ``repro serve``
instance as an ordinary TCP proxy, and mis-handles each accepted
connection according to the next :class:`FaultSpec` popped from a
:class:`FaultPlan`:

.. code-block:: text

    ServiceClient ──TCP──> ChaosProxy ──TCP──> AsyncServiceServer
                              │
                        FaultPlan (seeded):
                        [refuse, corrupt@2, pass, disconnect@1, ...]

Because the client opens a fresh connection after every transport
failure (the pooled keep-alive connection is dropped on error), each
retry or failover consumes exactly the next spec in the plan — so a
seeded plan replays the same fault sequence against the same request
pattern run after run, and the property tests can pin *bit-identical
catalogs under arbitrary fault sequences* rather than "it usually
works".

Injectable faults (:class:`FaultSpec.kind`):

``pass``
    Forward transparently (the control arm).
``refuse``
    Close the accepted connection immediately — a connection refusal /
    reset as the client sees it.
``disconnect``
    Forward until ``after_frames`` slot frames of the NDJSON shard
    stream have passed, then kill both directions mid-stream (the
    classic truncated stream: no terminal ``{"done": true}`` frame).
``corrupt``
    Forward ``after_frames`` slot frames, then inject a garbage chunk
    that is valid chunked-transfer framing but not JSON, and close.
``heartbeat_stall``
    Never contact the upstream: answer the request with a valid chunked
    NDJSON response that emits only heartbeat frames — the connection is
    provably alive while the work provably is not, which must trip the
    client's ``stream_idle_timeout``, not its read timeout.
``latency``
    Hold the accepted connection for ``latency_s`` seconds before
    forwarding transparently.
``error_500`` / ``error_503``
    Never contact the upstream: answer with a canned HTTP 500 ("shard
    exploded") or 503 + ``Retry-After`` envelope and close.

Everything here is test/bench infrastructure: importing it never starts
threads, and a proxy only listens on ``127.0.0.1``.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Sequence
from urllib.parse import urlsplit

from repro.exceptions import ServiceError

__all__ = ["FaultSpec", "FaultPlan", "ChaosProxy", "FAULT_KINDS"]

#: Every injectable fault kind, in a stable documented order.
FAULT_KINDS = (
    "pass",
    "refuse",
    "disconnect",
    "corrupt",
    "heartbeat_stall",
    "latency",
    "error_500",
    "error_503",
)

#: Kinds that surface to the client as a fault (``pass`` and pure
#: ``latency`` both let the request succeed).
FAULTY_KINDS = frozenset(FAULT_KINDS) - {"pass", "latency"}

_FRAME_NEEDLE = b'"slot"'


def _hard_close(sock: socket.socket) -> None:
    """Close ``sock`` so the peer sees EOF *now*.

    A plain ``close()`` only decrements the kernel's reference on the
    connection; a pump thread still blocked in ``recv()`` on the same
    socket keeps it alive, and no FIN goes out until that thread wakes
    (i.e. until the peer times out — exactly the stall fault injection
    must not introduce).  ``shutdown(SHUT_RDWR)`` sends the FIN
    immediately and unblocks any concurrent ``recv``.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:  # pragma: no cover - already dead
        pass


@dataclass(frozen=True)
class FaultSpec:
    """How to mis-handle one accepted proxy connection.

    ``after_frames`` delays ``disconnect``/``corrupt`` until that many
    slot frames of the response stream have been forwarded — ``0``
    strikes before the first result lands, higher values carve the
    stream mid-flight so the retry path must resume, not restart.
    ``latency_s`` only applies to ``kind="latency"``.
    """

    kind: str
    after_frames: int = 0
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ServiceError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(FAULT_KINDS)}"
            )
        if not isinstance(self.after_frames, int) or self.after_frames < 0:
            raise ServiceError(
                f"after_frames must be an int ≥ 0, got {self.after_frames!r}"
            )
        if self.latency_s < 0:
            raise ServiceError(
                f"latency_s must be ≥ 0, got {self.latency_s!r}"
            )

    @property
    def is_fault(self) -> bool:
        return self.kind in FAULTY_KINDS

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "after_frames": self.after_frames,
            "latency_s": self.latency_s,
        }


class FaultPlan:
    """A finite, replayable schedule of faults, one per connection.

    Specs are consumed strictly in order (thread-safe); once the plan is
    exhausted every further connection passes through cleanly, so a plan
    bounds the total damage and a run always terminates.  The consumed
    prefix is recorded for asserting coordinator stats against exactly
    what was injected.
    """

    def __init__(self, specs: "Iterable[FaultSpec | str]" = ()) -> None:
        self.specs: list[FaultSpec] = [
            spec if isinstance(spec, FaultSpec) else FaultSpec(spec)
            for spec in specs
        ]
        self._lock = threading.Lock()
        self._cursor = 0
        #: Specs actually consumed by connections, in consumption order.
        self.injected: list[FaultSpec] = []

    @classmethod
    def from_seed(
        cls,
        seed: int,
        n: int,
        *,
        kinds: "Sequence[str] | None" = None,
        max_after_frames: int = 3,
    ) -> "FaultPlan":
        """A pseudo-random plan derived *entirely* from ``seed``.

        The default kind pool covers every fast-failing fault (stalls
        and latency need wall-clock to trip, so property tests opt into
        them explicitly); the same seed always yields the same plan.
        """
        pool = tuple(kinds) if kinds is not None else (
            "pass",
            "refuse",
            "disconnect",
            "corrupt",
            "error_500",
            "error_503",
        )
        rng = random.Random(seed)
        return cls(
            FaultSpec(
                kind=rng.choice(pool),
                after_frames=rng.randint(0, max_after_frames),
            )
            for _ in range(n)
        )

    # ------------------------------------------------------------------ #
    def next_spec(self) -> FaultSpec:
        """Pop the next spec (a clean ``pass`` once exhausted)."""
        with self._lock:
            if self._cursor >= len(self.specs):
                return FaultSpec("pass")
            spec = self.specs[self._cursor]
            self._cursor += 1
            self.injected.append(spec)
            return spec

    @property
    def exhausted(self) -> bool:
        with self._lock:
            return self._cursor >= len(self.specs)

    def faults_injected(self) -> int:
        """Consumed specs that actually faulted the connection."""
        with self._lock:
            return sum(1 for spec in self.injected if spec.is_fault)

    def counts(self) -> "Counter[str]":
        """Consumed specs by kind."""
        with self._lock:
            return Counter(spec.kind for spec in self.injected)

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "specs": [spec.to_dict() for spec in self.specs],
                "consumed": self._cursor,
                "faults_injected": sum(
                    1 for spec in self.injected if spec.is_fault
                ),
            }


class ChaosProxy:
    """An in-process TCP proxy that injects one fault per connection.

    Parameters
    ----------
    upstream:
        Base URL (or ``host:port`` string) of the real service instance.
    plan:
        The :class:`FaultPlan` consumed one spec per accepted
        connection.
    heartbeat_interval:
        Cadence of the fake heartbeat frames emitted for
        ``heartbeat_stall`` connections.

    Use as a context manager (or call :meth:`start` / :meth:`close`);
    point a :class:`~repro.service.http.ServiceClient`, a
    :class:`~repro.service.shard.RemoteShard` or a whole coordinator at
    :attr:`url` instead of the upstream.
    """

    def __init__(
        self,
        upstream: str,
        plan: FaultPlan,
        *,
        heartbeat_interval: float = 0.05,
    ) -> None:
        split = urlsplit(upstream if "//" in upstream else f"//{upstream}")
        self.upstream_host = split.hostname or "127.0.0.1"
        self.upstream_port = split.port
        if self.upstream_port is None:
            raise ServiceError(
                f"chaos proxy upstream needs an explicit port, "
                f"got {upstream!r}"
            )
        self.plan = plan
        self.heartbeat_interval = heartbeat_interval
        self._server: "socket.socket | None" = None
        self._accept_thread: "threading.Thread | None" = None
        self._workers: list[threading.Thread] = []
        self._open_socks: list[socket.socket] = []
        self._lock = threading.Lock()
        self._closed = False
        self.port: "int | None" = None
        #: Connections accepted so far (faulted or clean).
        self.connections = 0

    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        if self.port is None:
            raise ServiceError("chaos proxy is not started")
        return f"http://127.0.0.1:{self.port}"

    def start(self) -> "ChaosProxy":
        if self._server is not None:
            return self
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        server.listen(32)
        self._server = server
        self.port = server.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            server, self._server = self._server, None
            socks, self._open_socks = self._open_socks, []
        if server is not None:
            try:
                server.close()
            except OSError:  # pragma: no cover - already dead
                pass
        for sock in socks:
            _hard_close(sock)
        for worker in self._workers:
            worker.join(timeout=2.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _track(self, sock: socket.socket) -> None:
        with self._lock:
            if self._closed:
                sock.close()
            else:
                self._open_socks.append(sock)

    def _accept_loop(self) -> None:
        server = self._server
        while server is not None:
            try:
                client, _addr = server.accept()
            except OSError:
                return  # closed
            self._track(client)
            with self._lock:
                if self._closed:
                    return
                self.connections += 1
                spec = self.plan.next_spec()
                worker = threading.Thread(
                    target=self._handle,
                    args=(client, spec),
                    daemon=True,
                )
                self._workers.append(worker)
            worker.start()

    # ------------------------------------------------------------------ #
    def _handle(self, client: socket.socket, spec: FaultSpec) -> None:
        try:
            if spec.kind == "refuse":
                client.close()
                return
            if spec.kind == "latency":
                time.sleep(spec.latency_s)
                self._tunnel(client, spec=None)
                return
            if spec.kind in ("error_500", "error_503"):
                self._canned_error(client, spec.kind)
                return
            if spec.kind == "heartbeat_stall":
                self._heartbeat_stall(client)
                return
            # pass / disconnect / corrupt all forward to the upstream;
            # the latter two sabotage the response after `after_frames`
            # slot frames.
            self._tunnel(client, spec=spec if spec.is_fault else None)
        except OSError:
            pass  # sockets racing with close(); the client sees a reset
        finally:
            _hard_close(client)

    def _read_request(self, client: socket.socket) -> bytes:
        """Read until the request's header/body boundary (best effort).

        Canned-response faults never contact the upstream, but the
        client must get its request bytes off its socket first or the
        reset races the response.
        """
        client.settimeout(5.0)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = client.recv(65536)
            if not chunk:
                return data
            data += chunk
        return data

    def _canned_error(self, client: socket.socket, kind: str) -> None:
        self._read_request(client)
        if kind == "error_500":
            status = "500 Internal Server Error"
            body = (
                b'{"error": {"type": "ServiceError", '
                b'"message": "injected fault: shard exploded"}}'
            )
            extra = b""
        else:
            status = "503 Service Unavailable"
            body = (
                b'{"error": {"type": "ServiceUnavailableError", '
                b'"message": "injected fault: shard draining"}}'
            )
            extra = b"Retry-After: 0\r\n"
        client.sendall(
            b"HTTP/1.1 " + status.encode() + b"\r\n"
            b"Content-Type: application/json\r\n" + extra +
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"Connection: close\r\n\r\n" + body
        )

    def _heartbeat_stall(self, client: socket.socket) -> None:
        self._read_request(client)
        client.sendall(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        beat = 0
        while True:
            with self._lock:
                if self._closed:
                    return
            frame = ('{"heartbeat": %d}\n' % beat).encode()
            chunk = hex(len(frame))[2:].encode() + b"\r\n" + frame + b"\r\n"
            client.sendall(chunk)  # raises once the client hangs up
            beat += 1
            time.sleep(self.heartbeat_interval)

    def _tunnel(
        self, client: socket.socket, *, spec: "FaultSpec | None"
    ) -> None:
        """Forward both directions; sabotage per ``spec`` if given."""
        upstream = socket.create_connection(
            (self.upstream_host, self.upstream_port), timeout=10.0
        )
        self._track(upstream)
        killed = threading.Event()

        def pump_request() -> None:
            try:
                while not killed.is_set():
                    data = client.recv(65536)
                    if not data:
                        break
                    upstream.sendall(data)
            except OSError:
                pass
            finally:
                try:
                    upstream.shutdown(socket.SHUT_WR)
                except OSError:
                    pass

        requester = threading.Thread(target=pump_request, daemon=True)
        requester.start()

        def sabotage() -> None:
            if spec is not None and spec.kind == "corrupt":
                # Valid chunked framing, invalid JSON — the client's
                # frame parser, not its socket layer, must reject it.
                garbage = b"this is definitely not json\n"
                try:
                    client.sendall(
                        hex(len(garbage))[2:].encode()
                        + b"\r\n" + garbage + b"\r\n"
                    )
                except OSError:  # pragma: no cover - client already gone
                    pass

        frames = 0
        try:
            while True:
                data = upstream.recv(65536)
                if not data:
                    break
                if spec is not None:
                    if spec.after_frames == 0:
                        # Strike before any response byte reaches the
                        # client (works on every route, streamed or
                        # not).
                        sabotage()
                        return
                    seen = data.count(_FRAME_NEEDLE)
                    if frames + seen > spec.after_frames:
                        # The fatal frame starts inside this block:
                        # forward everything up to it, then strike
                        # mid-stream.
                        offset = -1
                        for _ in range(spec.after_frames - frames + 1):
                            offset = data.index(_FRAME_NEEDLE, offset + 1)
                        client.sendall(data[:offset])
                        sabotage()
                        return
                    frames += seen
                client.sendall(data)
        except OSError:
            pass
        finally:
            killed.set()
            _hard_close(upstream)
