"""Asyncio service core tests.

The contract under test: the asyncio core (:mod:`repro.service.aio`)
speaks the ``/v1`` wire protocol to the :class:`ServiceClient` and
offers:

* per-client token-bucket quotas → HTTP 429 with a ``Retry-After``
  hint, scoped to the offending client while other clients proceed;
* graceful drain: in-flight work finishes, new work answers 503 with a
  retry hint, reads keep serving;
* warm hits: a memory-front result hit is answered on the event loop
  while every pool worker is parked, disk-only hits and inline-graph
  requests go through the pool, and either way the header, body bytes,
  stats, admission and unknown-field checks match; an inline graph's
  parse never delays ``/healthz``;
* server-push shard streaming with heartbeats on silent stretches,
  frame for frame equal to in-process classification and bit-identical
  to a fused build under jittered latencies (hypothesis-pinned).
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import http.client
import json
import os
import random
import socket
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SelectionConfig
from repro.core.selection import PatternSelector
from repro.exceptions import (
    EnumerationLimitError,
    JobValidationError,
    SelectionError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.service import (
    AsyncServiceServer,
    JobRequest,
    SchedulerService,
    ServiceClient,
    ShardCoordinator,
    ShardTask,
)
from repro.dfg.edit import DfgEdit
from repro.service import http as http_module
from repro.service.http import CLIENT_HEADER
from repro.service.jobs import EditRequest
from repro.service.serialize import catalog_to_dict
from repro.service.shard import RemoteShard
from repro.workloads import three_point_dft_paper
from repro.workloads.synthetic import layered_dag

CFG = SelectionConfig(span_limit=1)


def _job(**overrides) -> JobRequest:
    params = {"capacity": 5, "pdef": 4, "workload": "3dft"}
    params.update(overrides)
    return JobRequest(**params)


def catalog_bits(catalog) -> str:
    return json.dumps(catalog_to_dict(catalog))


def _post_job(server, body: str) -> "tuple[int, dict]":
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request(
            "POST",
            "/v1/jobs",
            body=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@pytest.fixture()
def server():
    server = AsyncServiceServer(port=0)
    server.start_background()
    yield server
    server.shutdown()


# --------------------------------------------------------------------------- #
# the wire protocol
# --------------------------------------------------------------------------- #
class TestAsyncCoreRoundTrip:
    def test_sync_client_round_trip(self, server):
        with ServiceClient(server.url, timeout=30) as client:
            assert client.health()["status"] == "ok"
            assert "3dft" in client.workloads()
            cold = client.submit(_job())
            assert client.last_cache == "none"
            cold.schedule.verify()
            warm = client.submit(_job())
            assert client.last_cache == "result"
            # The repeat revalidated: the client holds the cold answer,
            # and a header-less POST still ships the cold bytes.
            assert warm is cold
            assert _post(server, _job().to_json().encode()) == (
                200, "result", cold.to_json().encode()
            )
            stats = client.stats()["stats"]
            assert (stats["result_hits"], stats["not_modified"]) == (2, 1)

    def test_keep_alive_reuses_one_connection(self, server):
        with ServiceClient(server.url, timeout=30) as client:
            client.submit(_job())
            client.health()
            client.stats()
            # Three requests from one thread share one pooled connection.
            assert len(client._conns) == 1

    def test_validation_error_reraises_typed(self, server):
        # An unknown workload passes client-side construction but the
        # server rejects it — the envelope must re-raise typed with the
        # HTTP status attached.
        with ServiceClient(server.url, timeout=30) as client:
            with pytest.raises(JobValidationError) as exc:
                client.submit(_job(workload="no-such-workload"))
            assert exc.value.http_status == 400

    def test_doomed_job_fails_fast_with_the_same_envelope(self, server):
        # fft16 cannot fit 100k antichains at any span; the level-width
        # pre-flight rejects it before a single partition is classified.
        request = _job(
            workload="fft16", config=SelectionConfig(max_antichains=100_000)
        )
        message = (
            "pattern generation for 'fft16' exceeds 100000 antichains even "
            "at span 0; lower SelectionConfig.max_pattern_size (currently 5) "
            "to tame the C(width, size) growth"
        )
        status, envelope = _post_job(server, request.to_json())
        assert status == 422
        assert envelope == {
            "error": {"type": "SelectionError", "message": message}
        }
        with ServiceClient(server.url, timeout=30) as client:
            with pytest.raises(SelectionError) as exc:
                client.submit(request)
        assert str(exc.value) == message
        assert exc.value.http_status == 422
        assert server.service.stats.partition_misses == 0

    def test_invalid_antichain_cap_is_a_400(self, server):
        payload = json.loads(_job().to_json())
        payload["config"]["max_antichains"] = -5
        status, envelope = _post_job(server, json.dumps(payload))
        assert status == 400
        assert envelope == {
            "error": {
                "type": "JobValidationError",
                "message": "invalid config: max_antichains must be ≥ 1 or "
                "None; got -5",
                "field": "config",
            }
        }

    def test_close_is_idempotent_and_terminal(self, server):
        client = ServiceClient(server.url, timeout=30)
        client.health()
        client.close()
        client.close()
        with pytest.raises(ServiceError, match="closed"):
            client.health()


# --------------------------------------------------------------------------- #
# warm bodies are the first encoding, byte for byte
# --------------------------------------------------------------------------- #
class TestWarmBodies:
    def test_warm_bodies_match_the_cold_one(self, server):
        body = _job().to_json().encode("utf-8")

        def post_many(count, replies):
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                for _ in range(count):
                    conn.request(
                        "POST",
                        "/v1/jobs",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    resp = conn.getresponse()
                    assert resp.status == 200
                    replies.append(
                        (resp.getheader("X-Repro-Cache"), resp.read())
                    )
            finally:
                conn.close()

        replies = []
        post_many(3, replies)
        caches = [cache for cache, _ in replies]
        assert caches == ["none", "result", "result"]
        cold, warm, again = (raw for _, raw in replies)
        assert warm == again == cold
        # Four keep-alive clients at once: every request is answered,
        # from the result cache, with the cold bytes.
        per_client = [[] for _ in range(4)]
        workers = [
            threading.Thread(target=post_many, args=(10, mine))
            for mine in per_client
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        concurrent = [reply for mine in per_client for reply in mine]
        assert concurrent == [("result", cold)] * 40


# --------------------------------------------------------------------------- #
# the warm path: memory-front hits on the loop, the rest on the pool
# --------------------------------------------------------------------------- #
#: The same warm job in the forms that take each path: a workload-named
#: request is answered on the event loop; the inline graph goes through
#: the pool.
WARM_FORMS = {
    "loop": lambda: _job(),
    "pool-inline-graph": lambda: _job(workload=None, dfg=three_point_dft_paper()),
}


def _naming_backend(request: JobRequest, name: str) -> bytes:
    """``request``'s wire body with the removed ``backend`` field added."""
    payload = request.to_dict()
    payload["backend"] = name
    return json.dumps(payload).encode()


def _post_tagged(
    server, body: bytes, etag: "str | None" = None, timeout: float = 30
):
    """``(status, ETag, X-Repro-Cache, raw body)`` of one ``/v1/jobs``
    POST, sent with ``If-None-Match: etag`` when a tag is given."""
    headers = {"Content-Type": "application/json"}
    if etag is not None:
        headers["If-None-Match"] = etag
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=timeout)
    try:
        conn.request("POST", "/v1/jobs", body=body, headers=headers)
        resp = conn.getresponse()
        return (
            resp.status,
            resp.getheader("ETag"),
            resp.getheader("X-Repro-Cache"),
            resp.read(),
        )
    finally:
        conn.close()


def _post(server, body: bytes, timeout: float = 30):
    """``(status, X-Repro-Cache, raw body)`` of one ``/v1/jobs`` POST."""
    status, _, cache, raw = _post_tagged(server, body, timeout=timeout)
    return status, cache, raw


def _park_pool(server) -> threading.Event:
    """Occupy every pool worker until the returned event is set."""
    workers = len(server._pool._threads)
    parked = threading.Semaphore(0)
    release = threading.Event()

    def park():
        parked.release()
        assert release.wait(timeout=60)

    async def enqueue():
        for _ in range(workers):
            server._pool.submit(park, priority=0)

    asyncio.run_coroutine_threadsafe(enqueue(), server._loop).result(timeout=30)
    for _ in range(workers):
        assert parked.acquire(timeout=30)
    return release


def _in_thread(call) -> "tuple[threading.Thread, list]":
    out: list = []
    thread = threading.Thread(target=lambda: out.append(call()), daemon=True)
    thread.start()
    return thread, out


class TestWarmPath:
    @pytest.fixture()
    def warm(self, server):
        """A server whose result cache holds the job, encoded; the cold bytes."""
        status, cache, cold = _post(server, _job().to_json().encode())
        assert (status, cache) == (200, "none")
        return server, cold

    @pytest.mark.parametrize("form", sorted(WARM_FORMS))
    def test_header_and_bytes_equal_the_cold_answer(self, warm, form):
        server, cold = warm
        body = WARM_FORMS[form]().to_json().encode()
        for _ in range(2):
            assert _post(server, body) == (200, "result", cold)

    @pytest.mark.parametrize("form", sorted(WARM_FORMS))
    def test_each_hit_is_counted_once(self, warm, form):
        server, _ = warm
        stats = server.service.stats
        before = (stats.submitted, stats.result_hits, stats.result_misses)
        body = WARM_FORMS[form]().to_json().encode()
        for _ in range(3):
            assert _post(server, body)[:2] == (200, "result")
        after = (stats.submitted, stats.result_hits, stats.result_misses)
        assert after == (before[0] + 3, before[1] + 3, before[2])

    def test_a_memory_front_hit_answers_while_the_pool_is_parked(self, warm):
        server, cold = warm
        release = _park_pool(server)
        try:
            body = WARM_FORMS["loop"]().to_json().encode()
            assert _post(server, body, timeout=10) == (200, "result", cold)
            # The pool form needs a worker: it waits for the release.
            body = WARM_FORMS["pool-inline-graph"]().to_json().encode()
            thread, out = _in_thread(lambda: _post(server, body))
            thread.join(timeout=0.3)
            assert thread.is_alive()
        finally:
            release.set()
        thread.join(timeout=30)
        assert out == [(200, "result", cold)]

    @pytest.mark.parametrize("form", sorted(WARM_FORMS))
    def test_admission_is_unchanged_with_max_pending_full(self, form):
        server = AsyncServiceServer(port=0, max_pending=1)
        server.start_background()
        service = server.service
        original = service._submit_outcome
        entered, release = threading.Event(), threading.Event()

        def gated(request):
            if request.pdef == 3:
                entered.set()
                assert release.wait(timeout=60)
            return original(request)

        service._submit_outcome = gated
        try:
            assert _post(server, _job().to_json().encode())[:2] == (200, "none")
            # A cold job holds the one admission slot.
            holder, _ = _in_thread(lambda: _post(server, _job(pdef=3).to_json().encode()))
            assert entered.wait(timeout=30)
            rejected = service.stats.rejected
            status, _, raw = _post(server, WARM_FORMS[form]().to_json().encode())
            assert status == 429
            assert json.loads(raw)["error"]["type"] == "ServiceOverloadedError"
            assert service.stats.rejected == rejected + 1
        finally:
            release.set()
            service._submit_outcome = original
            holder.join(timeout=30)
            server.shutdown()

    @pytest.mark.parametrize("form", ["loop", "pool-inline-graph"])
    def test_an_unknown_backend_is_rejected_on_a_warm_hit(self, warm, form):
        server, _ = warm
        # The removed field is an unknown field whatever name it carries,
        # whether or not the result cache holds the answer.
        for name in ("no-such-backend", "fused", "serial"):
            request = WARM_FORMS[form]()
            cold = dataclasses.replace(request, pdef=2)
            answers = [
                _post(server, _naming_backend(r, name)) for r in (request, cold)
            ]
            assert [status for status, _, _ in answers] == [400, 400]
            warm_error, cold_error = (json.loads(raw) for _, _, raw in answers)
            assert warm_error == cold_error
            assert warm_error["error"]["type"] == "JobValidationError"
            assert warm_error["error"]["field"] == "backend"

    def test_a_disk_only_hit_goes_through_the_pool_and_touches_the_file(
        self, tmp_path
    ):
        first = AsyncServiceServer(port=0, cache_dir=tmp_path)
        first.start_background()
        try:
            _, cache, cold = _post(first, _job().to_json().encode())
            assert cache == "none"
        finally:
            first.shutdown()
        (path,) = (tmp_path / "result").glob("*.json")
        server = AsyncServiceServer(port=0, cache_dir=tmp_path)
        server.start_background()
        try:
            body = _job().to_json().encode()
            for disk_only in (True, False):
                os.utime(path, (1, 1))
                release = _park_pool(server)
                try:
                    thread, out = _in_thread(lambda: _post(server, body))
                    thread.join(timeout=0.3 if disk_only else 10)
                    # A disk-only hit needs a worker; once decoded and
                    # encoded, the next one is answered on the loop.
                    assert thread.is_alive() == disk_only
                finally:
                    release.set()
                thread.join(timeout=30)
                assert out == [(200, "result", cold)]
                assert path.stat().st_mtime > 1
        finally:
            server.shutdown()

    def test_healthz_is_not_delayed_by_an_inline_graph_parse(
        self, server, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()
        original = JobRequest.from_json.__func__

        def gated(cls, text):
            if '"dfg"' in text:
                entered.set()
                assert release.wait(timeout=60)
            return original(cls, text)

        monkeypatch.setattr(JobRequest, "from_json", classmethod(gated))
        body = _job(workload=None, dfg=three_point_dft_paper()).to_json().encode()
        thread, out = _in_thread(lambda: _post(server, body))
        try:
            assert entered.wait(timeout=30)
            with ServiceClient(server.url, timeout=5) as client:
                assert client.health()["status"] == "ok"
            assert thread.is_alive()
        finally:
            release.set()
        thread.join(timeout=30)
        assert out[0][:2] == (200, "none")


# --------------------------------------------------------------------------- #
# revalidation: a repeat the client holds costs a 304, not a body
# --------------------------------------------------------------------------- #
def _strong_tag(raw: bytes) -> str:
    return '"' + hashlib.sha256(raw).hexdigest() + '"'


class TestRevalidation:
    @pytest.mark.parametrize("form", sorted(WARM_FORMS))
    def test_a_repeat_is_a_304_and_the_client_keeps_its_answer(
        self, server, form
    ):
        body = WARM_FORMS[form]().to_json().encode()
        status, tag, cache, raw = _post_tagged(server, body)
        assert (status, cache) == (200, "none")
        assert tag == _strong_tag(raw)
        assert _post_tagged(server, body, tag) == (304, tag, "result", b"")
        with ServiceClient(server.url, timeout=30) as client:
            first = client.submit(WARM_FORMS[form]())
            assert first.to_json().encode() == raw
            assert client.submit(WARM_FORMS[form]()) is first
            assert client.last_cache == "result"

    @pytest.mark.parametrize("form", sorted(WARM_FORMS))
    def test_a_304_is_booked_as_the_submit_it_answers(self, server, form):
        stats = server.service.stats
        body = WARM_FORMS[form]().to_json().encode()
        assert _post_tagged(server, body)[2] == "none"
        before = (stats.submitted, stats.result_hits, stats.not_modified)
        with ServiceClient(server.url, timeout=30) as client:
            client.submit(WARM_FORMS[form]())  # 200: the first answer held
            client.submit(WARM_FORMS[form]())  # 304
            described = client.stats()["stats"]
        after = (stats.submitted, stats.result_hits, stats.not_modified)
        assert after == (before[0] + 2, before[1] + 2, before[2] + 1)
        assert described["not_modified"] == stats.not_modified

    def test_a_stale_tag_gets_the_new_answer_and_replaces_the_entry(
        self, server
    ):
        with ServiceClient(server.url, timeout=30) as client:
            first = client.submit(_job())
            (key,) = client._held
            old_tag = client._held[key][0]
            # A rebuild re-times the stages, so the body and its tag change.
            client.clear_caches()
            rebuilt = client.submit(_job())
            assert client.last_cache == "none"
            assert rebuilt is not first
            assert rebuilt.answer_dict() == first.answer_dict()
            new_tag, held = client._held[key]
            assert held is rebuilt and new_tag != old_tag
            assert new_tag == _strong_tag(rebuilt.to_json().encode())
            assert client.submit(_job()) is rebuilt
        assert server.service.stats.not_modified == 1

    def test_a_garbage_tag_gets_the_header_less_answer(self, server):
        body = _job().to_json().encode()
        _post_tagged(server, body)
        plain = _post_tagged(server, body)
        assert plain[:3] == (200, plain[1], "result")
        for garbage in ('"garbage"', "garbage", plain[1][:-2] + '"', "*"):
            assert _post_tagged(server, body, garbage) == plain
        assert server.service.stats.not_modified == 0
        # If-None-Match is a list compared weakly (RFC 9110 §13.1.2).
        for listed in (f'"x", {plain[1]}', f"W/{plain[1]}"):
            assert _post_tagged(server, body, listed)[0] == 304

    def test_a_header_less_body_is_the_answer_encoding(self, server):
        body = _job().to_json().encode()
        _, tag, _, cold = _post_tagged(server, body)
        results = server.service._results
        (key,) = results.keys()
        cached = results.get(key)
        assert cold == json.dumps(cached.to_dict()).encode()
        assert _post_tagged(server, body) == (200, tag, "result", cold)

    @pytest.mark.parametrize("form", ["loop", "pool-inline-graph"])
    def test_a_valid_tag_does_not_skip_the_backend_check(self, server, form):
        _, tag, _, _ = _post_tagged(server, WARM_FORMS[form]().to_json().encode())
        body = _naming_backend(WARM_FORMS[form](), "fused")
        status, _, _, raw = _post_tagged(server, body, tag)
        assert status == 400
        assert json.loads(raw)["error"]["field"] == "backend"

    def test_a_valid_tag_does_not_skip_the_drain(self, server):
        body = _job().to_json().encode()
        _, tag, _, _ = _post_tagged(server, body)
        server.drain()
        status, _, _, raw = _post_tagged(server, body, tag)
        assert status == 503
        assert json.loads(raw)["error"]["type"] == "ServiceUnavailableError"

    def test_an_edit_repeat_revalidates(self, server):
        edit = EditRequest(job=_job(), edits=(DfgEdit.recolor("b1", "a"),))
        with ServiceClient(server.url, timeout=30) as client:
            first = client.submit_edit(edit)
            assert client.submit_edit(edit) is first
            assert client.last_cache == "result"
        assert server.service.stats.not_modified == 1

    def test_the_held_answers_are_bounded_lru(self, server, monkeypatch):
        monkeypatch.setattr(http_module, "HELD_ANSWERS", 2)
        jobs = {pdef: _job(pdef=pdef) for pdef in (2, 3, 4)}
        with ServiceClient(server.url, timeout=30) as client:
            a = client.submit(jobs[2])
            b = client.submit(jobs[3])
            assert client.submit(jobs[2]) is a  # 2 is now the newest
            client.submit(jobs[4])  # evicts 3, the oldest
            held = [json.loads(body)["pdef"] for _, body in client._held]
            assert held == [2, 4]
            assert client.submit(jobs[3]) is not b
            assert server.service.stats.not_modified == 1
            client.close()
            assert not client._held

    def test_last_cache_is_per_thread(self, server):
        with ServiceClient(server.url, timeout=30) as client:
            submitted, read = threading.Event(), threading.Event()
            seen: list = []

            def cold_caller():
                client.submit(_job())
                seen.append(client.last_cache)
                submitted.set()
                assert read.wait(timeout=30)
                seen.append(client.last_cache)

            thread = threading.Thread(target=cold_caller)
            thread.start()
            assert submitted.wait(timeout=30)
            client.submit(_job())
            assert client.last_cache == "result"
            read.set()
            thread.join(timeout=30)
            assert seen == ["none", "none"]


    def test_concurrent_revalidation_books_every_304(self, monkeypatch):
        """Eight threads share two clients of two servers over one service.

        The held answers are shared and evicting (bound 2, three jobs),
        both event loops book ``not_modified``, and switches are forced
        often: every 304 a client saw is booked exactly once and every
        answer, held or decoded, is the job's.
        """
        monkeypatch.setattr(http_module, "HELD_ANSWERS", 2)
        lock = threading.Lock()
        statuses: "dict[int, int]" = {}

        class CountingClient(ServiceClient):
            def _request(self, path, body=None, etag=None):
                status, data, headers = super()._request(path, body, etag)
                with lock:
                    statuses[status] = statuses.get(status, 0) + 1
                return status, data, headers

        jobs = [_job(pdef=pdef) for pdef in (2, 3, 4)]
        rounds, wrong = 30, []
        with SchedulerService() as service:
            expected = [service.submit(job).answer_dict() for job in jobs]
            submitted = service.stats.submitted
            servers = [AsyncServiceServer(service=service, port=0) for _ in "ab"]
            clients = []
            for server in servers:
                server.start_background()
                clients.append(CountingClient(server.url, timeout=30))

            def caller(client, seed):
                rng = random.Random(seed)
                for _ in range(rounds):
                    i = rng.randrange(len(jobs))
                    if client.submit(jobs[i]).answer_dict() != expected[i]:
                        wrong.append(i)

            threads = [
                threading.Thread(target=caller, args=(clients[n % 2], n))
                for n in range(8)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
                for client in clients:
                    client.close()
                for server in servers:
                    server.shutdown()
            assert not any(thread.is_alive() for thread in threads)
            assert not wrong
            assert sum(statuses.values()) == 8 * rounds
            assert service.stats.submitted - submitted == 8 * rounds
            assert service.stats.not_modified == statuses.get(304, 0) > 0

class TestLowerCaseHeaders:
    def test_the_client_reads_lower_case_headers(self):
        """A gateway that lower-cases header names changes nothing."""
        with SchedulerService() as service:
            answer = service.submit(_job()).to_json().encode()
        tag = _strong_tag(answer)
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        requests: list = []

        def read_request(conn) -> "dict[str, str]":
            data = b""
            while b"\r\n\r\n" not in data:
                data += conn.recv(65536)
            head, _, rest = data.partition(b"\r\n\r\n")
            headers = {}
            for line in head.decode("latin-1").split("\r\n")[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", 0))
            while len(rest) < length:
                rest += conn.recv(65536)
            return headers

        def serve():
            conn, _ = listener.accept()
            with conn:
                requests.append(read_request(conn))
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n"
                    + f"content-length: {len(answer)}\r\n".encode()
                    + f"x-repro-cache: none\r\netag: {tag}\r\n\r\n".encode()
                    + answer
                )
                requests.append(read_request(conn))
                conn.sendall(
                    b"HTTP/1.1 304 Not Modified\r\n"
                    + f"x-repro-cache: result\r\netag: {tag}\r\n\r\n".encode()
                )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with ServiceClient(f"http://127.0.0.1:{port}", timeout=30) as client:
                first = client.submit(_job())
                assert client.last_cache == "none"
                assert client.submit(_job()) is first
                assert client.last_cache == "result"
        finally:
            thread.join(timeout=30)
            listener.close()
        assert "if-none-match" not in requests[0]
        assert requests[1]["if-none-match"] == tag


# --------------------------------------------------------------------------- #
# per-client quotas
# --------------------------------------------------------------------------- #
class TestQuota:
    @pytest.fixture()
    def quota_server(self):
        # Tiny refill rate so a burst exhausts and stays exhausted for
        # the duration of the test.
        server = AsyncServiceServer(port=0, quota_rps=0.1, quota_burst=2)
        server.start_background()
        yield server
        server.shutdown()

    def test_quota_429_with_retry_after_sync(self, quota_server):
        with ServiceClient(
            quota_server.url, timeout=30, client_id="greedy"
        ) as client:
            client.submit(_job())
            client.submit(_job())
            with pytest.raises(ServiceOverloadedError) as exc:
                client.submit(_job())
            assert exc.value.http_status == 429
            assert exc.value.retry_after is not None
            assert exc.value.retry_after > 0

    def test_retry_after_is_an_http_header_too(self, quota_server):
        body = _job().to_json().encode("utf-8")
        conn = http.client.HTTPConnection(
            "127.0.0.1", quota_server.port, timeout=30
        )
        try:
            status = 200
            headers = {}
            for _ in range(3):
                conn.request(
                    "POST",
                    "/v1/jobs",
                    body=body,
                    headers={
                        "Content-Type": "application/json",
                        CLIENT_HEADER: "header-check",
                    },
                )
                resp = conn.getresponse()
                status = resp.status
                headers = dict(resp.getheaders())
                resp.read()
            assert status == 429
            assert float(headers["Retry-After"]) > 0
        finally:
            conn.close()

    def test_other_clients_unaffected(self, quota_server):
        with ServiceClient(
            quota_server.url, timeout=30, client_id="noisy"
        ) as noisy:
            noisy.submit(_job())
            noisy.submit(_job())
            with pytest.raises(ServiceOverloadedError):
                noisy.submit(_job())
            # A different client id has its own bucket and proceeds —
            # concurrently with the noisy client still being refused.
            errors: list[BaseException] = []

            def polite_worker():
                try:
                    with ServiceClient(
                        quota_server.url, timeout=30, client_id="polite"
                    ) as polite:
                        polite.submit(_job())
                        polite.submit(_job(pdef=3))
                except BaseException as exc:  # pragma: no cover - fail below
                    errors.append(exc)

            worker = threading.Thread(target=polite_worker)
            worker.start()
            with pytest.raises(ServiceOverloadedError):
                noisy.submit(_job())
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert errors == []

    def test_reads_are_not_quota_gated(self, quota_server):
        with ServiceClient(
            quota_server.url, timeout=30, client_id="reader"
        ) as client:
            for _ in range(10):
                assert client.health()["status"] == "ok"
                client.stats()


# --------------------------------------------------------------------------- #
# graceful drain
# --------------------------------------------------------------------------- #
class TestDrain:
    def test_drain_flushes_then_refuses_work(self, server):
        with ServiceClient(server.url, timeout=30) as client:
            client.submit(_job())
            assert client.drain() == {"draining": True}
            with pytest.raises(ServiceUnavailableError) as exc:
                client.submit(_job(pdef=3))
            assert exc.value.http_status == 503
            assert exc.value.retry_after is not None
            # Reads keep serving while draining — that is the point.
            health = client.health()
            assert health["draining"] is True
            assert health["status"] == "draining"
            client.stats()

    def test_inflight_work_finishes_during_drain(self, server):
        started = threading.Event()
        release = threading.Event()
        original = server.service.submit_outcome

        def gated(request):
            started.set()
            assert release.wait(timeout=30)
            return original(request)

        server.service.submit_outcome = gated
        try:
            results: list = []
            errors: list[BaseException] = []

            def inflight():
                try:
                    with ServiceClient(server.url, timeout=60) as client:
                        results.append(client.submit(_job()))
                except BaseException as exc:  # pragma: no cover - fail below
                    errors.append(exc)

            worker = threading.Thread(target=inflight)
            worker.start()
            assert started.wait(timeout=30)
            # Drain lands while the first request is mid-flight.
            server.drain()
            with pytest.raises(ServiceUnavailableError):
                with ServiceClient(server.url, timeout=30) as late:
                    late.submit(_job(pdef=3))
            release.set()
            worker.join(timeout=60)
            assert not worker.is_alive()
            assert errors == []
            # The admitted request completed normally despite the drain.
            assert len(results) == 1
            results[0].schedule.verify()
        finally:
            release.set()
            server.service.submit_outcome = original


# --------------------------------------------------------------------------- #
# streamed shard protocol
# --------------------------------------------------------------------------- #
def _claim(dfg, capacity: int, pieces: int, max_count=None) -> ShardTask:
    """One shard claim over ``pieces`` planned seed ranges of ``dfg``."""
    from repro.exec.process import plan_seed_partitions

    return ShardTask(
        size=capacity,
        span_limit=CFG.span_limit,
        max_count=max_count,
        ranges=plan_seed_partitions(dfg, pieces)[0],
        dfg=dfg,
    )


def _in_process_rows(claim: ShardTask) -> "list[list[tuple]]":
    with SchedulerService() as service:
        return service.classify_shard(claim)


class TestStreamedShard:
    @staticmethod
    def _assert_stream_matches_in_process(server, dfg) -> None:
        claim = _claim(dfg, 4, 3)
        with ServiceClient(server.url, timeout=30) as client:
            streamed = {
                slot: payload
                for slot, payload, _cache in client.classify_shard_stream(claim)
            }
        assert sorted(streamed) == list(range(len(claim.ranges)))
        assert [streamed[slot] for slot in sorted(streamed)] == _in_process_rows(
            claim
        )

    def test_stream_matches_batched_sync(self, server):
        self._assert_stream_matches_in_process(server, three_point_dft_paper())

    def test_stream_matches_batched_async(self, server):
        self._assert_stream_matches_in_process(
            server, layered_dag(7, layers=3, width=3)
        )

    def test_slot_error_is_slot_local(self, server):
        # A claim's misses classify in one pass: a global antichain
        # ceiling of 1 fails every missed slot exactly like a fused DFS
        # would, while a slot the partial cache answers streams its rows.
        dfg = layered_dag(5, layers=3, width=4)
        pieces = _claim(dfg, 4, 3, max_count=1).ranges
        warm = ShardTask(
            size=4,
            span_limit=CFG.span_limit,
            max_count=1,
            ranges=((dfg.n_nodes - 1,),),  # a lone top seed: one antichain
            dfg=dfg,
        )
        claim = ShardTask(
            size=4,
            span_limit=CFG.span_limit,
            max_count=1,
            ranges=(pieces[0], pieces[1], warm.ranges[0]),
            dfg=dfg,
        )
        with ServiceClient(server.url, timeout=30) as client:
            [(_, warm_rows, _)] = client.classify_shard_stream(warm)
            by_slot = {
                slot: (payload, cache)
                for slot, payload, cache in client.classify_shard_stream(claim)
            }
        assert isinstance(by_slot[0][0], EnumerationLimitError)
        assert isinstance(by_slot[1][0], EnumerationLimitError)
        assert by_slot[2] == (warm_rows, "shard")

    def test_heartbeats_on_silent_stretches(self):
        server = AsyncServiceServer(port=0, heartbeat_interval=0.05)
        original = server.service.classify_shard_outcome

        def slow(task):
            time.sleep(0.4)
            return original(task)

        server.service.classify_shard_outcome = slow
        server.start_background()
        try:
            dfg = three_point_dft_paper()
            body = _claim(dfg, 4, 1).to_json().encode("utf-8")
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                conn.request(
                    "POST",
                    "/v1/catalog:shard:stream",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                assert resp.status == 200
                frames = []
                while True:
                    line = resp.readline()
                    if not line:
                        break
                    frames.append(json.loads(line))
                    if frames[-1].get("done"):
                        break
            finally:
                conn.close()
            heartbeats = [f for f in frames if "heartbeat" in f]
            assert heartbeats, frames
            assert all(f["heartbeat"] >= 0 for f in heartbeats)
            assert frames[-1] == {"done": True}
            slots = [f for f in frames if "slot" in f]
            assert len(slots) == 1 and "buckets" in slots[0]
        finally:
            server.service.classify_shard_outcome = original
            server.shutdown()


# --------------------------------------------------------------------------- #
# streamed shard fan-out: bit-identity under jitter (hypothesis-pinned)
# --------------------------------------------------------------------------- #
class TestStreamedCoordinator:
    @pytest.fixture()
    def jittered(self):
        control = {"rng": random.Random(0), "max_delay": 0.0}
        servers = []
        for _ in range(2):
            server = AsyncServiceServer(port=0, workers=2)
            original = server.service.classify_shard_outcome

            def slow(task, _original=original):
                time.sleep(control["rng"].uniform(0.0, control["max_delay"]))
                return _original(task)

            server.service.classify_shard_outcome = slow
            server.start_background()
            servers.append(server)
        yield servers, control
        for server in servers:
            server.shutdown()

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
        ],
    )
    def test_jittered_stream_bit_identical(self, jittered, seed):
        servers, control = jittered
        control["rng"] = random.Random(seed)
        control["max_delay"] = 0.004
        # A fresh graph per example so the shard-partial cache cannot
        # short-circuit classification on later examples.
        dfg = layered_dag(seed % 1000, layers=3, width=3)
        reference = catalog_bits(
            PatternSelector(4, config=CFG).build_catalog(dfg)
        )
        with ShardCoordinator([s.url for s in servers]) as coord:
            built = coord.build_catalog(dfg, 4, config=CFG)
        assert catalog_bits(built) == reference

    def test_remote_shards_use_the_stream_route(self, jittered):
        servers, _control = jittered
        dfg = three_point_dft_paper()
        reference = catalog_bits(
            PatternSelector(5, config=CFG).build_catalog(dfg)
        )
        with ShardCoordinator([s.url for s in servers]) as coord:
            built = coord.build_catalog(dfg, 5, config=CFG, workload="3dft")
            shards = [s for s in coord.shards if isinstance(s, RemoteShard)]
            assert len(shards) == 2
            assert coord.stats.dispatched == coord.stats.planned
            assert sum(s.retries_used for s in shards) == 0
        # Every dispatched slot reached a server through the stream route.
        assert sum(s.service.stats.shard_tasks for s in servers) == (
            coord.stats.dispatched
        )
        assert catalog_bits(built) == reference
