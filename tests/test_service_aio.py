"""Asyncio service core tests.

The contract under test: the asyncio core (:mod:`repro.service.aio`)
speaks the ``/v1`` wire protocol to the :class:`ServiceClient` and
offers:

* per-client token-bucket quotas → HTTP 429 with a ``Retry-After``
  hint, scoped to the offending client while other clients proceed;
* graceful drain: in-flight work finishes, new work answers 503 with a
  retry hint, reads keep serving;
* server-push shard streaming with heartbeats on silent stretches,
  frame for frame equal to in-process classification and bit-identical
  to a fused build under jittered latencies (hypothesis-pinned).
"""

from __future__ import annotations

import http.client
import json
import random
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
from repro.service.http import CLIENT_HEADER
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
            assert warm == cold
            assert client.stats()["stats"]["result_hits"] == 1

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
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        body = _job().to_json().encode("utf-8")
        replies = []
        try:
            for _ in range(3):
                conn.request(
                    "POST",
                    "/v1/jobs",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                assert resp.status == 200
                replies.append((resp.getheader("X-Repro-Cache"), resp.read()))
        finally:
            conn.close()
        caches = [cache for cache, _ in replies]
        assert caches == ["none", "result", "result"]
        cold, warm, again = (raw for _, raw in replies)
        assert warm == again == cold


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
def _shard_tasks(dfg, capacity: int, pieces: int) -> list[ShardTask]:
    from repro.exec.process import plan_seed_partitions

    parts = plan_seed_partitions(dfg, pieces)
    return [
        ShardTask(
            size=capacity,
            span_limit=CFG.span_limit,
            max_count=None,
            seeds=tuple(part),
            dfg=dfg,
        )
        for part in parts
    ]


def _in_process_rows(tasks: "list[ShardTask]") -> "list[list[tuple]]":
    with SchedulerService() as service:
        return [service.classify_shard(task) for task in tasks]


class TestStreamedShard:
    @staticmethod
    def _assert_stream_matches_in_process(server, dfg) -> None:
        tasks = _shard_tasks(dfg, 4, 3)
        with ServiceClient(server.url, timeout=30) as client:
            streamed = {
                slot: payload
                for slot, payload, _cache in client.classify_shard_stream(tasks)
            }
        assert sorted(streamed) == list(range(len(tasks)))
        assert [streamed[slot] for slot in sorted(streamed)] == _in_process_rows(
            tasks
        )

    def test_stream_matches_batched_sync(self, server):
        self._assert_stream_matches_in_process(server, three_point_dft_paper())

    def test_stream_matches_batched_async(self, server):
        self._assert_stream_matches_in_process(
            server, layered_dag(7, layers=3, width=3)
        )

    def test_slot_error_is_slot_local(self, server):
        dfg = layered_dag(5, layers=3, width=4)
        tasks = _shard_tasks(dfg, 4, 3)
        # A global antichain ceiling of 1 fails that slot exactly like a
        # fused DFS would — the other slots still stream their rows.
        bad = ShardTask(
            size=tasks[1].size,
            span_limit=tasks[1].span_limit,
            max_count=1,
            seeds=tasks[1].seeds,
            dfg=dfg,
        )
        tasks[1] = bad
        with ServiceClient(server.url, timeout=30) as client:
            by_slot = {
                slot: payload
                for slot, payload, _cache in client.classify_shard_stream(tasks)
            }
        assert isinstance(by_slot[1], EnumerationLimitError)
        assert isinstance(by_slot[0], list) and isinstance(by_slot[2], list)

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
            tasks = _shard_tasks(dfg, 4, 1)
            body = json.dumps(
                {"tasks": [task.to_dict() for task in tasks]}
            ).encode("utf-8")
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
