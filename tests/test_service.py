"""Service-layer tests: jobs, caches, batch dedup, HTTP round trip.

Covers the `repro.service` contract:

* :class:`JobRequest` validation → typed
  :class:`~repro.exceptions.JobValidationError`;
* lossless JSON round trips of requests and results (including the
  ``Schedule`` and ``SelectionResult`` payloads);
* cache hit/miss accounting at all three levels and batch dedup;
* content addressing: structurally identical graphs share cached work;
* the HTTP front-end end to end on an ephemeral port.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import SelectionConfig
from repro.dfg.io import dfg_digest
from repro.exceptions import JobValidationError, ServiceError
from repro.service import (
    AsyncServiceServer,
    JobRequest,
    JobResult,
    SchedulerService,
    ServiceClient,
)
from repro.service.serialize import (
    schedule_from_dict,
    schedule_to_dict,
    selection_result_from_dict,
    selection_result_to_dict,
)
from repro.workloads import small_example, three_point_dft_paper

CFG = SelectionConfig(span_limit=1)


def _job(pdef=4, **kwargs):
    kwargs.setdefault("workload", "3dft")
    kwargs.setdefault("config", CFG)
    return JobRequest(capacity=5, pdef=pdef, **kwargs)


# --------------------------------------------------------------------------- #
# request validation
# --------------------------------------------------------------------------- #
class TestJobRequestValidation:
    def test_requires_exactly_one_input(self):
        with pytest.raises(JobValidationError, match="exactly one"):
            JobRequest(capacity=5, pdef=4)
        with pytest.raises(JobValidationError, match="exactly one"):
            JobRequest(
                capacity=5, pdef=4, workload="3dft", dfg=small_example()
            )

    @pytest.mark.parametrize("field,value", [("capacity", 0), ("pdef", -1)])
    def test_rejects_non_positive_ints(self, field, value):
        kwargs = {"capacity": 5, "pdef": 4, "workload": "3dft", field: value}
        with pytest.raises(JobValidationError) as exc:
            JobRequest(**kwargs)
        assert exc.value.field == field

    def test_rejects_bad_priority(self):
        with pytest.raises(JobValidationError) as exc:
            _job(priority="f9")
        assert exc.value.field == "priority"

    def test_rejects_unknown_fields_in_payload(self):
        with pytest.raises(JobValidationError, match="unknown job request"):
            JobRequest.from_dict(
                {"capacity": 5, "pdef": 4, "workload": "3dft", "zap": 1}
            )

    def test_rejects_missing_required_fields(self):
        with pytest.raises(JobValidationError) as exc:
            JobRequest.from_dict({"pdef": 4, "workload": "3dft"})
        assert exc.value.field == "capacity"

    def test_rejects_invalid_json(self):
        with pytest.raises(JobValidationError, match="invalid job request"):
            JobRequest.from_json("{nope")

    def test_rejects_bad_config_payload(self):
        with pytest.raises(JobValidationError, match="unknown config"):
            JobRequest.from_dict(
                {
                    "capacity": 5,
                    "pdef": 4,
                    "workload": "3dft",
                    "config": {"epsilonn": 0.5},
                }
            )

    def test_unknown_workload_is_typed_error(self):
        with SchedulerService() as service:
            with pytest.raises(JobValidationError, match="unknown workload"):
                service.submit(_job(workload="bogus"))

    def test_request_round_trip(self):
        request = _job(
            pdef=3, priority="f1", config=SelectionConfig(span_limit=2)
        )
        again = JobRequest.from_json(request.to_json())
        assert again.to_dict() == request.to_dict()

    def test_inline_dfg_round_trip(self):
        request = JobRequest(
            capacity=2, pdef=2, dfg=small_example(), config=CFG
        )
        again = JobRequest.from_json(request.to_json())
        assert again.dfg.nodes == request.dfg.nodes
        assert again.dfg.edges() == request.dfg.edges()


# --------------------------------------------------------------------------- #
# cache semantics
# --------------------------------------------------------------------------- #
class TestServiceCaching:
    def test_cold_then_warm_result_hit(self):
        with SchedulerService() as service:
            cold = service.submit_outcome(_job())
            warm = service.submit_outcome(_job())
        assert cold.cache == "none" and warm.cache == "result"
        assert warm.result is cold.result  # the stored object itself
        assert warm.result.to_json() == cold.result.to_json()
        assert service.stats.result_hits == 1
        assert service.stats.result_misses == 1
        assert service.stats.catalog_misses == 1
        # Stage aggregates count computed stages only: the warm hit adds none.
        stats = service.describe()["stats"]
        assert stats["stage_counts"]["catalog"] == 1
        assert stats["stage_seconds"]["catalog"] > 0

    def test_pdef_sweep_hits_catalog_cache(self):
        with SchedulerService() as service:
            for pdef in (2, 3, 4):
                service.submit(_job(pdef=pdef))
        assert service.stats.catalog_misses == 1
        assert service.stats.catalog_hits == 2

    def test_priority_change_hits_selection_cache(self):
        with SchedulerService() as service:
            service.submit(_job(priority="f2"))
            outcome = service.submit_outcome(_job(priority="f1"))
        assert outcome.cache == "selection"
        assert service.stats.selection_hits == 1

    def test_config_change_misses_catalog(self):
        with SchedulerService() as service:
            service.submit(_job())
            outcome = service.submit_outcome(
                _job(config=SelectionConfig(span_limit=2))
            )
        assert outcome.cache == "none"
        assert service.stats.catalog_misses == 2

    def test_content_addressing_shares_work_across_objects(self):
        # Two structurally identical graphs built independently (different
        # insertion orders) must share the whole result.
        with SchedulerService() as service:
            service.submit(
                JobRequest(capacity=5, pdef=4, dfg=three_point_dft_paper(), config=CFG)
            )
            inline = three_point_dft_paper()
            outcome = service.submit_outcome(
                JobRequest(capacity=5, pdef=4, dfg=inline, config=CFG)
            )
        assert outcome.cache == "result"

    def test_workload_name_and_inline_dfg_share_digest(self):
        with SchedulerService() as service:
            named = service.submit(_job())
            outcome = service.submit_outcome(
                JobRequest(
                    capacity=5, pdef=4, dfg=three_point_dft_paper(), config=CFG
                )
            )
        assert outcome.cache == "result"
        assert named.dfg_digest == dfg_digest(three_point_dft_paper())

    def test_backend_is_not_part_of_the_cache_key(self):
        with SchedulerService(backend="fused") as service:
            service.submit(_job())
            outcome = service.submit_outcome(_job(backend="serial"))
        assert outcome.cache == "result"

    def test_result_cache_lru_evicts(self):
        with SchedulerService(result_cache=1) as service:
            service.submit(_job(pdef=2))
            service.submit(_job(pdef=3))  # evicts pdef=2
            outcome = service.submit_outcome(_job(pdef=2))
        assert outcome.cache != "result"  # recomputed (catalog still cached)

    def test_timings_reflect_cache_hits(self):
        with SchedulerService() as service:
            cold = service.submit(_job(pdef=2))
            sweep = service.submit(_job(pdef=3))
        assert "catalog" in cold.timings
        assert "catalog" not in sweep.timings  # served from the cache
        assert "selection" in sweep.timings

    def test_rejects_non_request(self):
        with SchedulerService() as service:
            with pytest.raises(JobValidationError, match="JobRequest"):
                service.submit({"capacity": 5})

    def test_tiny_cache_size_rejected(self):
        with pytest.raises(ServiceError, match="cache size"):
            SchedulerService(result_cache=0)


class TestSubmitMany:
    def test_dedups_identical_jobs(self):
        with SchedulerService() as service:
            results = service.submit_many([_job(), _job(), _job(pdef=3)])
        assert results[0] is results[1]
        assert results[0] is not results[2]
        assert service.stats.deduped == 1
        # Dedup happens before the caches: only two jobs were submitted.
        assert service.stats.submitted == 2

    def test_sweep_builds_catalog_exactly_once(self):
        with SchedulerService() as service:
            results = service.submit_many(
                [_job(pdef=p) for p in (1, 2, 3, 4)]
            )
        assert service.stats.catalog_misses == 1
        assert [r.pdef for r in results] == [1, 2, 3, 4]
        for r in results:
            r.schedule.verify()

    def test_results_align_with_input_order(self):
        with SchedulerService() as service:
            results = service.submit_many(
                [_job(pdef=3), _job(pdef=2), _job(pdef=3)]
            )
        assert [r.pdef for r in results] == [3, 2, 3]


# --------------------------------------------------------------------------- #
# result round trips
# --------------------------------------------------------------------------- #
class TestResultRoundTrip:
    @pytest.fixture(scope="class")
    def result(self):
        with SchedulerService() as service:
            return service.submit(_job())

    def test_job_result_round_trips_losslessly(self, result):
        again = JobResult.from_json(result.to_json())
        assert again == result
        assert again.to_json() == result.to_json()
        again.schedule.verify()  # the restored schedule is a real schedule

    def test_schedule_round_trip(self, result):
        restored = schedule_from_dict(
            schedule_to_dict(result.schedule), result.schedule.dfg
        )
        assert restored.cycles == result.schedule.cycles
        assert dict(restored.assignment) == dict(result.schedule.assignment)
        assert restored.library == result.schedule.library
        restored.verify()

    def test_selection_result_round_trip(self, result):
        restored = selection_result_from_dict(
            selection_result_to_dict(result.selection), result.dfg
        )
        assert restored.library == result.selection.library
        assert len(restored.rounds) == len(result.selection.rounds)
        for a, b in zip(restored.rounds, result.selection.rounds):
            assert dict(a.priorities) == dict(b.priorities)
            assert a.chosen == b.chosen and a.deleted == b.deleted
        assert (
            restored.catalog.frequencies == result.selection.catalog.frequencies
        )
        # Counter insertion order survives (Eq. 8 float summation order).
        for p, counter in restored.catalog.frequencies.items():
            assert list(counter) == list(result.selection.catalog.frequencies[p])
        assert restored.config == result.selection.config

    def test_malformed_result_payload_is_typed(self):
        with pytest.raises(JobValidationError, match="malformed"):
            JobResult.from_dict({"job_key": "x"})
        with pytest.raises(JobValidationError, match="invalid job result"):
            JobResult.from_json("{nope")


# --------------------------------------------------------------------------- #
# HTTP round trip
# --------------------------------------------------------------------------- #
class TestHTTP:
    @pytest.fixture()
    def server(self):
        server = AsyncServiceServer(port=0)
        server.start_background()
        yield server
        server.shutdown()

    def test_smoke_round_trip(self, server):
        client = ServiceClient(server.url, timeout=30)
        assert client.health()["status"] == "ok"
        assert "3dft" in client.workloads()

        cold = client.submit(_job())
        assert client.last_cache == "none"
        cold.schedule.verify()

        warm = client.submit(_job())
        assert client.last_cache == "result"
        assert warm == cold and warm.to_json() == cold.to_json()

        stats = client.stats()
        assert stats["stats"]["result_hits"] == 1

    def test_batch_over_http(self, server):
        client = ServiceClient(server.url, timeout=30)
        results = client.submit_many([_job(pdef=2), _job(pdef=2), _job(pdef=3)])
        assert [r.pdef for r in results] == [2, 2, 3]
        assert results[0] == results[1]
        assert client.stats()["stats"]["deduped"] == 1

    def test_validation_error_maps_to_400(self, server):
        client = ServiceClient(server.url, timeout=30)
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(
                urllib.request.Request(
                    server.url + "/v1/jobs",
                    data=b'{"pdef": 4, "workload": "3dft"}',
                    headers={"Content-Type": "application/json"},
                    method="POST",
                ),
                timeout=30,
            )
        assert exc.value.code == 400
        detail = json.loads(exc.value.read())["error"]
        assert detail["type"] == "JobValidationError"
        assert detail["field"] == "capacity"
        # The thin client re-raises the same typed exception.
        with pytest.raises(JobValidationError, match="unknown workload"):
            client.submit(_job(workload="bogus"))

    def test_unknown_route_is_404(self, server):
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(server.url + "/nope", timeout=30)
        assert exc.value.code == 404

    def test_unreachable_service_is_typed(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()


# --------------------------------------------------------------------------- #
# convenience API
# --------------------------------------------------------------------------- #
class TestRunPipelineJob:
    def test_accepts_name_or_graph(self):
        with SchedulerService() as service:
            by_name = service.run_pipeline_job("3dft", 5, 4, config=CFG)
            by_graph = service.run_pipeline_job(
                three_point_dft_paper(), 5, 4, config=CFG
            )
        assert by_graph.cache == "result"
        assert by_graph.result is by_name.result

    def test_rejects_other_types(self):
        with SchedulerService() as service:
            with pytest.raises(JobValidationError, match="workload name"):
                service.run_pipeline_job(42, 5, 4)

    def test_describe_shape(self):
        with SchedulerService() as service:
            service.submit(_job())
            info = service.describe()
        assert info["caches"]["result"]["size"] == 1
        assert info["stats"]["submitted"] == 1
        assert "3dft" in info["workloads"]

    def test_clear_caches(self):
        with SchedulerService() as service:
            service.submit(_job())
            service.clear_caches()
            outcome = service.submit_outcome(_job())
        assert outcome.cache == "none"


class TestStaleGraphGuard:
    def test_mutated_graph_is_evicted_from_the_digest_map(self):
        # A caller mutating a previously submitted graph in place must not
        # poison the digest class: a fresh graph with the *original*
        # content must be scheduled as-is, not resolved to the mutated
        # object filed under the old digest.
        g = three_point_dft_paper()
        with SchedulerService() as service:
            service.submit(JobRequest(capacity=5, pdef=4, dfg=g, config=CFG))
            g.add_node("z9", "a")  # old digest now maps to changed content
            h = three_point_dft_paper()
            fresh = service.submit(
                JobRequest(capacity=5, pdef=3, dfg=h, config=CFG)
            )
        assert "z9" not in fresh.dfg.nodes
        assert fresh.dfg_digest == dfg_digest(three_point_dft_paper())


class TestHTTPKeepAliveSafety:
    def test_oversize_body_rejected_without_poisoning_the_connection(self):
        import http.client

        from repro.service.aio import MAX_BODY_BYTES

        server = AsyncServiceServer(port=0)
        server.start_background()
        try:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            # Declare an oversize body but send only a stub: the server
            # must answer 400 AND refuse to reuse the connection (else the
            # unread bytes would be parsed as the next request).
            conn.putrequest("POST", "/v1/jobs")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            conn.send(b'{"x":1}')
            resp = conn.getresponse()
            assert resp.status == 400
            assert resp.getheader("Connection") == "close" or resp.will_close
            conn.close()
            # A clean follow-up request on a NEW connection still works.
            client = ServiceClient(server.url, timeout=30)
            assert client.health()["status"] == "ok"
        finally:
            server.shutdown()

    @pytest.mark.parametrize(
        "head, message",
        [
            (
                "Content-Length: twelve\r\n",
                "Content-Length header is not an integer",
            ),
            ("Content-Length: -5\r\n", "Content-Length -5 is negative"),
            (
                f"Content-Length: {(64 << 20) + 1}\r\n",
                f"request body of {(64 << 20) + 1} bytes exceeds the "
                f"{64 << 20}-byte limit",
            ),
            (
                "X-Pad: " + "a" * (70 << 10) + "\r\n",
                f"request head exceeds the {64 << 10}-byte limit",
            ),
        ],
        ids=["non-integer", "negative", "over-64-MiB", "head-over-64-KiB"],
    )
    def test_unframeable_request_is_a_400_that_closes(self, head, message):
        import socket

        server = AsyncServiceServer(port=0)
        server.start_background()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as sock:
                sock.sendall(
                    f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n{head}\r\n".encode(
                        "latin-1"
                    )
                    + b'{"x":1}'
                )
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk  # the server closes: EOF ends the loop
            raw_head, _, body = reply.partition(b"\r\n\r\n")
            lines = raw_head.decode("latin-1").split("\r\n")
            assert lines[0] == "HTTP/1.1 400 Bad Request"
            assert "Connection: close" in lines[1:]
            assert json.loads(body) == {
                "error": {"type": "JobValidationError", "message": message}
            }
            # The server survives: a fresh connection is served normally.
            with ServiceClient(server.url, timeout=30) as client:
                assert client.health()["status"] == "ok"
        finally:
            server.shutdown()


# --------------------------------------------------------------------------- #
# admission control (bounded pending-job queue)
# --------------------------------------------------------------------------- #
class TestAdmissionControl:
    def test_rejects_when_pending_at_limit(self):
        from repro.exceptions import ServiceOverloadedError

        with SchedulerService(max_pending=1) as service:
            with service._admitted():  # occupy the single slot
                with pytest.raises(
                    ServiceOverloadedError, match="admission limit"
                ) as exc:
                    service.submit(_job())
            assert exc.value.pending == 1
            assert exc.value.max_pending == 1
            assert service.stats.rejected == 1
            # The slot was released; the next submit goes through.
            assert service.submit(_job()).schedule.length > 0
            assert service.pending == 0

    def test_batch_takes_one_slot(self):
        with SchedulerService(max_pending=1) as service:
            results = service.submit_many([_job(pdef=2), _job(pdef=3)])
        assert len(results) == 2
        assert service.stats.rejected == 0

    def test_unbounded_by_default(self):
        with SchedulerService() as service:
            assert service.max_pending is None
            service.submit(_job())
            assert service.stats.rejected == 0

    def test_rejects_bad_bound(self):
        with pytest.raises(ServiceError, match="max_pending"):
            SchedulerService(max_pending=0)

    def test_describe_reports_admission(self):
        with SchedulerService(max_pending=7) as service:
            info = service.describe()
        assert info["admission"] == {"max_pending": 7, "pending": 0}

    def test_overload_maps_to_http_429(self):
        from repro.exceptions import ServiceOverloadedError

        server = AsyncServiceServer(port=0, max_pending=1)
        server.start_background()
        try:
            client = ServiceClient(server.url, timeout=30)
            with server.service._admitted():  # hold the only slot
                import urllib.error
                import urllib.request

                with pytest.raises(urllib.error.HTTPError) as exc:
                    urllib.request.urlopen(
                        urllib.request.Request(
                            server.url + "/v1/jobs",
                            data=_job().to_json().encode("utf-8"),
                            headers={"Content-Type": "application/json"},
                            method="POST",
                        ),
                        timeout=30,
                    )
                assert exc.value.code == 429
                assert exc.value.headers.get("Retry-After") == "1"
                detail = json.loads(exc.value.read())["error"]
                assert detail["type"] == "ServiceOverloadedError"
                assert detail["max_pending"] == 1
                # The thin client re-raises the typed exception.
                with pytest.raises(ServiceOverloadedError):
                    client.submit(_job())
            # Slot released: the service recovers without a restart.
            result = client.submit(_job())
            assert client.last_cache == "none"
            result.schedule.verify()
        finally:
            server.shutdown()

    def test_shard_tasks_take_admission_slots(self):
        from repro.exceptions import ServiceOverloadedError
        from repro.service import ShardTask

        with SchedulerService(max_pending=1) as service:
            task = ShardTask(
                size=2,
                span_limit=1,
                max_count=None,
                ranges=((0,),),
                workload="3dft",
            )
            with service._admitted():
                with pytest.raises(ServiceOverloadedError):
                    service.classify_shard(task)
            assert service.classify_shard(task)  # recovered
