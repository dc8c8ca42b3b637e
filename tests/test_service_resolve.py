"""Removed request fields, plus the one error envelope.

Every job runs the one pipeline.  Pinned here: the removed request
fields (``backend``, ``engine``, ``policy``) are rejected as unknown
fields — ``backend`` the same way on a cold submit and a warm
result-cache hit, in process and over the wire — and the legacy
``engine=`` keyword is gone.

:mod:`repro.service.errors` is the single wire error shape.  Pinned
here: envelope → exception round-trips for every registered type, in
process and over the wire, the HTTP status mapping, retry-hint
defaults, and graceful degradation for unknown types and legacy flat
payloads.
"""

from __future__ import annotations

import http.client
import json
import warnings

import pytest

from repro.exceptions import (
    EnumerationLimitError,
    JobValidationError,
    ReproError,
    SchedulingError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.service import (
    AsyncServiceServer,
    JobRequest,
    SchedulerService,
    ServiceClient,
)
from repro.service.errors import (
    ERROR_TYPES,
    error_envelope,
    error_from_envelope,
    http_status,
    retry_after_of,
)
from repro.workloads import three_point_dft_paper


def _post(server, route: str, payload) -> "tuple[int, dict]":
    """``(status, decoded body)`` of one raw JSON POST to ``server``."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("POST", route, body=json.dumps(payload))
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


# --------------------------------------------------------------------------- #
# the removed backend field: an unknown field, cold and warm alike
# --------------------------------------------------------------------------- #
#: The generic unknown-field refusal a request naming ``backend`` gets.
UNKNOWN_BACKEND = "unknown job request field(s) ['backend']"


class TestUnknownBackendName:
    GOOD = JobRequest(capacity=5, pdef=3, workload="3dft")
    #: The names the field took once, and an unknown one: refused alike.
    BAD_NAMES = ("fused", "serial", "bogus")

    def bad(self, name) -> dict:
        payload = self.GOOD.to_dict()
        payload["backend"] = name
        return payload

    def test_cold_and_warm_submits_both_reject(self):
        # Refused when the request is parsed, before any cache is probed,
        # so a result-cache hit cannot answer it either.
        with pytest.raises(TypeError, match="backend"):
            JobRequest(capacity=5, pdef=3, workload="3dft", backend="fused")
        with SchedulerService() as service:
            for warm in (False, True):
                if warm:
                    service.submit(self.GOOD)
                    assert service.submit_outcome(self.GOOD).cache == "result"
                for name in self.BAD_NAMES:
                    with pytest.raises(JobValidationError) as exc:
                        JobRequest.from_dict(self.bad(name))
                    assert str(exc.value) == UNKNOWN_BACKEND
                    assert exc.value.field == "backend"
                    assert http_status(exc.value) == 400

    def test_batch_duplicate_rejects(self):
        server = AsyncServiceServer(port=0)
        server.start_background()
        try:
            for name in self.BAD_NAMES:
                good = self.GOOD.to_dict()
                status, body = _post(
                    server, "/v1/jobs:batch", {"jobs": [good, self.bad(name)]}
                )
                assert status == 400
                assert body["error"]["field"] == "backend"
            assert server.service.stats.submitted == 0
        finally:
            server.shutdown()

    def test_cold_and_warm_submits_both_reject_over_the_wire(self):
        server = AsyncServiceServer(port=0)
        server.start_background()
        answers = []
        try:
            for warm in (False, True):
                if warm:
                    with ServiceClient(server.url, timeout=30) as client:
                        client.submit(self.GOOD)
                        client.submit(self.GOOD)
                        assert client.last_cache == "result"
                for name in self.BAD_NAMES:
                    answers.append(_post(server, "/v1/jobs", self.bad(name)))
        finally:
            server.shutdown()
        assert len(answers) == 2 * len(self.BAD_NAMES)
        for status, body in answers:
            assert status == 400
            assert body["error"]["type"] == "JobValidationError"
            assert body["error"]["field"] == "backend"
            assert body["error"]["message"] == UNKNOWN_BACKEND


# --------------------------------------------------------------------------- #
# legacy engine aliases: removed, not deprecated
# --------------------------------------------------------------------------- #
class TestLegacyEngineAliases:
    def test_engine_keyword_is_gone(self):
        from repro.core.selection import PatternSelector
        from repro.patterns.enumeration import classify_antichains
        from repro.scheduling.scheduler import MultiPatternScheduler

        dfg = three_point_dft_paper()
        with pytest.raises(TypeError, match="engine"):
            classify_antichains(dfg, 4, engine="fast")
        with pytest.raises(TypeError, match="engine"):
            PatternSelector(4).select(dfg, 5, engine="fast")
        with pytest.raises(TypeError, match="engine"):
            MultiPatternScheduler(["aabbc"], capacity=5).schedule(
                dfg, engine="fast"
            )

    def test_engine_wire_field_is_an_unknown_field(self):
        payload = JobRequest(capacity=5, pdef=4, workload="3dft").to_dict()
        payload["engine"] = "fast"
        with pytest.raises(JobValidationError, match="unknown") as exc:
            JobRequest.from_dict(payload)
        assert exc.value.field == "engine"
        assert http_status(exc.value) == 400

    def test_policy_field_is_an_unknown_field_over_the_wire(self):
        payload = JobRequest(capacity=5, pdef=4, workload="3dft").to_dict()
        payload["policy"] = "fixed-fused"
        server = AsyncServiceServer(port=0)
        server.start_background()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                conn.request("POST", "/v1/jobs", body=json.dumps(payload))
                resp = conn.getresponse()
                status, body = resp.status, json.loads(resp.read())
            finally:
                conn.close()
        finally:
            server.shutdown()
        assert status == 400
        assert body["error"]["type"] == "JobValidationError"
        assert body["error"]["field"] == "policy"

    def test_default_paths_are_warning_free(self):
        from repro.core.selection import PatternSelector
        from repro.patterns.enumeration import classify_antichains
        from repro.scheduling.scheduler import MultiPatternScheduler

        dfg = three_point_dft_paper()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            classify_antichains(dfg, 4)
            selection = PatternSelector(4).select(dfg, 5)
            MultiPatternScheduler(selection.library).schedule(dfg)


# --------------------------------------------------------------------------- #
# the unified error envelope
# --------------------------------------------------------------------------- #
class TestErrorEnvelope:
    def test_registry_covers_the_exception_hierarchy(self):
        assert ERROR_TYPES["ReproError"] is ReproError
        for name in (
            "JobValidationError",
            "ServiceError",
            "ServiceOverloadedError",
            "ServiceUnavailableError",
            "EnumerationLimitError",
            "SchedulingError",
        ):
            assert name in ERROR_TYPES

    @pytest.mark.parametrize(
        "exc, status",
        [
            (JobValidationError("bad", field="capacity"), 400),
            (ServiceOverloadedError("full", pending=3, max_pending=3), 429),
            (ServiceUnavailableError("draining"), 503),
            (EnumerationLimitError("too many"), 422),
            (SchedulingError("stuck"), 422),
            (ValueError("not ours"), 500),
        ],
    )
    def test_http_status_mapping(self, exc, status):
        assert http_status(exc) == status

    def test_round_trip_preserves_type_and_detail(self):
        exc = JobValidationError("capacity must be positive", field="capacity")
        back = error_from_envelope(error_envelope(exc))
        assert type(back) is JobValidationError
        assert back.field == "capacity"
        assert "capacity must be positive" in str(back)

    def test_round_trip_preserves_backpressure_detail(self):
        exc = ServiceOverloadedError(
            "queue full", pending=5, max_pending=5, retry_after=2.5
        )
        envelope = error_envelope(exc)
        assert envelope["error"]["retry_after"] == 2.5
        assert envelope["error"]["max_pending"] == 5
        back = error_from_envelope(envelope)
        assert type(back) is ServiceOverloadedError
        assert back.retry_after == 2.5
        assert back.pending == 5 and back.max_pending == 5

    def test_round_trip_every_registered_type(self):
        for name, cls in ERROR_TYPES.items():
            envelope = {"error": {"type": name, "message": "boom"}}
            back = error_from_envelope(envelope)
            assert type(back) is cls
            assert "boom" in str(back)

    def test_retry_after_defaults(self):
        assert retry_after_of(ServiceUnavailableError("draining")) == 1.0
        assert retry_after_of(ServiceOverloadedError("full")) == 1.0
        assert retry_after_of(ServiceUnavailableError("x", retry_after=0.25)) == 0.25
        assert retry_after_of(JobValidationError("bad")) is None

    def test_unknown_type_degrades_to_service_error(self):
        back = error_from_envelope(
            {"error": {"type": "FutureServerError", "message": "newer wire"}}
        )
        assert type(back) is ServiceError
        assert "newer wire" in str(back)

    def test_legacy_flat_shape_still_parses(self):
        back = error_from_envelope(
            {
                "error": "JobValidationError",
                "message": "flat shape",
                "field": "pdef",
            }
        )
        assert type(back) is JobValidationError
        assert back.field == "pdef"

    def test_garbage_degrades_with_default_message(self):
        back = error_from_envelope(None, default_message="fallback")
        assert type(back) is ServiceError
        assert "fallback" in str(back)
        back = error_from_envelope([1, 2, 3], default_message="fallback")
        assert type(back) is ServiceError


# --------------------------------------------------------------------------- #
# every registered error type over the wire
# --------------------------------------------------------------------------- #
def _raised(cls: type) -> ReproError:
    """An instance of ``cls`` carrying every detail its envelope can hold."""
    if issubclass(cls, JobValidationError):
        return cls("boom", field="capacity")
    if issubclass(cls, ServiceOverloadedError):
        return cls("boom", pending=2, max_pending=2, retry_after=0.5)
    if issubclass(cls, ServiceUnavailableError):
        return cls("boom", retry_after=0.25)
    return cls("boom")


class TestErrorEnvelopeOverTheWire:
    @pytest.fixture(scope="class")
    def server(self):
        server = AsyncServiceServer(port=0)
        server.start_background()
        yield server
        server.shutdown()

    @pytest.mark.parametrize("name", sorted(ERROR_TYPES))
    def test_every_registered_type_round_trips(self, server, name):
        exc = _raised(ERROR_TYPES[name])

        def fail(request):
            raise exc

        server.service.submit_outcome = fail
        try:
            with ServiceClient(server.url, timeout=30) as client:
                with pytest.raises(ReproError) as caught:
                    client.submit(JobRequest(capacity=5, pdef=4, workload="3dft"))
        finally:
            del server.service.submit_outcome
        back = caught.value
        assert type(back) is type(exc)
        assert back.http_status == http_status(exc)
        assert "boom" in str(back)
        assert getattr(back, "field", None) == getattr(exc, "field", None)
        assert retry_after_of(back) == retry_after_of(exc)
