"""Which backend runs a job, plus the one error envelope.

A job runs on its request's ``backend`` when set and on the service's
resident backend otherwise.  Pinned here: a non-resident backend runs the
job, is created once, reused and closed with the service, and answers
bit-identically to the resident one; an unknown name is rejected the same
way on a cold submit and a warm result-cache hit, in process and over the
wire; and the removed request fields (``engine``, ``policy``) are
rejected as unknown fields (the legacy ``engine=`` keyword too).

:mod:`repro.service.errors` is the single wire error shape.  Pinned
here: envelope → exception round-trips for every registered type, in
process and over the wire, the HTTP status mapping, retry-hint
defaults, and graceful degradation for unknown types and legacy flat
payloads.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import warnings

import pytest

from repro.exceptions import (
    BackendError,
    EnumerationLimitError,
    JobValidationError,
    ReproError,
    SchedulingError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.exec import get_backend
from repro.service import (
    AsyncServiceServer,
    JobRequest,
    SchedulerService,
    ServiceClient,
)
from repro.service import service as service_module
from repro.service.errors import (
    ERROR_TYPES,
    error_envelope,
    error_from_envelope,
    http_status,
    retry_after_of,
)
from repro.workloads import three_point_dft_paper


def answer_bits(result) -> str:
    return json.dumps(result.answer_dict())


@pytest.fixture()
def created(monkeypatch):
    """Every backend the service module creates, in creation order (a
    test clears it after constructing its service)."""
    out = []

    def spy(spec, **kwargs):
        backend = real(spec, **kwargs)
        out.append(backend)
        return backend

    real = service_module.get_backend
    monkeypatch.setattr(service_module, "get_backend", spy)
    return out


# --------------------------------------------------------------------------- #
# which backend runs a job
# --------------------------------------------------------------------------- #
class TestResolveExecution:
    REQUEST = JobRequest(capacity=5, pdef=4, workload="3dft")

    def test_default_falls_through_to_resident_backend(self, created):
        with SchedulerService(backend="fused") as service:
            created.clear()
            result = service.submit(self.REQUEST)
        assert result.backend == "fused"
        assert created == []

    def test_request_backend_wins_outright(self):
        with SchedulerService(backend="fused") as service:
            resident = service.submit(self.REQUEST)
            service.clear_caches()
            other = service.submit(
                dataclasses.replace(self.REQUEST, backend="serial")
            )
        assert (resident.backend, other.backend) == ("fused", "serial")
        assert answer_bits(other) == answer_bits(resident)

    def test_resident_backend_is_not_recreated(self, created):
        with SchedulerService(backend="fused") as service:
            created.clear()
            result = service.submit(
                dataclasses.replace(self.REQUEST, backend="fused")
            )
        assert result.backend == "fused"
        assert created == []

    def test_overrides_cache_non_resident_backends(self, created):
        with SchedulerService(backend="fused") as service:
            created.clear()
            for pdef in (3, 4):
                service.clear_caches()
                result = service.submit(
                    dataclasses.replace(self.REQUEST, pdef=pdef, backend="serial")
                )
                assert result.backend == "serial"
        assert [b.name for b in created] == ["serial"]


# --------------------------------------------------------------------------- #
# unknown backend names: cold and warm agree
# --------------------------------------------------------------------------- #
class TestUnknownBackendName:
    GOOD = JobRequest(capacity=5, pdef=3, workload="3dft")
    #: An unknown name and the retired backend names, rejected alike.
    BAD_NAMES = ("bogus", "bitset", "process")

    def bad(self, name):
        return dataclasses.replace(self.GOOD, backend=name)

    def test_cold_and_warm_submits_both_reject(self, created):
        with SchedulerService() as service:
            created.clear()
            for name in self.BAD_NAMES:
                with pytest.raises(BackendError, match=f"backend '{name}'"):
                    service.submit(self.bad(name))
            service.submit(self.GOOD)
            assert service.submit_outcome(self.GOOD).cache == "result"
            for name in self.BAD_NAMES:
                with pytest.raises(BackendError, match=f"backend '{name}'"):
                    service.submit(self.bad(name))
        assert created == []

    def test_batch_duplicate_rejects(self):
        with SchedulerService() as service:
            for name in self.BAD_NAMES:
                with pytest.raises(BackendError, match=name):
                    service.submit_many([self.GOOD, self.bad(name)])

    def test_cold_and_warm_submits_both_reject_over_the_wire(self):
        server = AsyncServiceServer(port=0)
        server.start_background()
        statuses = []
        try:
            with ServiceClient(server.url, timeout=30) as client:
                for name in self.BAD_NAMES:
                    with pytest.raises(BackendError, match=name) as cold:
                        client.submit(self.bad(name))
                    statuses.append(cold.value.http_status)
                client.submit(self.GOOD)
                client.submit(self.GOOD)
                assert client.last_cache == "result"
                for name in self.BAD_NAMES:
                    with pytest.raises(BackendError, match=name) as warm:
                        client.submit(self.bad(name))
                    statuses.append(warm.value.http_status)
        finally:
            server.shutdown()
        assert statuses == [422] * 2 * len(self.BAD_NAMES)


# --------------------------------------------------------------------------- #
# legacy engine aliases: removed, not deprecated
# --------------------------------------------------------------------------- #
class TestLegacyEngineAliases:
    def test_canonical_names_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in ("serial", "fused"):
                get_backend(name)

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
