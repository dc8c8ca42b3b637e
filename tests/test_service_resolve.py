"""The one execution-resolution seam + the one error envelope (ISSUE 9).

:func:`repro.service.resolve.resolve_execution` is the single precedence
chain — ``request.backend > request.policy > host.policy > host.backend``
— that the service, the pipeline and the shard coordinator all consult.
Pinned here: every rung of the chain, override caching through
``host.execution_overrides``, the ``materialize=False`` form the
coordinator uses, and the removal of the legacy ``engine=`` aliases
(the keyword and the wire field are rejected; nothing warns).

:mod:`repro.service.errors` is the single wire error shape.  Pinned
here: envelope → exception round-trips for every registered type, in
process and over the wire, the HTTP status mapping, retry-hint
defaults, and graceful degradation for unknown types and legacy flat
payloads.
"""

from __future__ import annotations

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
from repro.exec import get_backend
from repro.pipeline import Pipeline
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
from repro.service.resolve import ExecutionResolution, resolve_execution
from repro.workloads import three_point_dft_paper


class _Request:
    """Minimal request duck: optional backend/policy strings."""

    def __init__(self, backend=None, policy=None):
        self.backend = backend
        self.policy = policy


# --------------------------------------------------------------------------- #
# resolution precedence
# --------------------------------------------------------------------------- #
class TestResolveExecution:
    @pytest.fixture()
    def host(self):
        with SchedulerService(backend="fused") as service:
            yield service

    def test_default_falls_through_to_resident_backend(self, host):
        res = resolve_execution(None, host, three_point_dft_paper())
        assert isinstance(res, ExecutionResolution)
        assert res.backend is host.backend
        assert res.backend.name == "fused"
        assert res.decision is None
        # A bare backend files observations under its fixed-* twin.
        assert res.policy_label == "fixed-fused"

    def test_request_backend_wins_outright(self, host):
        res = resolve_execution(
            _Request(backend="serial", policy="auto"),
            host,
            three_point_dft_paper(),
        )
        assert res.backend.name == "serial"
        # Explicit backend short-circuits: no policy was consulted.
        assert res.decision is None

    def test_request_policy_beats_host_policy(self, host):
        res = resolve_execution(
            _Request(policy="fixed-serial"), host, three_point_dft_paper()
        )
        assert res.backend.name == "serial"
        assert res.decision is not None
        assert res.policy_label == "fixed-serial"

    def test_host_policy_is_the_default_policy(self):
        with SchedulerService(backend="fused", policy="fixed-serial") as host:
            res = resolve_execution(None, host, three_point_dft_paper())
            assert res.backend.name == "serial"
            assert res.policy_label == "fixed-serial"

    def test_resident_backend_is_not_recreated(self, host):
        res = resolve_execution(
            _Request(backend="fused"), host, three_point_dft_paper()
        )
        assert res.backend is host.backend
        assert host.execution_overrides == {}

    def test_overrides_cache_non_resident_backends(self, host):
        dfg = three_point_dft_paper()
        first = resolve_execution(_Request(backend="serial"), host, dfg)
        second = resolve_execution(_Request(backend="serial"), host, dfg)
        assert first.backend is second.backend
        assert host.execution_overrides["serial"] is first.backend

    def test_materialize_false_carries_no_backend(self, host):
        res = resolve_execution(
            _Request(policy="auto"),
            host,
            three_point_dft_paper(),
            materialize=False,
        )
        assert res.backend is None
        assert res.decision is not None
        assert host.execution_overrides == {}

    def test_pipeline_and_service_resolve_identically(self, host):
        dfg = three_point_dft_paper()
        pipeline = Pipeline(4, 5)
        a = resolve_execution(_Request(policy="fixed-fused"), host, dfg)
        b = resolve_execution(_Request(policy="fixed-fused"), pipeline, dfg)
        assert a.policy_label == b.policy_label == "fixed-fused"
        assert a.backend.name == b.backend.name == "fused"


# --------------------------------------------------------------------------- #
# legacy engine aliases: removed, not deprecated
# --------------------------------------------------------------------------- #
class TestLegacyEngineAliases:
    def test_canonical_names_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in ("serial", "fused", "bitset"):
                get_backend(name).close()

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

    def test_default_paths_are_warning_free(self):
        from repro.patterns.enumeration import classify_antichains

        dfg = three_point_dft_paper()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            classify_antichains(dfg, 4)
            Pipeline(4, 5).run(dfg)


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
