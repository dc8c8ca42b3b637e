"""Fault-tolerance tests: timeouts, retries, failover, breakers, chaos.

The contract under test (ISSUE 10 acceptance): the shard fleet
survives injected transport faults — connection refusals, mid-stream
disconnects, corrupt frames, heartbeat-only stalls, blind 5xx answers —
without changing a single output bit.  Truncated or garbled streams are
*transport* errors (never silently short results); a failed partition
fails over to a healthy shard; a shard that keeps failing is ejected by
its circuit breaker and re-admitted through half-open ``/healthz``
probes; and when every remote is gone the completion service classifies
the leftovers in-process, so a job succeeds (degraded) whenever at
least one executor exists.  The hypothesis fault matrix drives a seeded
:class:`~repro.service.faults.FaultPlan` through a
:class:`~repro.service.faults.ChaosProxy` and pins bit-identical
catalogs under arbitrary fault sequences.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SelectionConfig
from repro.core.selection import PatternSelector
from repro.exceptions import (
    EnumerationLimitError,
    JobValidationError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    ShardTimeoutError,
    ShardTransportError,
)
from repro.service import (
    AsyncServiceServer,
    ChaosProxy,
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    SchedulerService,
    ServiceClient,
    ShardCoordinator,
    ShardTask,
    is_retryable,
)
from repro.service.serialize import catalog_to_dict
from repro.service.shard import LocalShard, RemoteShard
from repro.workloads import three_point_dft_paper

CFG = SelectionConfig(span_limit=1)

COMMON = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Aggressive-but-cheap recovery policy for tests: microsecond backoff,
#: short timeouts, single-strike breakers where noted.
FAST = RetryPolicy(
    connect_timeout=2.0,
    read_timeout=15.0,
    stream_idle_timeout=5.0,
    retries=2,
    backoff_base=0.001,
    backoff_cap=0.002,
    jitter=0.0,
    breaker_cooldown=0.05,
)

#: Nothing listens here (port 9 is discard); connections refuse fast.
DEAD_URL = "http://127.0.0.1:9"


def catalog_bits(catalog) -> str:
    return json.dumps(catalog_to_dict(catalog))


def fused_catalog(dfg, capacity, config=CFG):
    return PatternSelector(capacity, config=config).build_catalog(dfg)


def _claim(dfg, n, size=4):
    """One shard claim over ``n`` planned seed ranges of ``dfg``."""
    from repro.exec.process import plan_seed_partitions

    return ShardTask(
        size=size,
        span_limit=1,
        max_count=None,
        ranges=plan_seed_partitions(dfg, n)[0],
        workload="3dft",
    )


@pytest.fixture(scope="module")
def server():
    srv = AsyncServiceServer(port=0)
    srv.start_background()
    yield srv
    srv.shutdown()


# --------------------------------------------------------------------------- #
# retry policy
# --------------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=1.0, jitter=0.5)
        for attempt in (1, 2, 3, 8):
            d1 = policy.delay(attempt, salt="http://a:1")
            d2 = policy.delay(attempt, salt="http://a:1")
            assert d1 == d2  # replayable, no RNG
            base = min(1.0, 0.1 * 2 ** (attempt - 1))
            assert base <= d1 <= base * 1.5
        # Different salts jitter differently (with overwhelming odds).
        assert policy.delay(1, salt="http://a:1") != policy.delay(
            1, salt="http://b:2"
        )

    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_cap=4.0, jitter=0.0)
        assert [policy.delay(k) for k in (1, 2, 3, 4, 5)] == [
            0.5, 1.0, 2.0, 4.0, 4.0,
        ]

    def test_validation(self):
        with pytest.raises(ServiceError, match="timeouts"):
            RetryPolicy(read_timeout=0)
        with pytest.raises(ServiceError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ServiceError, match="breaker_threshold"):
            RetryPolicy(breaker_threshold=0)

    def test_round_trips_to_dict(self):
        policy = RetryPolicy(retries=5, breaker_threshold=7)
        assert RetryPolicy(**policy.to_dict()) == policy

    def test_is_retryable_partitions_the_error_space(self):
        assert is_retryable(ShardTransportError("reset"))
        assert is_retryable(ShardTimeoutError("slow"))
        assert is_retryable(ServiceOverloadedError("busy"))
        assert is_retryable(ServiceUnavailableError("draining"))
        blind = ServiceError("boom")
        blind.http_status = 500
        assert is_retryable(blind)
        assert not is_retryable(ServiceError("generic"))
        assert not is_retryable(JobValidationError("bad field"))
        assert not is_retryable(EnumerationLimitError("too many"))


# --------------------------------------------------------------------------- #
# circuit breaker state machine
# --------------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = [0.0]
        b = CircuitBreaker(threshold=3, cooldown=10.0, clock=lambda: clock[0])
        b.record_failure()
        b.record_failure()
        assert b.state_now() == CircuitBreaker.CLOSED
        b.record_failure()
        assert b.state_now() == CircuitBreaker.OPEN
        assert b.opens == 1

    def test_success_resets_the_streak(self):
        b = CircuitBreaker(threshold=2, cooldown=10.0)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state_now() == CircuitBreaker.CLOSED

    def test_half_open_probe_readmits_or_reopens(self):
        clock = [0.0]
        b = CircuitBreaker(threshold=1, cooldown=5.0, clock=lambda: clock[0])
        b.record_failure()
        assert b.state_now() == CircuitBreaker.OPEN
        clock[0] = 4.9
        assert b.state_now() == CircuitBreaker.OPEN
        clock[0] = 5.0
        # Promotion happens exactly once: the observer owns the probe.
        assert b.state_now() == CircuitBreaker.HALF_OPEN
        assert b.half_opens == 1
        # Probe fails → re-open for another cool-down.
        b.record_failure()
        assert b.state_now() == CircuitBreaker.OPEN
        assert b.opens == 2
        clock[0] = 10.0
        assert b.state_now() == CircuitBreaker.HALF_OPEN
        # Probe succeeds → closed, healthy again.
        b.record_success()
        assert b.state_now() == CircuitBreaker.CLOSED
        assert b.closes == 1

    def test_to_dict_surfaces_transitions(self):
        b = CircuitBreaker(threshold=1, cooldown=60.0)
        b.record_failure()
        d = b.to_dict()
        assert d["state"] == "open"
        assert d["opens"] == 1 and d["failures"] == 1


# --------------------------------------------------------------------------- #
# fault plans
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_seeded_plans_replay_identically(self):
        a = FaultPlan.from_seed(1234, 20)
        b = FaultPlan.from_seed(1234, 20)
        assert a.specs == b.specs
        assert FaultPlan.from_seed(1235, 20).specs != a.specs

    def test_consumption_is_ordered_and_bounded(self):
        plan = FaultPlan([FaultSpec("refuse"), "corrupt"])
        assert plan.next_spec().kind == "refuse"
        assert plan.next_spec().kind == "corrupt"
        assert plan.exhausted
        # Exhausted plans hand out clean passes forever.
        assert plan.next_spec().kind == "pass"
        assert plan.faults_injected() == 2
        assert plan.counts() == {"refuse": 1, "corrupt": 1}

    def test_rejects_unknown_kinds(self):
        with pytest.raises(ServiceError, match="fault kind"):
            FaultSpec("gremlins")


# --------------------------------------------------------------------------- #
# client-level fault typing: every death is a typed transport error
# --------------------------------------------------------------------------- #
class TestClientFaultTyping:
    def _stream_all(self, client, claim, **kwargs):
        return list(client.classify_shard_stream(claim, **kwargs))

    def test_truncated_stream_is_transport_error_not_short_result(
        self, server
    ):
        # The stream dies after one slot frame: the client must raise,
        # never return a short result.
        dfg = three_point_dft_paper()
        claim = _claim(dfg, 3)
        plan = FaultPlan([FaultSpec("disconnect", after_frames=1)])
        with ChaosProxy(server.url, plan) as proxy:
            with ServiceClient(proxy.url, timeout=10) as client:
                with pytest.raises(ShardTransportError):
                    self._stream_all(client, claim)

    def test_garbled_frame_is_transport_error(self, server):
        dfg = three_point_dft_paper()
        claim = _claim(dfg, 3)
        plan = FaultPlan([FaultSpec("corrupt", after_frames=1)])
        with ChaosProxy(server.url, plan) as proxy:
            with ServiceClient(proxy.url, timeout=10) as client:
                with pytest.raises(ShardTransportError):
                    self._stream_all(client, claim)

    def test_heartbeat_only_stall_trips_idle_timeout(self, server):
        # Heartbeats prove the connection is alive, not that work is
        # progressing: a heartbeat-only stream must raise the *timeout*
        # flavour once stream_idle_timeout elapses.
        dfg = three_point_dft_paper()
        claim = _claim(dfg, 2)
        plan = FaultPlan([FaultSpec("heartbeat_stall")])
        with ChaosProxy(server.url, plan) as proxy:
            with ServiceClient(proxy.url, timeout=10) as client:
                with pytest.raises(ShardTimeoutError, match="stall"):
                    self._stream_all(client, claim, idle_timeout=0.3)

    def test_repeated_refusal_is_typed_and_names_the_endpoint(self):
        with ServiceClient(DEAD_URL, timeout=0.5) as client:
            with pytest.raises(ShardTransportError, match="cannot reach"):
                client.health()


# --------------------------------------------------------------------------- #
# RemoteShard retries: recover without repeating or dropping a slot
# --------------------------------------------------------------------------- #
class TestRemoteShardRetry:
    def test_stream_resumes_after_disconnect_without_duplicates(
        self, server
    ):
        dfg = three_point_dft_paper()
        claim = _claim(dfg, 4)
        with ServiceClient(server.url, timeout=10) as direct:
            want = {
                slot: payload
                for slot, payload, _ in direct.classify_shard_stream(claim)
            }
        plan = FaultPlan([FaultSpec("disconnect", after_frames=1)])
        with ChaosProxy(server.url, plan) as proxy:
            shard = RemoteShard(proxy.url, retry=FAST)
            try:
                got: dict[int, list] = {}
                for slot, payload, _cache in shard.classify_stream(claim):
                    assert slot not in got, "slot answered twice"
                    got[slot] = payload
            finally:
                shard.client.close()
        assert shard.retries_used >= 1
        assert sorted(got) == sorted(want)
        assert all(got[s] == want[s] for s in want)

    def test_blind_500s_are_retried_and_counted_exactly(self, server):
        # Two injected 500s, then the plan runs dry: the call succeeds
        # and the retry accounting equals the injected fault count.
        dfg = three_point_dft_paper()
        claim = _claim(dfg, 1)
        plan = FaultPlan([FaultSpec("error_500"), FaultSpec("error_500")])
        with ChaosProxy(server.url, plan) as proxy:
            shard = RemoteShard(proxy.url, retry=FAST)
            try:
                [(slot, rows, _cache)] = shard.classify_stream(claim)
            finally:
                shard.client.close()
        assert slot == 0 and isinstance(rows, list)
        assert rows  # classified for real after the faults
        assert shard.retries_used == 2 == plan.faults_injected()

    def test_injected_503_envelope_is_retryable(self, server):
        dfg = three_point_dft_paper()
        claim = _claim(dfg, 1)
        plan = FaultPlan([FaultSpec("error_503")])
        with ChaosProxy(server.url, plan) as proxy:
            shard = RemoteShard(proxy.url, retry=FAST)
            try:
                [(_slot, rows, _cache)] = shard.classify_stream(claim)
            finally:
                shard.client.close()
        assert isinstance(rows, list) and rows
        assert shard.retries_used == 1 == plan.faults_injected()

    def test_retry_budget_exhaustion_raises_the_transport_error(self):
        shard = RemoteShard(
            DEAD_URL,
            retry=RetryPolicy(
                connect_timeout=0.5, read_timeout=1.0, retries=1,
                backoff_base=0.0, jitter=0.0,
            ),
        )
        dfg = three_point_dft_paper()
        claim = _claim(dfg, 1)
        try:
            with pytest.raises(ShardTransportError):
                list(shard.classify_stream(claim))
        finally:
            shard.client.close()
        assert shard.retries_used == 1

    def test_deterministic_errors_are_never_retried(self, server):
        # An enumeration limit must surface as itself, immediately —
        # the adaptive-span ladder depends on it.
        doomed = ShardTask(
            size=5, span_limit=4, max_count=1, ranges=((0, 1, 2, 3),),
            workload="3dft",
        )
        shard = RemoteShard(server.url, retry=FAST)
        try:
            [(slot, error, cache)] = shard.classify_stream(doomed)
        finally:
            shard.client.close()
        assert slot == 0 and cache is None
        assert isinstance(error, EnumerationLimitError)
        assert shard.retries_used == 0


# --------------------------------------------------------------------------- #
# coordinator failover + breakers + local fallback
# --------------------------------------------------------------------------- #
class TestCoordinatorFailover:
    def test_dead_shard_fails_over_to_healthy_shard(self):
        dfg = three_point_dft_paper()
        reference = catalog_bits(fused_catalog(dfg, 4))
        service = SchedulerService()
        policy = RetryPolicy(
            connect_timeout=0.5, read_timeout=2.0, retries=0,
            backoff_base=0.0, jitter=0.0, breaker_threshold=1,
            breaker_cooldown=30.0,
        )
        try:
            with ShardCoordinator(
                [LocalShard(service), DEAD_URL], retry=policy
            ) as coord:
                built = coord.build_catalog(dfg, 4, config=CFG)
                assert catalog_bits(built) == reference
                assert coord.stats.failovers >= 1
                assert coord.stats.local_fallbacks == 0
                assert coord.breakers[1].state == CircuitBreaker.OPEN
                assert coord.breakers[0].state == CircuitBreaker.CLOSED
        finally:
            service.close()

    def test_all_shards_dead_degrades_to_local_classification(self):
        dfg = three_point_dft_paper()
        reference = catalog_bits(fused_catalog(dfg, 4))
        policy = RetryPolicy(
            connect_timeout=0.5, read_timeout=2.0, retries=0,
            backoff_base=0.0, jitter=0.0, breaker_threshold=1,
            breaker_cooldown=30.0,
        )
        with ShardCoordinator([DEAD_URL], retry=policy) as coord:
            built = coord.build_catalog(dfg, 4, config=CFG)
            assert catalog_bits(built) == reference
            assert coord.stats.local_fallbacks >= 1
            assert coord.breakers[0].state == CircuitBreaker.OPEN
            assert coord.stats.to_dict()["local_fallbacks"] >= 1

    def test_half_open_probe_readmits_a_recovered_shard(self, server):
        # Open the breaker against a dead endpoint, then point the
        # shard at a live server and let the half-open probe re-admit
        # it: the next build must dispatch remotely again.
        dfg = three_point_dft_paper()
        reference = catalog_bits(fused_catalog(dfg, 4))
        policy = RetryPolicy(
            connect_timeout=0.5, read_timeout=10.0, retries=0,
            backoff_base=0.0, jitter=0.0, breaker_threshold=1,
            breaker_cooldown=0.0,
        )
        with ShardCoordinator([DEAD_URL], retry=policy) as coord:
            shard = coord.shards[0]
            built = coord.build_catalog(dfg, 4, config=CFG)
            assert catalog_bits(built) == reference
            assert coord.breakers[0].state == CircuitBreaker.OPEN
            # The shard recovers (same handle, live endpoint)...
            shard.client.close()
            coord.shards[0] = RemoteShard(server.url, retry=policy)
            coord.shards[0].on_retry = coord._note_shard_retry
            coord.service.clear_caches()
            before = coord.stats.tasks_per_shard[0]
            built = coord.build_catalog(dfg, 4, config=CFG)
            assert catalog_bits(built) == reference
            # ...the probe re-admitted it and it did real work.
            assert coord.stats.breaker_probes >= 1
            assert coord.breakers[0].state == CircuitBreaker.CLOSED
            assert coord.stats.tasks_per_shard[0] > before
            coord.shards[0].client.close()

    def test_deterministic_failure_propagates_despite_failover(self):
        # Failover only covers transport faults: a typed enumeration
        # limit must still surface (the adaptive-span ladder needs it).
        from repro.workloads.synthetic import layered_dag

        # Cap above the level-width floor (500), below the count (1962),
        # so the limit is raised by the shards, not the pre-flight.
        cfg = SelectionConfig(
            span_limit=2, max_antichains=1000, adaptive_span=False
        )
        dfg = layered_dag(3, layers=2, width=8, edge_prob=0.3)
        with ShardCoordinator.local(2) as coord:
            with pytest.raises(EnumerationLimitError):
                coord.build_catalog(dfg, 5, config=cfg)
            assert sum(s.service.stats.shard_tasks for s in coord.shards) > 0

    def test_stats_surface_through_completion_service_describe(self):
        service = SchedulerService()
        try:
            with ShardCoordinator.local(
                2, service=service, retry=FAST
            ) as coord:
                dfg = three_point_dft_paper()
                coord.build_catalog(dfg, 4, config=CFG)
                source = service.describe()["sources"]["coordinator"]
                assert source["stats"]["planned"] >= 1
                assert [h["state"] for h in source["health"]] == [
                    "closed", "closed",
                ]
                assert source["retry"]["retries"] == FAST.retries
            # Closing the coordinator unregisters the source.
            assert "coordinator" not in service.describe()["sources"]
        finally:
            service.close()

    def test_coordinator_describe_includes_health_and_policy(self):
        with ShardCoordinator.local(1, retry=FAST) as coord:
            described = coord.describe()
            assert described["retry"]["backoff_base"] == FAST.backoff_base
            assert described["health"][0]["state"] == "closed"


# --------------------------------------------------------------------------- #
# the fault matrix: seeded chaos, bit-identical catalogs
# --------------------------------------------------------------------------- #
class TestFaultMatrix:
    @COMMON
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_seeded_fault_sequences_keep_catalogs_bit_identical(
        self, server, seed, n_faults
    ):
        dfg = three_point_dft_paper()
        reference = catalog_bits(fused_catalog(dfg, 4))
        plan = FaultPlan.from_seed(seed, n_faults)
        with ChaosProxy(server.url, plan) as proxy:
            with ShardCoordinator([proxy.url], retry=FAST) as coord:
                built = coord.build_catalog(
                    dfg, 4, config=CFG, workload="3dft"
                )
                stats = coord.stats
                shard = coord.shards[0]
                # Zero job failures while an executor exists, and
                # not one bit of drift — the whole point.
                assert catalog_bits(built) == reference
                # Accounting is consistent with what was injected:
                # the coordinator saw exactly the shard's retries,
                # and recovery happened iff faults surfaced.
                assert stats.retries == shard.retries_used
                recoveries = (
                    stats.retries
                    + stats.failovers
                    + stats.local_fallbacks
                )
                assert recoveries >= 0
                if plan.faults_injected() == 0:
                    assert recoveries == 0
                for breaker in coord.breakers:
                    d = breaker.to_dict()
                    assert d["opens"] >= d["closes"]
                    if plan.faults_injected() == 0:
                        assert d["state"] == "closed"

    @COMMON
    @given(st.integers(0, 10_000))
    def test_chaos_with_a_healthy_sibling_never_goes_local(
        self, server, seed
    ):
        # With one clean shard in the fleet, failover alone must absorb
        # every fault: bit-identical output and no local fallback.
        dfg = three_point_dft_paper()
        reference = catalog_bits(fused_catalog(dfg, 4))
        sibling = SchedulerService()
        plan = FaultPlan.from_seed(seed, 4)
        try:
            with ChaosProxy(server.url, plan) as proxy:
                with ShardCoordinator(
                    [proxy.url, LocalShard(sibling)], retry=FAST
                ) as coord:
                    built = coord.build_catalog(
                        dfg, 4, config=CFG, workload="3dft"
                    )
                    assert catalog_bits(built) == reference
                    assert coord.stats.local_fallbacks == 0
        finally:
            sibling.close()
