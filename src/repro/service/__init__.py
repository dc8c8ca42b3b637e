"""Scheduling-as-a-service: the job-oriented public API.

Callers submit :class:`JobRequest` jobs to a long-lived
:class:`SchedulerService` that content-addresses graphs
(:func:`repro.dfg.io.dfg_digest`) and caches catalogs, selections and full
results in keyed LRUs::

    from repro.service import JobRequest, SchedulerService

    service = SchedulerService()
    result = service.submit(JobRequest(capacity=5, pdef=4, workload="3dft"))
    result.schedule.length          # cycles
    service.stats.result_hits      # cache accounting

Graph edits are first-class: an :class:`EditRequest` wraps a base job
with :class:`~repro.dfg.edit.DfgEdit` operations, and
:meth:`SchedulerService.submit_edit` rebuilds only the partitions whose
subgraph digest the edit actually changed (cache level ``edit``).

Over the wire the same API is ``repro serve`` + :class:`ServiceClient`
(``docs/WIRE_PROTOCOL.md`` is the normative wire description).  The
server is the asyncio core (:class:`AsyncServiceServer`,
:mod:`repro.service.aio` — long-lived keep-alive connections, priority
scheduling, per-client token-bucket quotas, graceful drain, streamed
shard responses with heartbeats); :func:`serve` is its blocking entry
point.  :class:`ServiceClient` (:mod:`repro.service.http`) is the one
client: sync, with pooled keep-alive connections.  Requests and results
round-trip losslessly through JSON; every failure crosses as the
unified error envelope (:mod:`repro.service.errors`) and re-raises as
its own typed exception.

Scaling seams layered on top:

* :class:`ShardCoordinator` (:mod:`repro.service.shard`) fans the
  catalog build out over shard services — local or remote — and merges
  bit-identically; remote shards stream partials as they complete;
* :class:`CacheStore` (:mod:`repro.service.store`) puts the cache
  levels behind pluggable storage; ``cache_dir=...`` persists them to
  disk across restarts and instances;
* ``max_pending=...`` bounds admission
  (:class:`~repro.exceptions.ServiceOverloadedError` → HTTP 429);
* :class:`RetryPolicy` + :class:`CircuitBreaker`
  (:mod:`repro.service.retry`) make the shard fleet fault-tolerant:
  per-attempt timeouts, same-shard retries with deterministic-jitter
  backoff, partition failover onto healthy shards, per-shard breakers
  with half-open ``/healthz`` probes, and in-process last-resort
  classification when every remote is down;
* :class:`FaultPlan` + :class:`ChaosProxy` (:mod:`repro.service.faults`)
  inject seeded, replayable transport faults for testing all of the
  above deterministically.
"""

from repro.service.aio import AsyncServiceServer, serve
from repro.service.errors import (
    error_envelope,
    error_from_envelope,
    http_status,
    retry_after_of,
)
from repro.service.faults import ChaosProxy, FaultPlan, FaultSpec
from repro.service.http import ServiceClient
from repro.service.jobs import EditRequest, JobRequest, JobResult
from repro.service.retry import CircuitBreaker, RetryPolicy, is_retryable
from repro.service.service import SchedulerService, ServiceStats, SubmitOutcome
from repro.service.shard import (
    CoordinatorStats,
    LocalShard,
    RemoteShard,
    ShardCoordinator,
    ShardTask,
)
from repro.service.store import (
    CacheStore,
    DiskCacheStore,
    MemoryCacheStore,
    gc_cache_dir,
)

__all__ = [
    "EditRequest",
    "JobRequest",
    "JobResult",
    "SchedulerService",
    "ServiceStats",
    "SubmitOutcome",
    "ServiceClient",
    "AsyncServiceServer",
    "serve",
    "error_envelope",
    "error_from_envelope",
    "http_status",
    "retry_after_of",
    "ShardCoordinator",
    "ShardTask",
    "LocalShard",
    "RemoteShard",
    "CoordinatorStats",
    "RetryPolicy",
    "CircuitBreaker",
    "is_retryable",
    "FaultSpec",
    "FaultPlan",
    "ChaosProxy",
    "CacheStore",
    "MemoryCacheStore",
    "DiskCacheStore",
    "gc_cache_dir",
]
