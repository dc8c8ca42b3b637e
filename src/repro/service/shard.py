"""Sharded pattern generation across scheduler-service instances.

The paper's admitted bottleneck is pattern generation — antichain counts
grow as ``C(width, size)`` (§5.1, Table 5) — and the seed-partition merge
the process backend uses is *associative*: the antichain DFS visits each
seed node's subtree contiguously and in ascending seed order, so disjoint
seed partitions classified anywhere and merged in partition order
reproduce the sequential enumeration bit for bit.  This module fans those
partitions out beyond one machine:

.. code-block:: text

                         ShardCoordinator
                               |
           plan_seed_partitions (ascending, contiguous,
            weight-balanced, ~4x finer than shard count)
                               |
                 ┌─────────────▼─────────────┐
                 │ shard-partial cache probe │  hit → no shard traffic
                 │ (completion service's     │  (memory LRU, disk with
                 │  content-addressed store) │   cache_dir)
                 └─────────────┬─────────────┘
                        misses │ → steal queue (dynamic dispatch:
                               │   idle shard takes next range)
                      /        |           \\
            LocalShard   RemoteShard   RemoteShard
        (SchedulerService) (HTTP /v1/catalog:shard:stream,
                            cache "shard" on a warm partial)
                      \\        |           /
           results land by partition index; every fresh
           partial written back through the cache seam
                               |
          merge_classified_parts (ascending-seed order)
                               |
          bit-identical PatternCatalog → prime completion
          service's catalog cache → selection + scheduling

A *shard* is anything that can classify one seed partition: a local
in-process :class:`~repro.service.service.SchedulerService`
(:class:`LocalShard`) or a remote ``repro serve`` instance reached
through :class:`~repro.service.http.ServiceClient`
(:class:`RemoteShard`, ``POST /v1/catalog:shard:stream``).  The coordinator
plans the same contiguous ascending partitions the process backend uses
(:func:`repro.exec.process.plan_seed_partitions`) — weight-balanced
against the per-seed subtree cost model and cut
:data:`PARTITIONS_PER_SHARD`× finer than the shard count — probes each
against the completion service's **content-addressed partial cache**
(key: the *partition's* subgraph digest + seed range + capacity +
enumeration bounds; see
:func:`repro.service.service.shard_partial_key`, so partials survive
graph edits outside a partition's support and only dirty partitions are
ever dispatched), hands the misses to whichever shard frees up first
(work stealing; remote shards claim up to ``claim_batch`` unclaimed
ranges per streamed HTTP round trip), merges the per-shard int frequency
arrays in ascending-seed order
(:func:`repro.exec.process.merge_classified_parts`) and completes
selection + scheduling through a local *completion service*, priming its
catalog cache with the merged catalog — so every downstream cache level
(and the disk :class:`~repro.service.store.CacheStore`, when configured)
behaves exactly as if the catalog had been built in-process.  Shard
*servers* cache the same partials under the same keys on their side, so
a repeated partition answers with cache level ``shard`` and zero DFS —
and with a shared ``--cache-dir``, partials computed by any instance
answer every instance, restarts included.

Bit-identity is the contract, not an aspiration: the merged catalog —
pattern set, antichain counts, per-node frequencies and every Counter's
insertion order — equals the single-instance fused catalog, for every
shard count, any completion order (the steal loop makes ordering
timing-dependent; the index-addressed merge makes it irrelevant) and
through partial-cache hits, memory or disk — pinned by
``tests/test_service_shard.py``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.core.config import SelectionConfig
from repro.core.selection import PatternSelector
from repro.dfg.graph import DFG
from repro.dfg.io import from_payload, to_payload
from repro.exceptions import (
    JobValidationError,
    PatternError,
    ReproError,
    ServiceError,
    ShardTransportError,
)
from repro.service.http import ServiceClient
from repro.service.retry import CircuitBreaker, RetryPolicy, is_retryable
from repro.service.jobs import EditRequest, JobRequest, JobResult
from repro.service.service import (
    SchedulerService,
    SubmitOutcome,
    shard_partial_key,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.patterns.enumeration import PatternCatalog

__all__ = [
    "ShardTask",
    "LocalShard",
    "RemoteShard",
    "ShardCoordinator",
    "CoordinatorStats",
]

#: Partitions planned per shard: enough steal granularity for the
#: dynamic dispatch loop to absorb residual subtree skew (the skew-aware
#: planner flattens most of it statically) without drowning remote
#: shards in request round-trips.
PARTITIONS_PER_SHARD = 4

_TASK_FIELDS = {"size", "span_limit", "max_count", "seeds", "workload", "dfg"}


@dataclass(frozen=True)
class ShardTask:
    """One seed-node partition of a catalog build, addressed to one shard.

    ``seeds`` are node indices into the graph's insertion order — stable
    across the wire because DFG JSON payloads preserve node order.  The
    graph travels by workload name when possible (both sides build the
    identical graph from the registry) and inline otherwise.

    Attributes
    ----------
    size:
        Antichain size bound for this attempt (capacity already capped by
        ``max_pattern_size`` at the coordinator).
    span_limit:
        Span bound for this attempt (the coordinator owns adaptive-span
        retries; shards only ever see one concrete attempt).
    max_count:
        Global antichain ceiling; a shard whose partition alone exceeds
        it fails the attempt exactly like a fused DFS would.
    seeds:
        Ascending contiguous node indices whose DFS subtrees this shard
        classifies.
    workload / dfg:
        Exactly one names the graph, as in :class:`JobRequest`.
    """

    size: int
    span_limit: int | None
    max_count: int | None
    seeds: tuple[int, ...]
    workload: str | None = None
    dfg: DFG | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or self.size < 1:
            raise JobValidationError(
                f"size must be an int ≥ 1, got {self.size!r}", field="size"
            )
        if self.span_limit is not None and (
            not isinstance(self.span_limit, int) or self.span_limit < 0
        ):
            raise JobValidationError(
                f"span_limit must be None or an int ≥ 0, "
                f"got {self.span_limit!r}",
                field="span_limit",
            )
        if self.max_count is not None and (
            not isinstance(self.max_count, int) or self.max_count < 1
        ):
            raise JobValidationError(
                f"max_count must be None or an int ≥ 1, "
                f"got {self.max_count!r}",
                field="max_count",
            )
        seeds = tuple(self.seeds)
        object.__setattr__(self, "seeds", seeds)
        if not seeds or not all(isinstance(s, int) and s >= 0 for s in seeds):
            raise JobValidationError(
                f"seeds must be a non-empty sequence of node indices ≥ 0, "
                f"got {self.seeds!r}",
                field="seeds",
            )
        if (self.workload is None) == (self.dfg is None):
            raise JobValidationError(
                "exactly one of 'workload' and 'dfg' must be given",
                field="workload",
            )
        if self.workload is not None and not isinstance(self.workload, str):
            raise JobValidationError(
                f"workload must be a string name, got {self.workload!r}",
                field="workload",
            )
        if self.dfg is not None and not isinstance(self.dfg, DFG):
            raise JobValidationError(
                f"dfg must be a DFG, got {type(self.dfg).__name__}",
                field="dfg",
            )

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe wire form (inline graphs via ``to_payload``)."""
        out: dict[str, Any] = {
            "size": self.size,
            "span_limit": self.span_limit,
            "max_count": self.max_count,
            "seeds": list(self.seeds),
        }
        if self.workload is not None:
            out["workload"] = self.workload
        if self.dfg is not None:
            out["dfg"] = to_payload(self.dfg)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def partial_key(self, dfg: DFG) -> tuple:
        """The content-addressed cache key of this task's classification.

        Delegates to :func:`repro.service.service.shard_partial_key`:
        ``(partition subgraph digest, seed range, capacity, enumeration
        bounds)`` — the same structured key on the coordinator and on the
        ``/v1/catalog:shard:stream`` server side, so a partial computed
        anywhere (and persisted through a
        :class:`~repro.service.store.CacheStore`) answers the identical
        task everywhere,
        :func:`repro.dfg.io.stable_key_digest`-addressable on disk.  The
        digest covers only the facts this task's DFS subtrees can observe
        (:func:`repro.dfg.io.subgraph_digest`), so a graph edit outside
        the partition's support leaves the key — and the cached partial —
        intact.  The backend never appears: partials are bit-identical by
        contract, exactly like the service's other cache levels.
        """
        return shard_partial_key(
            dfg, self.seeds, self.size, self.span_limit, self.max_count
        )

    @classmethod
    def from_dict(cls, payload: Any) -> "ShardTask":
        """Inverse of :meth:`to_dict`; unknown fields are rejected."""
        if not isinstance(payload, dict):
            raise JobValidationError(
                f"malformed shard task: expected an object, "
                f"got {type(payload).__name__}"
            )
        unknown = set(payload) - _TASK_FIELDS
        if unknown:
            raise JobValidationError(
                f"unknown shard task field(s) {sorted(unknown)}",
                field=sorted(unknown)[0],
            )
        if "size" not in payload:
            raise JobValidationError("shard task is missing 'size'", field="size")
        if "seeds" not in payload or not isinstance(payload["seeds"], list):
            raise JobValidationError("shard task needs a 'seeds' list", field="seeds")
        dfg = None
        if "dfg" in payload:
            if not isinstance(payload["dfg"], dict):
                raise JobValidationError(
                    "inline 'dfg' must be a DFG JSON object", field="dfg"
                )
            try:
                dfg = from_payload(payload["dfg"])
            except Exception as exc:
                raise JobValidationError(
                    f"invalid inline DFG: {exc}", field="dfg"
                ) from exc
        return cls(
            size=payload["size"],
            span_limit=payload.get("span_limit"),
            max_count=payload.get("max_count"),
            seeds=tuple(payload["seeds"]),
            workload=payload.get("workload"),
            dfg=dfg,
        )


# --------------------------------------------------------------------------- #
# shard handles
# --------------------------------------------------------------------------- #
class LocalShard:
    """An in-process :class:`SchedulerService` acting as one shard."""

    #: Batched claims only pay off when a claim has round-trip cost; an
    #: in-process shard claims one partition at a time so the dynamic
    #: queue keeps its finest stealing granularity.
    batch_limit = 1

    def __init__(self, service: SchedulerService) -> None:
        self.service = service

    def classify(self, task: ShardTask) -> list[tuple]:
        return self.service.classify_shard(task)

    def classify_stream(
        self, tasks: "Sequence[ShardTask]"
    ) -> "Iterator[tuple[int, list[tuple] | BaseException, str | None]]":
        """Yield ``(slot, rows_or_error, None)`` per task, in task order.

        Routes through :meth:`classify` so subclasses (test shims) keep
        their per-task behaviour; a per-task failure becomes that slot's
        exception instead of aborting the rest of the claim.
        """
        for slot, task in enumerate(tasks):
            try:
                rows = self.classify(task)
            except Exception as exc:  # noqa: BLE001 — slot-local failure
                yield slot, exc, None
            else:
                yield slot, rows, None

    def describe(self) -> str:
        return f"local({self.service.backend.describe()})"

    def probe(self) -> bool:
        """Liveness probe; an in-process service is alive by definition."""
        return True


class RemoteShard:
    """A remote ``repro serve`` instance acting as one shard.

    Every claim is one streamed ``POST /v1/catalog:shard:stream`` under
    the shard's :class:`~repro.service.retry.RetryPolicy`: transport
    failures (connection refusals and resets, timeouts, truncated or
    garbled streams, blind 5xx answers) are retried up to
    ``retry.retries`` times with exponential backoff and deterministic
    jitter, while deterministic typed failures (validation, enumeration
    limits) propagate immediately.  A retried stream resumes: slots whose
    frames already landed are never re-requested, so the coordinator
    sees each slot at most once and merged output stays bit-identical.
    """

    #: Remote claims cost an HTTP round trip each, so the steal loop may
    #: hand a remote shard up to ``ShardCoordinator.claim_batch`` ranges
    #: per trip; ``None`` defers to the coordinator's setting.
    batch_limit: "int | None" = None

    def __init__(
        self,
        client: "ServiceClient | str",
        *,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        if isinstance(client, str):
            client = ServiceClient(
                client,
                timeout=self.retry.read_timeout,
                connect_timeout=self.retry.connect_timeout,
                retry_after_cap=self.retry.retry_after_cap,
            )
        self.client = client
        #: Transport retries this shard has performed (all calls).
        self.retries_used = 0
        #: Optional coordinator hook, called once per retry.
        self.on_retry: "Callable[[BaseException], None] | None" = None

    # ------------------------------------------------------------------ #
    def _note_retry(self, attempt: int, exc: BaseException) -> None:
        """Account one retry and sleep its backoff (jitter included)."""
        self.retries_used += 1
        if self.on_retry is not None:
            self.on_retry(exc)
        delay = self.retry.delay(attempt, salt=self.client.base_url)
        if delay > 0:
            time.sleep(delay)

    def classify_many(
        self, tasks: "Sequence[ShardTask]"
    ) -> "list[tuple[list[tuple], str | None] | BaseException]":
        """:meth:`classify_stream` drained into task order: one
        ``(rows, cache)`` or slot-local exception per task."""
        out: "list[Any]" = [None] * len(tasks)
        for slot, payload, cache in self.classify_stream(tasks):
            out[slot] = (
                payload if isinstance(payload, BaseException) else (payload, cache)
            )
        return out

    def classify_stream(
        self, tasks: "Sequence[ShardTask]"
    ) -> "Iterator[tuple[int, list[tuple] | BaseException, str | None]]":
        """Stream a claimed batch: yield each slot *as it completes*.

        Yields ``(slot, rows_or_error, cache)`` in server completion
        order via ``POST /v1/catalog:shard:stream``
        (:meth:`~repro.service.http.ServiceClient.classify_shard_stream`),
        so the coordinator lands early partials — and writes them back
        through the cache seam — while the shard is still classifying
        its batch-mates.

        Fault behaviour: a stream that dies mid-flight (disconnect,
        truncation — no ``{"done": true}`` frame — corrupt frame, or a
        heartbeat-only stall past ``retry.stream_idle_timeout``) is
        retried with backoff, re-requesting **only the slots that have
        not answered yet**; already-yielded slots are never repeated.
        """
        tasks = list(tasks)
        answered: "set[int]" = set()
        attempt = 0
        while True:
            remaining = [i for i in range(len(tasks)) if i not in answered]
            if not remaining:
                return
            sub = [tasks[i] for i in remaining]
            try:
                for slot, payload, cache in self.client.classify_shard_stream(
                    sub, idle_timeout=self.retry.stream_idle_timeout
                ):
                    if not (0 <= slot < len(sub)):
                        raise ShardTransportError(
                            f"shard stream answered invalid slot "
                            f"{slot} for a {len(sub)}-task claim"
                        )
                    index = remaining[slot]
                    if index in answered:
                        raise ShardTransportError(
                            f"shard stream answered slot {slot} twice"
                        )
                    answered.add(index)
                    yield index, payload, cache
                if any(i not in answered for i in remaining):
                    # A terminal frame before every slot answered is as
                    # truncated as no terminal frame at all.
                    raise ShardTransportError(
                        "shard stream completed without answering "
                        "every claimed slot"
                    )
                return
            except ReproError as exc:
                if not is_retryable(exc) or attempt >= self.retry.retries:
                    raise
                attempt += 1
                self._note_retry(attempt, exc)

    def describe(self) -> str:
        return f"remote({self.client.base_url})"

    def probe(self) -> bool:
        """One ``GET /healthz`` round trip; ``True`` iff it answered
        without draining (a draining shard refuses new work anyway)."""
        try:
            return not self.client.health().get("draining", False)
        except ReproError:
            return False


def _as_shard(
    shard: Any, *, retry: "RetryPolicy | None" = None
) -> "LocalShard | RemoteShard":
    if isinstance(shard, (LocalShard, RemoteShard)):
        return shard
    if isinstance(shard, SchedulerService):
        return LocalShard(shard)
    if isinstance(shard, ServiceClient):
        return RemoteShard(shard, retry=retry)
    if isinstance(shard, str):
        return RemoteShard(shard, retry=retry)
    raise ServiceError(
        f"cannot use {type(shard).__name__} as a shard; expected a "
        f"SchedulerService, ServiceClient, URL string, LocalShard or "
        f"RemoteShard"
    )


# --------------------------------------------------------------------------- #
@dataclass
class CoordinatorStats:
    """Partial-cache and dispatch accounting for one :class:`ShardCoordinator`.

    ``planned`` counts every partition the planner produced (across all
    classify attempts, adaptive-span retries included); ``partial_hits``
    of them were answered by the coordinator-side partial cache without
    any shard traffic, and the remaining ``partial_misses`` were
    ``dispatched`` to whichever shard freed up first.
    ``remote_partial_hits`` counts dispatched tasks a *remote* shard
    answered from its own partial cache (stream cache level ``shard`` — no
    DFS ran anywhere).  ``claim_rounds`` counts steal-loop claim trips:
    a remote shard claims up to ``claim_batch`` unclaimed ranges per
    round trip, so ``dispatched / claim_rounds`` is the realised batch
    factor.  ``tasks_per_shard`` records how the dynamic loop actually
    spread the work; :meth:`steals` derives how many tasks ran on a
    shard beyond its even share — the work stealing at work.

    The fault-tolerance counters account recovery, not work:
    ``retries`` counts same-shard transport retries performed by
    :class:`RemoteShard` handles (backoff included); ``failovers``
    counts partitions re-enqueued onto the steal queue after their
    shard failed or timed out — each is then claimed by whichever
    healthy shard frees up first, and one partition can fail over more
    than once; ``local_fallbacks`` counts partitions the completion
    service classified in-process as a last resort because every remote
    shard was unhealthy; ``breaker_probes`` counts half-open liveness
    probes sent to ejected shards.  A fully healthy run keeps all four
    at zero.
    """

    planned: int = 0
    partial_hits: int = 0
    partial_misses: int = 0
    dispatched: int = 0
    claim_rounds: int = 0
    remote_partial_hits: int = 0
    retries: int = 0
    failovers: int = 0
    local_fallbacks: int = 0
    breaker_probes: int = 0
    tasks_per_shard: list[int] = field(default_factory=list)

    def steals(self) -> int:
        """Dispatched tasks beyond the even per-shard share."""
        if not self.dispatched or not self.tasks_per_shard:
            return 0
        share = -(-self.dispatched // len(self.tasks_per_shard))
        return sum(max(0, c - share) for c in self.tasks_per_shard)

    def to_dict(self) -> dict[str, Any]:
        return {
            "planned": self.planned,
            "partial_hits": self.partial_hits,
            "partial_misses": self.partial_misses,
            "dispatched": self.dispatched,
            "claim_rounds": self.claim_rounds,
            "remote_partial_hits": self.remote_partial_hits,
            "retries": self.retries,
            "failovers": self.failovers,
            "local_fallbacks": self.local_fallbacks,
            "breaker_probes": self.breaker_probes,
            "tasks_per_shard": list(self.tasks_per_shard),
            "steals": self.steals(),
        }


class ShardCoordinator:
    """Fan a catalog build out over shards; merge bit-identically.

    Parameters
    ----------
    shards:
        Shard handles (or anything :func:`_as_shard` coerces: services,
        clients, URLs).  The planner cuts ~:data:`PARTITIONS_PER_SHARD`×
        more weight-balanced partitions than there are shards; a dynamic
        dispatch loop hands each to whichever shard frees up first, so an
        idle shard steals the next unclaimed range instead of waiting on
        a static assignment.  Completion order cannot matter: results
        land by partition index and merge in ascending-seed order.
    service:
        The completion service that runs selection + scheduling against
        the merged catalog, owns the result/selection caches **and** the
        coordinator-side shard-partial cache — with ``cache_dir`` set, a
        restarted coordinator (or a sibling on the same directory)
        answers warm partitions from disk without any shard traffic.  A
        private one is created — and closed with the coordinator — when
        omitted.
    claim_batch:
        Unclaimed partitions a remote shard may claim per steal-loop
        round trip.  Pure strategy: any setting merges bit-identically.
    retry:
        The :class:`~repro.service.retry.RetryPolicy` governing every
        recovery knob: per-attempt timeouts and same-shard retry budget
        for :class:`RemoteShard` handles built from URLs/clients, plus
        the per-shard circuit breakers' threshold and cool-down.
        Defaults to ``RetryPolicy()``.  Pre-built shard handles keep
        their own policies.
    failover:
        When ``True`` (the default) a partition whose shard fails or
        times out — after that shard's own retry budget — is re-enqueued
        on the steal queue and claimed by a healthy shard; each shard
        carries a circuit breaker that ejects it from the loop after
        ``retry.breaker_threshold`` consecutive failures (re-admitted
        via half-open ``/healthz`` probes after ``retry.breaker_cooldown``);
        and partitions nobody healthy will take are classified
        in-process by the completion service as a last resort, so a
        build degrades instead of failing while at least one executor
        exists.  Deterministic failures (validation, enumeration
        limits) never fail over — they propagate, lowest partition
        first, exactly as without failover.  ``False`` restores the
        fail-fast behaviour.  Failover is pure placement: results land
        by partition index, so recovered runs stay bit-identical.

    Examples
    --------
    >>> from repro.service import SchedulerService
    >>> from repro.service.shard import ShardCoordinator
    >>> coord = ShardCoordinator([SchedulerService(), SchedulerService()])
    >>> # coord.submit(JobRequest(...)) — bit-identical to a single service
    """

    def __init__(
        self,
        shards: Sequence[Any],
        *,
        service: SchedulerService | None = None,
        claim_batch: int = 2,
        retry: "RetryPolicy | None" = None,
        failover: bool = True,
    ) -> None:
        if not shards:
            raise ServiceError("need at least one shard")
        if not isinstance(claim_batch, int) or claim_batch < 1:
            raise ServiceError(
                f"claim_batch must be an int ≥ 1, got {claim_batch!r}"
            )
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ServiceError(
                f"retry must be a RetryPolicy, got {type(retry).__name__}"
            )
        self.retry = retry if retry is not None else RetryPolicy()
        self.failover = bool(failover)
        self.shards: list[LocalShard | RemoteShard] = [
            _as_shard(s, retry=self.retry) for s in shards
        ]
        self._stats_lock = threading.Lock()
        for shard in self.shards:
            if isinstance(shard, RemoteShard):
                shard.on_retry = self._note_shard_retry
        #: One circuit breaker per shard, indexed like :attr:`shards`.
        self.breakers: list[CircuitBreaker] = [
            self.retry.breaker() for _ in self.shards
        ]
        self._owns_service = service is None
        self._owned_shards: list[SchedulerService] = []
        self.service = service if service is not None else SchedulerService()
        self.claim_batch = claim_batch
        self.stats = CoordinatorStats(tasks_per_shard=[0] * len(self.shards))
        # Surface dispatch + breaker accounting through the completion
        # service's describe()/``/v1/admin:stats``.
        self.service.register_stats_source("coordinator", self._stats_payload)

    def _note_shard_retry(self, exc: BaseException) -> None:
        """RemoteShard ``on_retry`` hook: account one transport retry."""
        with self._stats_lock:
            self.stats.retries += 1

    def _stats_payload(self) -> dict[str, Any]:
        """The stats-source dict registered on the completion service."""
        return {
            "stats": self.stats.to_dict(),
            "health": [
                {"shard": s.describe(), **b.to_dict()}
                for s, b in zip(self.shards, self.breakers)
            ],
            "retry": self.retry.to_dict(),
            "failover": self.failover,
        }

    @classmethod
    def local(
        cls,
        n: int,
        *,
        service: SchedulerService | None = None,
        claim_batch: int = 2,
        retry: "RetryPolicy | None" = None,
        failover: bool = True,
        **service_kwargs: Any,
    ) -> "ShardCoordinator":
        """A coordinator over ``n`` fresh in-process shard services.

        ``service_kwargs`` go to each shard's :class:`SchedulerService`
        *and* to the auto-created completion service (e.g.
        ``cache_dir=...`` shares one disk cache across all of them — the
        completion service is the side that actually reads and writes
        the catalog/selection/result stores).  An explicitly passed
        ``service`` is used as configured.  The created services are
        owned and closed with the coordinator.
        """
        if n < 1:
            raise ServiceError(f"need n ≥ 1 local shards, got {n}")
        owned = [SchedulerService(**service_kwargs) for _ in range(n)]
        if service is None:
            completion = SchedulerService(**service_kwargs)
            coord = cls(
                owned, service=completion, claim_batch=claim_batch,
                retry=retry, failover=failover,
            )
            coord._owns_service = True
        else:
            coord = cls(
                owned, service=service, claim_batch=claim_batch,
                retry=retry, failover=failover,
            )
        coord._owned_shards = owned
        return coord

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self.service.register_stats_source("coordinator", None)
        if self._owns_service:
            self.service.close()
        for shard_service in self._owned_shards:
            shard_service.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def describe(self) -> dict[str, Any]:
        return {
            "shards": [s.describe() for s in self.shards],
            "service": self.service.describe()["backend"],
            "stats": self.stats.to_dict(),
            "retry": self.retry.to_dict(),
            "failover": self.failover,
            "health": [b.to_dict() for b in self.breakers],
        }

    # ------------------------------------------------------------------ #
    # sharded catalog building
    # ------------------------------------------------------------------ #
    def build_catalog(
        self,
        dfg: DFG,
        capacity: int,
        *,
        config: SelectionConfig | None = None,
        workload: str | None = None,
    ) -> "PatternCatalog":
        """The merged catalog for ``dfg`` — bit-identical to a fused build.

        Applies the selector's exact size/adaptive-span policy
        (:meth:`~repro.core.selection.PatternSelector.build_catalog_with`)
        around sharded classify attempts.  ``workload`` lets tasks travel
        by registry name instead of shipping the graph to every shard.
        """
        config = config if config is not None else SelectionConfig()
        if config.store_antichains:
            raise PatternError(
                "sharded pattern generation cannot store raw antichains; "
                "use the serial backend with store_antichains"
            )
        selector = PatternSelector(capacity, config=config)
        return selector.build_catalog_with(
            dfg,
            lambda size, span: self._classify_sharded(
                dfg,
                size,
                span,
                max_count=config.max_antichains,
                workload=workload,
            ),
        )

    def _classify_sharded(
        self,
        dfg: DFG,
        size: int,
        span_limit: int | None,
        *,
        max_count: int | None,
        workload: str | None,
    ) -> "PatternCatalog":
        """One sharded classify attempt at a concrete (size, span).

        Weight-balanced partitions are cut ~:data:`PARTITIONS_PER_SHARD`×
        finer than the shard count; each is first probed against the
        completion service's content-addressed partial cache (a warm
        rebuild dispatches nothing), the misses go through the dynamic
        steal loop (:meth:`_dispatch`), and every freshly computed
        partial is written back through the cache seam.  Results land by
        partition index, so the ascending-seed merge — and therefore the
        catalog's every bit — is independent of completion order.
        """
        from repro.exec.process import (
            merge_classified_parts,
            plan_seed_partitions,
        )

        partitions = plan_seed_partitions(
            dfg, len(self.shards) * PARTITIONS_PER_SHARD
        )
        tasks = [
            ShardTask(
                size=size,
                span_limit=span_limit,
                max_count=max_count,
                seeds=tuple(seeds),
                workload=workload,
                dfg=None if workload is not None else dfg,
            )
            for seeds in partitions
        ]
        self.stats.planned += len(tasks)
        keys = [task.partial_key(dfg) for task in tasks]
        parts: list[list[tuple] | None] = [None] * len(tasks)
        pending: deque[int] = deque()
        for i, key in enumerate(keys):
            cached = self.service.get_shard_partial(key)
            if cached is not None:
                parts[i] = cached
                self.stats.partial_hits += 1
            else:
                pending.append(i)
                self.stats.partial_misses += 1
        if pending:
            self._dispatch(tasks, keys, parts, pending)
        return merge_classified_parts(
            dfg,
            parts,
            capacity=size,
            span_limit=span_limit,
            max_count=max_count,
        )

    def _dispatch(
        self,
        tasks: list[ShardTask],
        keys: list[tuple],
        parts: "list[list[tuple] | None]",
        pending: "deque[int]",
    ) -> None:
        """Run the pending tasks over the shards, stealing dynamically.

        One worker thread per shard pulls the next unclaimed partition
        index from the shared queue — a fast (or partial-cache-warm)
        shard simply comes back for more while a slow one is still
        classifying, which is exactly the process backend's fine-grained
        dynamic queue lifted to service instances.  Local shards release
        no GIL but remote shards overlap fully.

        Remote shards amortise the claim round trip: each claim takes up
        to ``claim_batch`` consecutive unclaimed indices and classifies
        them in one streamed ``/v1/catalog:shard:stream`` request
        (:meth:`RemoteShard.classify_stream`) — each slot's partial
        lands, and writes back through the cache seam, the moment the
        server finishes it, overlapping the merge-side bookkeeping with
        the partitions still classifying in flight.  Local shards keep
        claiming one at a time — there is no trip to amortise and single
        claims keep stealing at its finest granularity.

        Error behaviour is deterministic regardless of thread timing:
        after a failure, workers keep claiming only partitions *below*
        the lowest failed index (``pending`` is ascending, so one
        front-of-queue check suffices) — every lower partition is always
        attempted, higher ones are abandoned — and the error of the
        lowest-index failing partition is re-raised.  A transient fault
        on a late partition therefore cannot mask an earlier partition's
        :class:`~repro.exceptions.EnumerationLimitError`, which the
        adaptive-span loop must see as itself to retry.  Within a batch,
        failures stay slot-local: the other claimed partitions' results
        are kept.

        With ``failover`` on, *retryable* failures — transport deaths,
        timeouts, truncated streams, backpressure — never enter the
        failure list at all: the unanswered partitions are re-enqueued
        (ascending, merged back into the queue) for a healthy shard to
        claim, the failing shard's circuit breaker records the strike,
        and a worker whose breaker opens leaves the loop (it re-enters
        half-open via a ``/healthz`` probe after the cool-down).  Idle
        workers wait while claims are in flight elsewhere instead of
        exiting, so a requeued partition always finds a claimant.  A
        partition that has been re-enqueued ``breaker_threshold × shards``
        times hard-fails with its last transport error — the backstop
        against a poison partition ping-ponging forever.  Partitions
        still pending when every worker has left (every remote ejected)
        are classified in-process by the completion service, ascending,
        so the build succeeds degraded whenever at least one executor
        exists.
        """
        cond = threading.Condition()
        lock = cond  # pending/failures/stats share the condition's lock
        failures: list[tuple[int, BaseException]] = []
        attempts: dict[int, int] = {}
        inflight = 0
        # A partition may be failed over at most once per failing round,
        # and every shard's breaker opens after breaker_threshold
        # consecutive failing rounds — so threshold × shards re-enqueues
        # is the worst case of a fully dying fleet.  The +1 keeps such a
        # partition alive through total ejection (it must reach the
        # local fallback); only a genuinely poisonous partition that
        # keeps killing re-admitted shards ever hits the cap.
        attempt_cap = max(1, self.retry.breaker_threshold) * len(self.shards) + 1

        def fail_floor_locked() -> "int | None":
            return min(pair[0] for pair in failures) if failures else None

        def requeue_locked(indices: "list[int]", exc: BaseException) -> None:
            """Re-enqueue failed-over partitions (ascending merge); a
            partition past the attempt cap hard-fails instead."""
            survivors = []
            for i in indices:
                attempts[i] = attempts.get(i, 0) + 1
                if attempts[i] >= attempt_cap:
                    failures.append((i, exc))
                else:
                    survivors.append(i)
            if survivors:
                merged = sorted(set(survivors) | set(pending))
                pending.clear()
                pending.extend(merged)
                self.stats.failovers += len(survivors)
            cond.notify_all()

        def worker(shard_index: int) -> None:
            nonlocal inflight
            shard = self.shards[shard_index]
            breaker = self.breakers[shard_index]
            batch_limit = shard.batch_limit or self.claim_batch
            while True:
                # Health gate: an open breaker ejects this shard from
                # the steal loop; half-open admits exactly one /healthz
                # probe that decides between re-admission and another
                # cool-down.
                state = breaker.state_now()
                if state == CircuitBreaker.OPEN:
                    return
                if state == CircuitBreaker.HALF_OPEN:
                    with lock:
                        self.stats.breaker_probes += 1
                    if shard.probe():
                        breaker.record_success()
                    else:
                        breaker.record_failure()
                        return
                with lock:
                    while True:
                        floor = fail_floor_locked()
                        claimable = bool(pending) and (
                            floor is None or pending[0] <= floor
                        )
                        if claimable:
                            break
                        # Nothing claimable right now.  While other
                        # workers still hold claims, a failover may yet
                        # re-queue work below the floor — wait instead
                        # of leaving (failover off keeps the old exit).
                        if inflight == 0 or not self.failover:
                            return
                        cond.wait()
                    claimed = []
                    while pending and len(claimed) < batch_limit:
                        if floor is not None and pending[0] > floor:
                            break
                        claimed.append(pending.popleft())
                    inflight += len(claimed)
                    self.stats.claim_rounds += 1
                    self.stats.dispatched += len(claimed)
                    self.stats.tasks_per_shard[shard_index] += len(claimed)
                remote_hits = 0
                failed_here = False
                answered: set[int] = set()
                stop = False
                try:
                    try:
                        for slot, payload, cache in shard.classify_stream(
                            [tasks[i] for i in claimed]
                        ):
                            if (
                                not (0 <= slot < len(claimed))
                                or slot in answered
                            ):
                                raise ServiceError(
                                    f"shard answered invalid or duplicate "
                                    f"slot {slot} for a "
                                    f"{len(claimed)}-task claim"
                                )
                            answered.add(slot)
                            i = claimed[slot]
                            if isinstance(payload, BaseException):
                                if self.failover and is_retryable(payload):
                                    # Slot-local transport/backpressure
                                    # failure: fail the partition over,
                                    # keep consuming the stream.
                                    with lock:
                                        requeue_locked([i], payload)
                                else:
                                    with lock:
                                        failures.append((i, payload))
                                    failed_here = True
                                continue
                            try:
                                parts[i] = payload
                                # The write-back happens per frame, while
                                # the shard's remaining slots are still
                                # classifying — and inside the try: a
                                # failing cache store (disk full,
                                # permissions) must surface as this
                                # partition's failure, not silently kill
                                # the worker and leave the merge a None
                                # part.
                                self.service.put_shard_partial(
                                    keys[i], payload
                                )
                            except BaseException as exc:
                                with lock:
                                    failures.append((i, exc))
                                failed_here = True
                                continue
                            if cache == "shard":
                                remote_hits += 1
                        if len(answered) != len(claimed):
                            raise ShardTransportError(
                                f"shard answered {len(answered)} of "
                                f"{len(claimed)} claimed tasks"
                            )
                    except BaseException as exc:
                        # A whole-call failure (transport death,
                        # malformed or truncated stream) concerns the
                        # *unanswered* claimed indices — already-landed
                        # frames are kept.  Retryable → fail them over
                        # and let the breaker decide this shard's fate;
                        # deterministic → the lowest unanswered index
                        # carries the error, exactly as without
                        # failover.
                        unanswered = [
                            claimed[s]
                            for s in range(len(claimed))
                            if s not in answered
                        ]
                        with lock:
                            self.stats.remote_partial_hits += remote_hits
                            if (
                                self.failover
                                and is_retryable(exc)
                                and unanswered
                            ):
                                requeue_locked(unanswered, exc)
                            else:
                                failures.append(
                                    (
                                        min(unanswered)
                                        if unanswered
                                        else claimed[0],
                                        exc,
                                    )
                                )
                                stop = True
                        if not stop:
                            breaker.record_failure()
                        continue
                    breaker.record_success()
                    if remote_hits:
                        with lock:
                            self.stats.remote_partial_hits += remote_hits
                    if failed_here:
                        stop = True
                finally:
                    with lock:
                        inflight -= len(claimed)
                        cond.notify_all()
                    if stop:
                        return

        n_workers = min(len(self.shards), len(pending))
        if n_workers <= 1:
            worker(0)
        else:
            threads = [
                threading.Thread(target=worker, args=(s,), daemon=True)
                for s in range(n_workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if self.failover and pending:
            # Every worker has left (breakers open, shards gone) with
            # work still on the queue: classify the leftovers in-process
            # on the completion service, ascending, stopping below any
            # recorded failure — the job succeeds degraded as long as
            # one executor exists, and the lowest-failure contract
            # holds.
            floor = fail_floor_locked()
            while pending:
                i = pending.popleft()
                if floor is not None and i > floor:
                    break
                try:
                    rows = self.service.classify_shard(tasks[i])
                    parts[i] = rows
                    self.service.put_shard_partial(keys[i], rows)
                    self.stats.local_fallbacks += 1
                except BaseException as exc:
                    failures.append((i, exc))
                    break
        if failures:
            raise min(failures, key=lambda pair: pair[0])[1]

    # ------------------------------------------------------------------ #
    # job submission
    # ------------------------------------------------------------------ #
    def submit_outcome(self, request: JobRequest) -> SubmitOutcome:
        """Run one job with a sharded catalog build; see :meth:`submit`."""
        if not isinstance(request, JobRequest):
            raise JobValidationError(
                f"expected a JobRequest, got {type(request).__name__}"
            )
        # Resolve + probe under the service lock (graph registries and
        # stores are lock-protected everywhere else), but do NOT hold it
        # across the shard fan-out: a LocalShard wrapping this very
        # service would deadlock classifying from a pool thread.
        with self.service._lock:
            dfg, digest = self.service._resolve_input(request.workload, request.dfg)
            # Already cached at some level (result or catalog, memory or
            # disk)?  Then the completion service answers without any
            # shard traffic at all.
            answered = request.job_key(digest) in self.service._results
            has_catalog = request.catalog_key(digest) in self.service._catalogs
        if not answered and not has_catalog:
            catalog = self.build_catalog(
                dfg,
                request.capacity,
                config=request.config,
                workload=request.workload,
            )
            self.service.prime_catalog(request, catalog)
        return self.service.submit_outcome(request)

    def submit(self, request: JobRequest) -> JobResult:
        """Submit one job; the catalog stage fans out across the shards.

        Selection and scheduling run on the completion service (they are
        sequential and sub-10 ms on realistic catalogs); the result is
        bit-identical to a single-instance submit and lands in the same
        caches under the same keys.
        """
        return self.submit_outcome(request).result

    def submit_edit_outcome(self, request: EditRequest) -> SubmitOutcome:
        """Run an edited job; only *dirty* partitions reach the shards.

        The completion service resolves the base graph and applies the
        edits (:meth:`SchedulerService.resolve_edit`); the derived job
        then goes through the ordinary sharded submit, where every
        partition whose subgraph digest survived the edit is answered by
        the partial cache without any shard traffic — the coordinator
        dispatches only the dirty partitions.
        """
        return self.submit_outcome(self.service.resolve_edit(request))

    def submit_edit(self, request: EditRequest) -> JobResult:
        """Submit an edit of a previously known job; see
        :meth:`submit_edit_outcome`."""
        return self.submit_edit_outcome(request).result

    # ------------------------------------------------------------------ #
    def pipeline(
        self,
        capacity: int,
        pdef: int,
        *,
        config: SelectionConfig | None = None,
        **kwargs: Any,
    ) -> "Any":
        """A :class:`~repro.pipeline.Pipeline` with a sharded catalog stage.

        The returned pipeline's ``catalog`` stage fans out over this
        coordinator's shards; everything else (selection, scheduling,
        metrics, per-stage timing hooks) is the ordinary pipeline.
        """
        from repro.pipeline import Pipeline

        config = config if config is not None else SelectionConfig()
        return Pipeline(
            capacity,
            pdef,
            config=config,
            catalog_builder=lambda dfg: self.build_catalog(
                dfg, capacity, config=config
            ),
            **kwargs,
        )
