"""Sharded pattern generation across scheduler-service instances.

The paper's admitted bottleneck is pattern generation — antichain counts
grow as ``C(width, size)`` (§5.1, Table 5) — and the seed-partition merge
every partitioned build uses is *associative*: the antichain DFS visits each
seed node's subtree contiguously and in ascending seed order, so disjoint
seed partitions classified anywhere and merged in partition order
reproduce the sequential enumeration bit for bit.  This module fans those
partitions out beyond one machine:

.. code-block:: text

                         ShardCoordinator
                               |
            SchedulerService._build_catalog (the one build path)
                               |
           plan_seed_partitions(dfg, EDIT_PARTITIONS = 16)
             (ascending, contiguous, weight-balanced; fixed
              by the graph alone, whatever the fleet size)
                               |
                 ┌─────────────▼─────────────┐
                 │ shard-partial cache probe │  hit → no shard traffic
                 │ (completion service's     │  (memory LRU, disk with
                 │  content-addressed store) │   cache_dir)
                 └─────────────┬─────────────┘
                        misses │ → steal queue (dynamic dispatch: a
                               │   remote shard claims its share,
                               │   ceil(misses / shards), a local
                               │   shard one range at a time)
                      /        |           \\
            LocalShard   RemoteShard   RemoteShard
        (SchedulerService) (HTTP /v1/catalog:shard:stream: one
                            ShardTask per claim, one classify
                            call for the claim's misses)
                      \\        |           /
           results land by partition index; every fresh
           partial written back through the cache seam
                               |
          merge_classified_parts (ascending-seed order)
                               |
          bit-identical PatternCatalog → prime completion
          service's catalog cache → selection + scheduling

A *shard* is anything that can classify seed partitions: a local
in-process :class:`~repro.service.service.SchedulerService`
(:class:`LocalShard`) or a remote ``repro serve`` instance reached
through :class:`~repro.service.http.ServiceClient`
(:class:`RemoteShard`, ``POST /v1/catalog:shard:stream``).  The
coordinator has no build path of its own: it runs the completion
service's partitioned build
(:meth:`~repro.service.service.SchedulerService._build_catalog`) — the
same plan of :data:`~repro.service.service.EDIT_PARTITIONS` partitions,
the same probe of the **content-addressed partial cache** (key: the
*partition's* subgraph digest + seed range + capacity + enumeration
bounds; see :func:`repro.service.service.shard_partial_key`, so partials
survive graph edits outside a partition's support and only dirty
partitions are ever dispatched), the same write-back and merge — and
supplies only the step that classifies the misses: the steal loop
(:meth:`ShardCoordinator._dispatch`), which hands them to whichever shard
frees up first.  Because the plan is the graph's, not the fleet's, a
cache directory filled by one service answers a fleet of any size, and
the other way round.  A build has at most 16 partitions, so shards
beyond 16 sit idle.

One claim is one :class:`ShardTask`: the graph and the attempt's bounds
once, plus the claimed seed ranges.  The shard server probes each range
against its own partial cache and classifies the claim's misses in one
call of its backend's partition step
(:attr:`~repro.exec.backend.ExecutionBackend.classify_partitions`), so a repeated
partition answers with cache level ``shard`` and zero DFS — and with a
shared ``--cache-dir``, partials computed by any instance answer every
instance, restarts included.

Bit-identity is the contract, not an aspiration: the merged catalog —
pattern set, antichain counts, per-node frequencies and every Counter's
insertion order — equals the single-instance fused catalog, for every
shard count, any completion order (the steal loop makes ordering
timing-dependent; the index-addressed merge makes it irrelevant) and
through partial-cache hits, memory or disk — pinned by
``tests/test_service_shard.py``.
"""

from __future__ import annotations

import dataclasses
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
from repro.service.service import SchedulerService, SubmitOutcome

if TYPE_CHECKING:  # pragma: no cover
    from repro.patterns.enumeration import PatternCatalog

__all__ = [
    "ShardTask",
    "LocalShard",
    "RemoteShard",
    "ShardCoordinator",
    "CoordinatorStats",
]

_TASK_FIELDS = {"size", "span_limit", "max_count", "ranges", "workload", "dfg"}


@dataclass(frozen=True)
class ShardTask:
    """One shard claim: a graph, one attempt's bounds, and its seed ranges.

    The graph and the bounds travel once per claim, however many ranges
    it carries.  Seeds are node indices into the graph's insertion order
    — stable across the wire because DFG JSON payloads preserve node
    order.  The graph travels by workload name when possible (both sides
    build the identical graph from the registry) and inline otherwise.

    Attributes
    ----------
    size:
        Antichain size bound for this attempt (capacity already capped by
        ``max_pattern_size`` at the coordinator).
    span_limit:
        Span bound for this attempt (the coordinator owns adaptive-span
        retries; shards only ever see one concrete attempt).
    max_count:
        Global antichain ceiling; a classify pass whose ranges alone
        exceed it fails the attempt exactly like a fused DFS would.
    ranges:
        The claimed seed partitions, in ascending order: each an
        ascending run of node indices whose DFS subtrees are classified,
        each starting above the previous one's last seed.  Stream frame
        ``slot`` ``i`` answers ``ranges[i]``.
    workload / dfg:
        Exactly one names the graph, as in :class:`JobRequest`.
    """

    size: int
    span_limit: int | None
    max_count: int | None
    ranges: tuple[tuple[int, ...], ...]
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
        try:
            ranges = tuple(tuple(seeds) for seeds in self.ranges)
        except TypeError:
            ranges = ()
        object.__setattr__(self, "ranges", ranges)
        seeds = [s for run in ranges for s in run]
        if not (
            ranges
            and all(ranges)
            and all(isinstance(s, int) and s >= 0 for s in seeds)
            and all(a < b for a, b in zip(seeds, seeds[1:]))
        ):
            raise JobValidationError(
                f"ranges must be a non-empty list of non-empty seed lists, "
                f"ascending within and across ranges, got {self.ranges!r}",
                field="ranges",
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
        """JSON-safe wire form (an inline graph via ``to_payload``, once)."""
        out: dict[str, Any] = {
            "size": self.size,
            "span_limit": self.span_limit,
            "max_count": self.max_count,
            "ranges": [list(seeds) for seeds in self.ranges],
        }
        if self.workload is not None:
            out["workload"] = self.workload
        if self.dfg is not None:
            out["dfg"] = to_payload(self.dfg)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

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
            ranges=payload.get("ranges"),
            workload=payload.get("workload"),
            dfg=dfg,
        )


# --------------------------------------------------------------------------- #
# shard handles
# --------------------------------------------------------------------------- #
class LocalShard:
    """An in-process :class:`SchedulerService` acting as one shard.

    The steal loop hands a local shard one range per claim: there is no
    round trip to amortise, so the queue keeps its finest granularity.
    """

    def __init__(self, service: SchedulerService) -> None:
        self.service = service

    def classify(
        self, task: ShardTask
    ) -> "list[tuple[list[tuple] | BaseException, str | None]]":
        return self.service.classify_shard_outcome(task)

    def classify_stream(
        self, task: ShardTask
    ) -> "Iterator[tuple[int, list[tuple] | BaseException, str | None]]":
        """Yield ``(slot, rows_or_error, None)`` per claimed range, in order.

        Routes through :meth:`classify` so subclasses (test shims) keep
        their per-claim behaviour.
        """
        for slot, (payload, _cache) in enumerate(self.classify(task)):
            yield slot, payload, None

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
    limits) propagate immediately.  A retried stream resumes: ranges whose
    frames already landed are never re-requested, so the coordinator
    sees each slot at most once and merged output stays bit-identical.
    """

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
        self, task: ShardTask
    ) -> "list[tuple[list[tuple], str | None] | BaseException]":
        """:meth:`classify_stream` drained into range order: one
        ``(rows, cache)`` or slot-local exception per claimed range."""
        out: "list[Any]" = [None] * len(task.ranges)
        for slot, payload, cache in self.classify_stream(task):
            out[slot] = (
                payload if isinstance(payload, BaseException) else (payload, cache)
            )
        return out

    def classify_stream(
        self, task: ShardTask
    ) -> "Iterator[tuple[int, list[tuple] | BaseException, str | None]]":
        """Stream a claim: yield ``(slot, rows_or_error, cache)`` per range.

        One ``POST /v1/catalog:shard:stream``
        (:meth:`~repro.service.http.ServiceClient.classify_shard_stream`)
        carries the whole claim; ``slot`` indexes ``task.ranges``.

        Fault behaviour: a stream that dies mid-flight (disconnect,
        truncation — no ``{"done": true}`` frame — corrupt frame, or a
        heartbeat-only stall past ``retry.stream_idle_timeout``) is
        retried with backoff, re-requesting **only the ranges that have
        not answered yet**; already-yielded slots are never repeated.
        """
        answered: "set[int]" = set()
        attempt = 0
        while True:
            remaining = [
                i for i in range(len(task.ranges)) if i not in answered
            ]
            if not remaining:
                return
            sub = dataclasses.replace(
                task, ranges=tuple(task.ranges[i] for i in remaining)
            )
            try:
                for slot, payload, cache in self.client.classify_shard_stream(
                    sub, idle_timeout=self.retry.stream_idle_timeout
                ):
                    if not (0 <= slot < len(remaining)):
                        raise ShardTransportError(
                            f"shard stream answered invalid slot "
                            f"{slot} for a {len(remaining)}-range claim"
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
                        "every claimed range"
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
    classify attempts of successful builds, adaptive-span retries
    included); ``partial_hits`` of them were answered by the
    coordinator-side partial cache without any shard traffic, and the
    remaining ``partial_misses`` were ``dispatched`` to whichever shard
    freed up first.  ``remote_partial_hits`` counts dispatched ranges a
    *remote* shard answered from its own partial cache (stream cache
    level ``shard`` — no DFS ran anywhere).  ``claim_rounds`` counts
    steal-loop claims: a remote shard claims up to its share of the
    dispatch, ``ceil(misses / shards)`` ranges, per round trip, so
    ``dispatched / claim_rounds`` is the realised claim size.
    ``tasks_per_shard`` records how the dynamic loop actually spread the
    ranges; :meth:`steals` derives how many ran on a shard beyond its
    even share — the work stealing at work.

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
        clients, URLs).  Builds use the completion service's plan of
        :data:`~repro.service.service.EDIT_PARTITIONS` weight-balanced
        partitions whatever the shard count (so at most 16 shards are
        ever busy); a dynamic dispatch loop hands each missed partition
        to whichever shard frees up first, so an idle shard steals the
        next unclaimed range instead of waiting on a static assignment.
        Completion order cannot matter: results land by partition index
        and merge in ascending-seed order.
    service:
        The completion service that runs selection + scheduling against
        the merged catalog, owns the result/selection caches **and** the
        coordinator-side shard-partial cache — with ``cache_dir`` set, a
        restarted coordinator (or a sibling on the same directory)
        answers warm partitions from disk without any shard traffic.  A
        private one is created — and closed with the coordinator — when
        omitted.
    retry:
        The :class:`~repro.service.retry.RetryPolicy` governing every
        recovery knob: per-attempt timeouts and same-shard retry budget
        for :class:`RemoteShard` handles built from URLs/clients, plus
        the per-shard circuit breakers' threshold and cool-down.
        Defaults to ``RetryPolicy()``.  Pre-built shard handles keep
        their own policies.

    Failover is always on.  A partition whose shard fails or times out —
    after that shard's own retry budget — is re-enqueued on the steal
    queue and claimed by a healthy shard; each shard carries a circuit
    breaker that ejects it from the loop after
    ``retry.breaker_threshold`` consecutive failures (re-admitted via
    half-open ``/healthz`` probes after ``retry.breaker_cooldown``); and
    partitions nobody healthy will take are classified in-process by the
    completion service as a last resort, so a build degrades instead of
    failing while at least one executor exists.  Deterministic failures
    (validation, enumeration limits) never fail over — they propagate,
    lowest partition first.  Failover is pure placement: results land by
    partition index, so recovered runs stay bit-identical.

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
        retry: "RetryPolicy | None" = None,
    ) -> None:
        if not shards:
            raise ServiceError("need at least one shard")
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ServiceError(
                f"retry must be a RetryPolicy, got {type(retry).__name__}"
            )
        self.retry = retry if retry is not None else RetryPolicy()
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
        }

    @classmethod
    def local(
        cls,
        n: int,
        *,
        service: SchedulerService | None = None,
        retry: "RetryPolicy | None" = None,
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
            coord = cls(owned, service=completion, retry=retry)
            coord._owns_service = True
        else:
            coord = cls(owned, service=service, retry=retry)
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

        Runs the completion service's partitioned build
        (:meth:`~repro.service.service.SchedulerService._build_catalog`:
        the selector's size/adaptive-span policy, the 16-partition plan,
        the partial-cache probe, write-back and merge) with the steal
        loop (:meth:`_dispatch`) as its miss classifier, and books the
        partition counts it returns.  ``workload`` lets claims travel by
        registry name instead of shipping the graph.  Call it outside
        the completion service's lock: the dispatch workers write
        partials back through it.
        """
        config = config if config is not None else SelectionConfig()
        if config.store_antichains:
            raise PatternError(
                "sharded pattern generation cannot store raw antichains; "
                "use the serial backend with store_antichains"
            )

        def classify(ranges, weights, size, span_limit, max_count, land):
            self._dispatch(
                dfg,
                ShardTask(
                    size=size,
                    span_limit=span_limit,
                    max_count=max_count,
                    ranges=ranges,
                    workload=workload,
                    dfg=None if workload is not None else dfg,
                ),
                weights,
                land,
            )

        catalog, hits, misses = self.service._build_catalog(
            dfg, PatternSelector(capacity, config=config), classify
        )
        with self._stats_lock:
            self.stats.planned += hits + misses
            self.stats.partial_hits += hits
            self.stats.partial_misses += misses
        return catalog

    def _dispatch(
        self,
        dfg: DFG,
        task: ShardTask,
        weights: "list[int]",
        land: "Callable[[int, list[tuple]], None]",
    ) -> None:
        """Classify the missed ranges of ``task`` over the shards, stealing.

        ``task`` carries every missed range of one attempt; each claim
        is the same task cut down to the claimed ranges, and each landed
        frame's rows go to ``land(i, rows)`` (``i`` indexing
        ``task.ranges``), which writes them back.  One worker thread per
        shard pulls the next unclaimed range index from the shared queue
        — a fast (or partial-cache-warm) shard simply comes back for more
        while a slow one is still classifying: a fine-grained dynamic
        queue across service instances.  Workers start from the shards
        whose breakers are not open, so a healthy shard takes the work
        before the local fallback does.

        A remote shard claims its share of the dispatch,
        ``ceil(ranges / shards)`` consecutive unclaimed indices computed
        once per dispatch, as one streamed ``/v1/catalog:shard:stream``
        request (:meth:`RemoteShard.classify_stream`): the graph travels
        once per claim and the server classifies the claim's misses in
        one pass.  Each slot's partial lands, and writes back through the
        cache seam, as its frame arrives.  Local shards claim one range
        at a time — there is no trip to amortise and single claims keep
        stealing at its finest granularity.

        Error behaviour is deterministic regardless of thread timing:
        after a failure, workers keep claiming only ranges *below* the
        lowest failed index (``pending`` is ascending, so one
        front-of-queue check suffices) — every lower range is always
        attempted, higher ones are abandoned — and the error of the
        lowest-index failing range is re-raised.  A transient fault on a
        late range therefore cannot mask an earlier range's
        :class:`~repro.exceptions.EnumerationLimitError`, which the
        adaptive-span loop must see as itself to retry.  Within a claim,
        failures stay slot-local: the other claimed ranges' results are
        kept.

        *Retryable* failures — transport deaths, timeouts, truncated
        streams, backpressure — never enter the failure list at all: the
        unanswered ranges are re-enqueued (ascending, merged back into
        the queue) for a healthy shard to claim, the failing shard's
        circuit breaker records the strike, and a worker whose breaker
        opens leaves the loop (it re-enters half-open via a ``/healthz``
        probe after the cool-down).  Idle workers wait while claims are
        in flight elsewhere instead of exiting, so a requeued range
        always finds a claimant.  A range that has been re-enqueued
        ``breaker_threshold × shards`` times hard-fails with its last
        transport error — the backstop against a poison range
        ping-ponging forever.  Ranges still pending when every worker has
        left (every remote ejected) are classified in-process by the
        completion service in one pass, so the build succeeds degraded
        whenever at least one executor exists.
        """
        cond = threading.Condition()
        lock = cond  # pending/failures/stats share the condition's lock
        pending: deque[int] = deque(range(len(task.ranges)))
        share = -(-len(pending) // len(self.shards))
        failures: list[tuple[int, BaseException]] = []
        attempts: dict[int, int] = {}
        inflight = 0
        # A range may be failed over at most once per failing round, and
        # every shard's breaker opens after breaker_threshold consecutive
        # failing rounds — so threshold × shards re-enqueues is the worst
        # case of a fully dying fleet.  The +1 keeps such a range alive
        # through total ejection (it must reach the local fallback); only
        # a genuinely poisonous range that keeps killing re-admitted
        # shards ever hits the cap.
        attempt_cap = max(1, self.retry.breaker_threshold) * len(self.shards) + 1

        def fail_floor_locked() -> "int | None":
            return min(pair[0] for pair in failures) if failures else None

        def requeue_locked(indices: "list[int]", exc: BaseException) -> None:
            """Re-enqueue failed-over ranges (ascending merge); a range
            past the attempt cap hard-fails instead."""
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
            claim_limit = share if isinstance(shard, RemoteShard) else 1
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
                        # of leaving.
                        if inflight == 0:
                            return
                        cond.wait()
                    claimed = []
                    while pending and len(claimed) < claim_limit:
                        if floor is not None and pending[0] > floor:
                            break
                        claimed.append(pending.popleft())
                    inflight += len(claimed)
                    self.stats.claim_rounds += 1
                    self.stats.dispatched += len(claimed)
                    self.stats.tasks_per_shard[shard_index] += len(claimed)
                claim = dataclasses.replace(
                    task, ranges=tuple(task.ranges[i] for i in claimed)
                )
                remote_hits = 0
                failed_here = False
                answered: set[int] = set()
                stop = False
                try:
                    try:
                        for slot, payload, cache in shard.classify_stream(claim):
                            if (
                                not (0 <= slot < len(claimed))
                                or slot in answered
                            ):
                                raise ServiceError(
                                    f"shard answered invalid or duplicate "
                                    f"slot {slot} for a "
                                    f"{len(claimed)}-range claim"
                                )
                            answered.add(slot)
                            i = claimed[slot]
                            if isinstance(payload, BaseException):
                                if is_retryable(payload):
                                    # Slot-local transport/backpressure
                                    # failure: fail the range over, keep
                                    # consuming the stream.
                                    with lock:
                                        requeue_locked([i], payload)
                                else:
                                    with lock:
                                        failures.append((i, payload))
                                    failed_here = True
                                continue
                            try:
                                # The write-back happens per frame, while
                                # the shard's remaining slots may still be
                                # in flight — and inside the try: a
                                # failing cache store (disk full,
                                # permissions) must surface as this
                                # range's failure, not silently kill the
                                # worker and leave the merge a None part.
                                land(i, payload)
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
                                f"{len(claimed)} claimed ranges"
                            )
                    except BaseException as exc:
                        # A whole-call failure (transport death,
                        # malformed or truncated stream) concerns the
                        # *unanswered* claimed indices — already-landed
                        # frames are kept.  Retryable → fail them over
                        # and let the breaker decide this shard's fate;
                        # deterministic → the lowest unanswered index
                        # carries the error.
                        unanswered = [
                            claimed[s]
                            for s in range(len(claimed))
                            if s not in answered
                        ]
                        with lock:
                            self.stats.remote_partial_hits += remote_hits
                            if is_retryable(exc) and unanswered:
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

        # Shards whose breakers are open go last, so a healthy shard
        # takes the work before an ejected one turns its worker away.
        order = sorted(
            range(len(self.shards)),
            key=lambda s: self.breakers[s].state == CircuitBreaker.OPEN,
        )[: len(pending)]
        if len(order) == 1:
            worker(order[0])
        else:
            threads = [
                threading.Thread(target=worker, args=(s,), daemon=True)
                for s in order
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        floor = fail_floor_locked()
        leftovers = [i for i in pending if floor is None or i <= floor]
        if leftovers:
            # Every worker has left (breakers open, shards gone) with
            # work still on the queue: classify the leftovers below any
            # recorded failure in-process on the completion service, in
            # one pass — the job succeeds degraded as long as one
            # executor exists, and the lowest-failure contract holds.
            try:
                self.service._classify_here(dfg, self.service.backend)(
                    [task.ranges[i] for i in leftovers],
                    [weights[i] for i in leftovers],
                    task.size,
                    task.span_limit,
                    task.max_count,
                    lambda j, rows: land(leftovers[j], rows),
                )
                self.stats.local_fallbacks += len(leftovers)
            except BaseException as exc:
                failures.append((leftovers[0], exc))
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
        # Check, resolve + probe under the service lock (graph registries
        # and stores are lock-protected everywhere else), but do NOT hold
        # it across the shard fan-out: a dispatch worker writing a
        # partial back through this service would deadlock.  An unknown
        # backend name fails here, as on a single service, before any
        # shard sees the job.
        with self.service._lock:
            self.service._check_backend_name(request)
            dfg, digest = self.service._resolve_input(request.workload, request.dfg)
            # Already cached at some level (result or catalog, memory or
            # disk)?  Then the completion service answers without any
            # shard traffic at all.  Probed with get, not `in`: a corrupt
            # file is a miss (and get removes it), and a hit lands in the
            # memory front the completion service reads next.
            cached = (
                self.service._results.get(request.job_key(digest)) is not None
                or self.service._catalogs.get(request.catalog_key(digest))
                is not None
            )
        if not cached:
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
