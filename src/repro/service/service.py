"""The long-lived scheduling service (``SchedulerService``).

Instead of paying full catalog + selection cost per call, callers
**submit jobs** to a resident service that

* keys work by **content**: graphs are canonicalized and SHA-256-digested
  (:func:`repro.dfg.io.dfg_digest`), so structurally identical graphs
  share cached work no matter how or where they were built;
* caches at **four levels**, each a keyed LRU —

  ===========  ========================================================
  level        key
  ===========  ========================================================
  catalog      ``(dfg_digest, capacity, enumeration-config fields)``
  selection    ``(catalog key, pdef, full config)``
  result       ``(dfg_digest, capacity, pdef, config, priority)``
  shard        ``(subgraph digest of the partition's seed range,
               seed range, capacity, bounds)`` — per-partition
               classification partials (:func:`shard_partial_key`),
               shared by every partitioned build — in process, on
               a shard fleet and behind the shard endpoint
  ===========  ========================================================

  so a ``pdef`` sweep re-uses one catalog, a re-submitted job returns its
  bit-identical :class:`~repro.service.jobs.JobResult` from the result
  cache, and an edited config invalidates exactly the levels it touches;
* rebuilds **incrementally after graph edits**: cold catalog builds run
  partition by partition against the shard-partial cache (a
  ``store_antichains`` config builds in one piece, on the sequential
  classifier), whose keys are content-addressed at *partition* granularity
  (:func:`repro.dfg.io.subgraph_digest` hashes only the facts a
  partition's DFS subtrees can observe) — so after a
  :meth:`SchedulerService.submit_edit`, untouched partitions are served
  bit-identically from cache (on disk and across instances) and only the
  dirty region is re-enumerated, reported as cache level ``"edit"``;
* batches: :meth:`SchedulerService.submit_many` dedups identical jobs
  (same job key → computed once, result shared) before running, so a
  sweep submitted as one batch does no duplicate work even intra-batch;
* storage is a **seam**: each cache level sits behind a
  :class:`~repro.service.store.CacheStore` — in-memory LRUs by default,
  disk-backed stores when constructed with ``cache_dir`` (catalogs,
  selections and results then survive restarts and can be shared between
  service instances via a common cache directory);
* admission is **bounded**: with ``max_pending`` set, a submission
  arriving while that many are already pending is rejected with a typed
  :class:`~repro.exceptions.ServiceOverloadedError` (HTTP 429) instead
  of queueing without bound.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.analysis.metrics import schedule_stats
from repro.core.selection import PatternSelector, SelectionResult
from repro.dfg.antichains import AntichainEnumerator
from repro.dfg.edit import apply_edits
from repro.dfg.graph import DFG
from repro.dfg.io import dfg_digest, subgraph_digest
from repro.dfg.validate import validate_dfg
from repro.exceptions import (
    JobValidationError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.exec import process
from repro.exec.bitset import bitset_availability
from repro.exec.process import (
    EDIT_PARTITIONS,
    estimate_seed_weights,
    merge_classified_parts,
    plan_seed_partitions,
)
from repro.scheduling.scheduler import MultiPatternScheduler
from repro.service.jobs import EditRequest, JobRequest, JobResult
from repro.service.store import MemoryCacheStore, open_cache_stores

if TYPE_CHECKING:  # pragma: no cover
    from repro.patterns.enumeration import PatternCatalog
    from repro.service.shard import ShardTask

__all__ = [
    "EDIT_PARTITIONS",
    "SchedulerService",
    "ServiceStats",
    "SubmitOutcome",
    "shard_partial_key",
]

#: Cache levels, deepest first — the level names reported per submit.
#: ``"edit"`` marks a catalog rebuilt incrementally: at least one seed
#: partition was served from the content-addressed partial cache instead
#: of re-running its enumeration DFS.
CACHE_LEVELS = ("result", "selection", "catalog", "edit", "none")

#: The "classify these misses" step of :meth:`SchedulerService._build_catalog`:
#: ``classify(ranges, weights, size, span_limit, max_count, land)``
#: classifies each seed range ``ranges[j]`` (``weights[j]`` its estimated
#: DFS weight) and hands its rows to ``land(j, rows)``, which writes them
#: back; it raises the error of a range it cannot classify.
MissClassifier = Callable[..., None]


def shard_partial_key(
    dfg: DFG,
    seeds: Sequence[int],
    size: int,
    span_limit: int | None,
    max_count: int | None,
) -> tuple:
    """The content-addressed cache key of one seed partition's partial.

    Keyed by :func:`repro.dfg.io.subgraph_digest` of the partition's seed
    range — which hashes only the facts the partition's DFS subtrees can
    observe — rather than the whole-graph digest, so an edit outside the
    partition's support leaves its key (and therefore its cached partial,
    on disk and across instances) intact.  Contiguous seed ranges collapse
    to a ``range`` so the key stays O(1) bytes on arbitrarily large graphs
    (:func:`repro.dfg.io.stable_key_json` encodes ranges structurally).
    Shared by the partitioned catalog build — in process and on a shard
    fleet — and the shard endpoint
    (:meth:`SchedulerService.classify_shard_outcome`).
    """
    seeds = tuple(seeds)
    digest = subgraph_digest(dfg, seeds)
    key_seeds: "Sequence[int] | range" = seeds
    if seeds and seeds == tuple(range(seeds[0], seeds[-1] + 1)):
        key_seeds = range(seeds[0], seeds[-1] + 1)
    return ("shard-partial", digest, size, span_limit, max_count, key_seeds)


@dataclass
class ServiceStats:
    """Cache hit/miss accounting across a service's lifetime.

    ``submitted`` counts every job that reached :meth:`SchedulerService.submit`
    (batch members included); ``deduped`` counts batch members answered by
    an identical sibling within the same :meth:`~SchedulerService.submit_many`
    call *without* reaching the caches at all.  ``shard_tasks`` counts
    every seed range a shard claim probed
    (:meth:`~SchedulerService.classify_shard_outcome`); ``shard_hits`` /
    ``shard_misses`` split those by whether the content-addressed shard
    partial cache answered (a hit runs **no** enumeration DFS at all).
    ``not_modified`` counts single-result answers the HTTP front-end
    sent as ``304 Not Modified`` because the caller's ``If-None-Match``
    named the answer's ``ETag``; each is also booked as the submit it
    answered (``submitted``, ``result_hits``).
    ``edit_jobs`` counts :meth:`~SchedulerService.submit_edit` calls;
    ``partition_hits`` / ``partition_misses`` account the per-partition
    probes of this service's own (in-process) partitioned catalog builds
    the same way ``shard_hits`` / ``shard_misses`` do for shard claims; a
    coordinator's fleet builds are booked on its
    :class:`~repro.service.shard.CoordinatorStats` instead.

    ``stage_seconds`` / ``stage_counts`` aggregate the per-stage
    wall-clock of every *computed* stage (the same numbers each
    :class:`~repro.service.jobs.JobResult` carries per submit) — cache
    hits contribute nothing, so the ``X-Repro-Cache`` miss path is
    directly observable in ``GET /stats``.
    """

    submitted: int = 0
    deduped: int = 0
    rejected: int = 0
    not_modified: int = 0
    edit_jobs: int = 0
    shard_tasks: int = 0
    shard_hits: int = 0
    shard_misses: int = 0
    partition_hits: int = 0
    partition_misses: int = 0
    result_hits: int = 0
    result_misses: int = 0
    selection_hits: int = 0
    selection_misses: int = 0
    catalog_hits: int = 0
    catalog_misses: int = 0
    stage_seconds: dict[str, float] = dataclasses.field(default_factory=dict)
    stage_counts: dict[str, int] = dataclasses.field(default_factory=dict)

    def record_stages(self, timings: "dict[str, float]") -> None:
        """Fold one submit's computed-stage timings into the aggregates."""
        for stage, seconds in timings.items():
            self.stage_seconds[stage] = (
                self.stage_seconds.get(stage, 0.0) + seconds
            )
            self.stage_counts[stage] = self.stage_counts.get(stage, 0) + 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "submitted": self.submitted,
            "deduped": self.deduped,
            "rejected": self.rejected,
            "not_modified": self.not_modified,
            "edit_jobs": self.edit_jobs,
            "shard_tasks": self.shard_tasks,
            "shard_hits": self.shard_hits,
            "shard_misses": self.shard_misses,
            "partition_hits": self.partition_hits,
            "partition_misses": self.partition_misses,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
            "selection_hits": self.selection_hits,
            "selection_misses": self.selection_misses,
            "catalog_hits": self.catalog_hits,
            "catalog_misses": self.catalog_misses,
            "stage_seconds": dict(self.stage_seconds),
            "stage_counts": dict(self.stage_counts),
        }


@dataclass(frozen=True)
class SubmitOutcome:
    """A :class:`JobResult` plus how much of it came from cache.

    ``cache`` is the deepest cache level that answered: ``"result"`` (the
    whole job), ``"selection"`` (catalog + selection reused, schedule
    recomputed — only reachable for jobs differing in ``priority``),
    ``"catalog"`` (catalog reused), ``"edit"`` (catalog rebuilt
    incrementally — at least one seed partition served from the
    content-addressed partial cache) or ``"none"`` (cold).
    """

    result: JobResult
    cache: str = "none"


class SchedulerService:
    """A resident scheduler serving :class:`~repro.service.jobs.JobRequest` jobs.

    Parameters
    ----------
    workloads:
        Name → zero-argument DFG builder registry for workload-by-name
        requests (default: :data:`repro.workloads.WORKLOADS`).
    catalog_cache / selection_cache / result_cache / shard_cache:
        LRU sizes of the four cache levels (with ``cache_dir``, the size
        of each disk store's in-process memory front).  ``shard_cache``
        holds content-addressed shard partials — the per-seed-partition
        classification results behind every partitioned build and the
        shard endpoint — keyed by
        ``(partition subgraph digest, seed range, capacity, enumeration
        bounds)`` (:func:`shard_partial_key`).
    cache_dir:
        Optional directory for disk-backed cache stores
        (:class:`~repro.service.store.DiskCacheStore`): catalogs,
        selections, results and shard partials persist across restarts
        and are shared by every service instance pointed at the same
        directory.  Default ``None`` keeps the historical in-memory LRUs.
    cache_max_bytes:
        Optional per-namespace byte budget for the disk stores
        (ignored without ``cache_dir``); writes prune the namespace
        least-recently-used-first back under the budget.  Enforcement
        is per instance — on a cache directory shared between
        processes, use ``repro cache-gc`` for a strict global budget.
    max_pending:
        Admission bound: maximum submissions pending at once (executing
        included); the next one is rejected with
        :class:`~repro.exceptions.ServiceOverloadedError`.  ``None``
        (default) admits everything.
    timer:
        Stage clock (injectable for tests).
    """

    def __init__(
        self,
        *,
        workloads: "dict[str, Callable[[], DFG]] | None" = None,
        catalog_cache: int = 64,
        selection_cache: int = 256,
        result_cache: int = 1024,
        shard_cache: int = 256,
        cache_dir: "str | os.PathLike[str] | None" = None,
        cache_max_bytes: int | None = None,
        max_pending: int | None = None,
        timer: Callable[[], float] = time.perf_counter,
    ) -> None:
        if workloads is None:
            from repro.workloads import WORKLOADS

            workloads = dict(WORKLOADS)
        if max_pending is not None and max_pending < 1:
            raise ServiceError(
                f"max_pending must be ≥ 1 (or None), got {max_pending}"
            )
        self._workloads = workloads
        self.cache_dir = cache_dir
        (
            self._catalogs,
            self._selections,
            self._results,
            self._shard_parts,
        ) = open_cache_stores(
            cache_dir,
            catalog_size=catalog_cache,
            selection_size=selection_cache,
            result_size=result_cache,
            shard_size=shard_cache,
            max_bytes=cache_max_bytes,
        )
        # digest → first-seen graph object: keeps one canonical DFG per
        # content class so the analysis caches warm up on a single object
        # instead of per-request copies.
        self._graphs = MemoryCacheStore(catalog_cache)
        self._named_graphs: dict[str, DFG] = {}
        self.stats = ServiceStats()
        self.timer = timer
        self._lock = threading.RLock()
        self.max_pending = max_pending
        self._pending = 0
        self._pending_lock = threading.Lock()
        # name → zero-arg callable returning a JSON-safe dict, merged
        # into describe()["sources"]; the shard coordinator registers
        # its dispatch/health accounting here so ``/stats`` can surface
        # breaker state without the HTTP layer knowing coordinators
        # exist.
        self._stats_sources: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # admission control
    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Submissions currently admitted and not yet finished."""
        return self._pending

    @contextmanager
    def _admitted(self) -> Iterator[None]:
        """One admission slot for the duration of a submission.

        The pending counter is taken *before* the service lock, so
        requests that would only wait in line are rejected immediately —
        a bounded queue, not a bounded run rate.  A batch holds exactly
        one slot for its whole lifetime.
        """
        if self.max_pending is None:
            yield
            return
        with self._pending_lock:
            if self._pending >= self.max_pending:
                self.stats.rejected += 1
                raise ServiceOverloadedError(
                    f"service is at its admission limit "
                    f"({self._pending} pending, max_pending="
                    f"{self.max_pending}); retry later",
                    pending=self._pending,
                    max_pending=self.max_pending,
                )
            self._pending += 1
        try:
            yield
        finally:
            with self._pending_lock:
                self._pending -= 1

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """End the service's lifetime (also via ``with service:``).

        Releases nothing today: the cache stores hold no open handles.
        """

    def note_not_modified(self) -> None:
        """Count one answer sent as ``304 Not Modified`` (``not_modified``).

        Called on an event loop, so it takes the short admission lock,
        never the service lock a cold build holds for its whole run.
        """
        with self._pending_lock:
            self.stats.not_modified += 1

    def probe_result(
        self, request: JobRequest
    ) -> "tuple[bool, JobResult | None]":
        """``(warm, hit)``: a non-blocking look at the result cache.

        ``warm`` says whether the result cache would answer ``request``
        (from memory or from disk); the async front-end queues warm
        submissions ahead of cold builds.  ``hit`` is the memory-front
        result when it can be answered on the spot: it already holds its
        memoised encoding (:attr:`JobResult.encoded`).  A hit is
        booked as the submit it answers — one admission slot, one
        ``submitted``, one ``result_hits`` — so the caller sends its
        memoised ``to_json()`` and submits nothing; with ``max_pending``
        full it raises the :class:`~repro.exceptions.ServiceOverloadedError`
        a submit would.

        Never builds and never waits: an unresolved workload name, a
        malformed request and a contended service lock all answer
        ``(False, None)``.  An inline graph is hashed here, before the
        lock is taken (once; the digest is memoised on it), so callers on
        an event loop probe only workload-named requests.
        """
        if not isinstance(request, JobRequest):
            return False, None
        try:
            if request.workload is not None:
                dfg = self._named_graphs.get(request.workload)
            else:
                dfg = request.dfg
            if dfg is None:
                return False, None
            job_key = request.job_key(dfg_digest(dfg))
        except Exception:  # noqa: BLE001 — a probe never raises on input
            return False, None
        if not self._lock.acquire(blocking=False):
            return False, None
        try:
            hit = self._results.get_resident(job_key)
            if hit is None or hit.encoded is None:
                return job_key in self._results, None
            with self._admitted():
                self.stats.submitted += 1
                self.stats.result_hits += 1
            return True, hit
        finally:
            self._lock.release()

    def __enter__(self) -> "SchedulerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # graph resolution
    # ------------------------------------------------------------------ #
    def _resolve_graph(self, request: JobRequest) -> tuple[DFG, str]:
        """The job's graph (canonical object per content class) + digest."""
        return self._resolve_input(request.workload, request.dfg)

    def _resolve_input(
        self, workload: str | None, inline: DFG | None
    ) -> tuple[DFG, str]:
        """Resolve a workload name or inline graph to (canonical DFG, digest)."""
        if workload is not None:
            dfg = self._named_graphs.get(workload)
            if dfg is None:
                builder = self._workloads.get(workload)
                if builder is None:
                    raise JobValidationError(
                        f"unknown workload {workload!r}; available: "
                        f"{sorted(self._workloads)}",
                        field="workload",
                    )
                dfg = builder()
                validate_dfg(dfg)
                self._named_graphs[workload] = dfg
        else:
            assert inline is not None  # callers validated this
            dfg = inline
            validate_dfg(dfg)
        digest = dfg_digest(dfg)
        seen = self._graphs.get(digest)
        # First-seen object wins the whole digest class: equal content ⇒
        # equal results, and object stability keeps analysis caches warm.
        # Guard against a caller mutating a previously submitted graph in
        # place: the stored object must still *hash to* the digest it is
        # filed under (dfg_digest is memoized, so this re-check is a dict
        # lookup except right after a mutation), else it is evicted.
        if seen is None or dfg_digest(seen) != digest:
            self._graphs.put(digest, dfg)
            seen = dfg
        return seen, digest

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, request: JobRequest) -> JobResult:
        """Run (or serve from cache) one job; see :meth:`submit_outcome`."""
        return self.submit_outcome(request).result

    def submit_outcome(self, request: JobRequest) -> SubmitOutcome:
        """:meth:`submit` plus the cache level that answered."""
        if not isinstance(request, JobRequest):
            raise JobValidationError(
                f"expected a JobRequest, got {type(request).__name__}"
            )
        with self._admitted():
            return self._submit_outcome(request)

    def _submit_outcome(self, request: JobRequest) -> SubmitOutcome:
        """:meth:`submit_outcome` inside an already-held admission slot."""
        with self._lock:
            self.stats.submitted += 1
            dfg, digest = self._resolve_graph(request)
            job_key = request.job_key(digest)

            cached = self._results.get(job_key)
            if cached is not None:
                self.stats.result_hits += 1
                return SubmitOutcome(result=cached, cache="result")
            self.stats.result_misses += 1

            timings: dict[str, float] = {}
            config = request.config
            selector = PatternSelector(request.capacity, config=config)

            catalog_key = request.catalog_key(digest)
            selection_key = request.selection_key(digest)
            cache_level = "none"

            selection: SelectionResult | None = self._selections.get(
                selection_key
            )
            if selection is not None:
                self.stats.selection_hits += 1
                cache_level = "selection"
            else:
                self.stats.selection_misses += 1
                catalog = self._catalogs.get(catalog_key)
                if catalog is not None:
                    self.stats.catalog_hits += 1
                    cache_level = "catalog"
                else:
                    self.stats.catalog_misses += 1
                    t0 = self.timer()
                    if config.store_antichains:
                        # Only the sequential classifier stores antichains.
                        catalog = selector.build_catalog(dfg)
                    else:
                        catalog, hits, misses = self._build_catalog(
                            dfg, selector, self._classify_here(dfg)
                        )
                        self.stats.partition_hits += hits
                        self.stats.partition_misses += misses
                        if hits:
                            cache_level = "edit"
                    timings["catalog"] = self.timer() - t0
                    self._catalogs.put(catalog_key, catalog)
                t0 = self.timer()
                selection = selector.select(dfg, request.pdef, catalog=catalog)
                timings["selection"] = self.timer() - t0
                self._selections.put(selection_key, selection)

            scheduler = MultiPatternScheduler(
                selection.library, priority=request.priority
            )
            t0 = self.timer()
            schedule = scheduler.schedule(dfg)
            timings["schedule"] = self.timer() - t0
            t0 = self.timer()
            metrics = schedule_stats(schedule)
            timings["metrics"] = self.timer() - t0

            self.stats.record_stages(timings)

            result = JobResult(
                job_key=job_key,
                dfg_digest=digest,
                workload=request.workload,
                capacity=request.capacity,
                pdef=request.pdef,
                priority=request.priority,
                dfg=dfg,
                schedule=schedule,
                selection=selection,
                metrics=metrics,
                timings=timings,
            )
            self._results.put(job_key, result)
            return SubmitOutcome(result=result, cache=cache_level)

    def _build_catalog(
        self,
        dfg: DFG,
        selector: PatternSelector,
        classify: MissClassifier,
    ) -> "tuple[PatternCatalog, int, int]":
        """Build a partitioned catalog; the one probe → classify → merge path.

        Each attempt of the selector's size/adaptive-span policy
        (:meth:`~repro.core.selection.PatternSelector.build_catalog_with`)
        cuts the graph into the weight-balanced :data:`EDIT_PARTITIONS`
        seed partitions — a plan fixed by the graph alone, so a cache
        directory filled by any topology (one service, a fleet of any
        size) answers every other — and probes the content-addressed
        shard partial cache for each (:meth:`_probe_partials`).  Partitions
        whose :func:`~repro.dfg.io.subgraph_digest`-keyed partial is
        already cached — an *edited* graph shares them with its
        predecessor, another instance computed them, or they survived on
        disk — run **zero** enumeration DFS.  The misses go to
        ``classify`` (a :data:`MissClassifier`): in process that is
        :meth:`_classify_here` — one
        :func:`~repro.exec.process.classify_partition_rows` call; on a
        fleet it is
        the :class:`~repro.service.shard.ShardCoordinator`'s steal loop.
        Every landed partial is written back under its own key, and the
        merge in ascending-seed order
        (:func:`repro.exec.process.merge_classified_parts`) reproduces the
        in-process build (:func:`repro.exec.process.classify_partitioned`)
        bit for bit.
        An attempt whose pass overflows ``max_antichains`` caches none of
        that pass's partials; the adaptive-span retry probes afresh.

        Returns the catalog plus the partition hits and misses over every
        attempt; the caller books them (``hits > 0`` is what
        :data:`CACHE_LEVELS` reports as ``"edit"``).  Takes the service
        lock only around cache reads and writes, so a fleet's worker
        threads can write partials back while the build runs.
        """
        max_count = selector.config.max_antichains
        hits = misses = 0

        def attempt(size: int, span: "int | None") -> "PatternCatalog":
            nonlocal hits, misses
            plan, weights = plan_seed_partitions(dfg, EDIT_PARTITIONS)
            parts, missed, land = self._probe_partials(
                dfg, plan, size, span, max_count
            )
            hits += len(plan) - len(missed)
            misses += len(missed)
            if missed:
                classify(
                    [plan[p] for p in missed],
                    [weights[p] for p in missed],
                    size,
                    span,
                    max_count,
                    land,
                )
            return merge_classified_parts(
                dfg, parts, capacity=size, span_limit=span, max_count=max_count
            )

        return selector.build_catalog_with(dfg, attempt), hits, misses

    def _probe_partials(
        self,
        dfg: DFG,
        ranges: "Sequence[Sequence[int]]",
        size: int,
        span_limit: "int | None",
        max_count: "int | None",
    ) -> "tuple[list, list[int], Callable[[int, list[tuple]], None]]":
        """Probe the partial cache for every seed range at one attempt's bounds.

        Returns ``(parts, missed, land)``: the cached rows per range
        (``None`` for a miss), the indices of the misses, and
        ``land(j, rows)``, which installs the rows of ``ranges[missed[j]]``
        in ``parts`` and writes them back under their key.  Shared by the
        partitioned catalog build and the shard endpoint.
        """
        keys = [
            shard_partial_key(dfg, seeds, size, span_limit, max_count)
            for seeds in ranges
        ]
        with self._lock:
            parts = [self._shard_parts.get(key) for key in keys]
        missed = [i for i, part in enumerate(parts) if part is None]

        def land(j: int, rows: "list[tuple]") -> None:
            i = missed[j]
            parts[i] = rows
            self.put_shard_partial(keys[i], rows)

        return parts, missed, land

    @staticmethod
    def _classify_here(dfg: DFG) -> MissClassifier:
        """The in-process :data:`MissClassifier`.

        Every call hands its ranges to one
        :func:`~repro.exec.process.classify_partition_rows` call and lands
        the rows in range order.
        """

        def classify(ranges, weights, size, span_limit, max_count, land):
            rows = process.classify_partition_rows(
                AntichainEnumerator(dfg),
                dfg.color_labels()[0],
                ranges,
                size,
                span_limit,
                max_count,
                weights=weights,
            )
            for j, part in enumerate(rows):
                land(j, part)

        return classify

    # ------------------------------------------------------------------ #
    # graph edits
    # ------------------------------------------------------------------ #
    def resolve_edit(self, request: EditRequest) -> JobRequest:
        """The derived :class:`JobRequest` an edit request denotes.

        Resolves the base graph (workload name or inline), applies the
        edits functionally (:func:`repro.dfg.edit.apply_edits`) and
        returns the base job re-targeted at the edited graph — which is
        then an ordinary job keyed by the edited graph's content, so
        submitting it (here or on a :class:`~repro.service.shard.ShardCoordinator`)
        reuses every untouched partition's cached partial.
        """
        if not isinstance(request, EditRequest):
            raise JobValidationError(
                f"expected an EditRequest, got {type(request).__name__}"
            )
        with self._lock:
            base, _ = self._resolve_input(
                request.job.workload, request.job.dfg
            )
            edited = apply_edits(base, request.edits)
            validate_dfg(edited)
            return dataclasses.replace(
                request.job, workload=None, dfg=edited
            )

    def submit_edit(self, request: EditRequest) -> JobResult:
        """Run a job against an edited graph; see :meth:`submit_edit_outcome`."""
        return self.submit_edit_outcome(request).result

    def submit_edit_outcome(self, request: EditRequest) -> SubmitOutcome:
        """Apply ``request.edits`` to its base graph and submit the result.

        The edit-to-schedule fast path: the derived job's cold catalog
        build runs partition by partition (:meth:`_build_catalog`), so
        partitions untouched by the edits are served bit-identically from
        the content-addressed partial cache and only the dirty region is
        re-enumerated — O(dirty region) latency, reported as cache level
        ``"edit"`` (``X-Repro-Cache: edit`` over HTTP).  The result is
        bit-identical to a cold full rebuild of the edited graph.
        """
        derived = self.resolve_edit(request)
        with self._admitted():
            with self._lock:
                self.stats.edit_jobs += 1
                return self._submit_outcome(derived)

    def submit_many(
        self, requests: "Sequence[JobRequest] | Iterable[JobRequest]"
    ) -> list[JobResult]:
        """Submit a batch, deduping identical jobs before running.

        Jobs with equal job keys (same graph content, capacity, pdef,
        config and priority) are computed once and the result is shared;
        catalog sharing across a ``pdef`` sweep falls out of the catalog
        cache — the catalog is built exactly once per
        ``(graph, capacity, enumeration config)``.  Results come back
        aligned with the input order.
        """
        requests = list(requests)
        with self._admitted(), self._lock:
            keyed: list[tuple[str, JobRequest]] = []
            for request in requests:
                if not isinstance(request, JobRequest):
                    raise JobValidationError(
                        f"expected a JobRequest, got {type(request).__name__}"
                    )
                _, digest = self._resolve_graph(request)
                keyed.append((request.job_key(digest), request))
            computed: dict[str, JobResult] = {}
            out: list[JobResult] = []
            for key, request in keyed:
                hit = computed.get(key)
                if hit is not None:
                    self.stats.deduped += 1
                    out.append(hit)
                    continue
                result = self._submit_outcome(request).result
                computed[key] = result
                out.append(result)
            return out

    # ------------------------------------------------------------------ #
    # sharded catalog building
    # ------------------------------------------------------------------ #
    def classify_shard(self, task: "ShardTask") -> "list[list[tuple]]":
        """The rows of every range of a shard claim, in range order.

        :meth:`classify_shard_outcome` without the cache levels; the
        error of the lowest failing range is raised.
        """
        out = []
        for payload, _cache in self.classify_shard_outcome(task):
            if isinstance(payload, BaseException):
                raise payload
            out.append(payload)
        return out

    def classify_shard_outcome(
        self, task: "ShardTask"
    ) -> "list[tuple[list[tuple] | ReproError, str | None]]":
        """Classify the seed ranges of one shard claim (shard work).

        The executor side of :class:`~repro.service.shard.ShardCoordinator`:
        probes the content-addressed partial cache for every claimed range
        (keyed by :func:`shard_partial_key` — the *range's* subgraph
        digest, seed range, capacity and bounds) and classifies the
        misses in one :meth:`_classify_here` call — the same probe and
        classify helpers the in-process partitioned build uses.  Returns
        one ``(rows, cache)`` per range, aligned with ``task.ranges``:
        ``rows`` are ``(bag_key, count, first_seen, values)`` tuples in
        local first-visit order, JSON-safe so the HTTP layer is a pipe,
        and ``cache`` is ``"shard"`` when the partial cache answered (no
        DFS ran) or ``"none"`` when this call computed and cached the rows.
        A classify call that fails with a typed error — a pass overflowing
        ``max_count`` — answers ``(error, None)`` for every missed range
        and caches none of them; hit ranges still answer with rows.  Over HTTP, range ``i`` is
        stream frame ``slot`` ``i``.  Merging ranges in ascending-seed
        order (:func:`repro.exec.process.merge_classified_parts`)
        reproduces the single-instance catalog bit for bit.

        A claim is real enumeration work and therefore takes one admission
        slot like any submit (cache hits included: admission bounds
        queueing, not compute).  ``shard_tasks`` counts every range
        probed.
        """
        from repro.service.shard import ShardTask

        if not isinstance(task, ShardTask):
            raise JobValidationError(
                f"expected a ShardTask, got {type(task).__name__}"
            )
        with self._admitted(), self._lock:
            dfg, _ = self._resolve_input(task.workload, task.dfg)
            ranges = task.ranges
            self.stats.shard_tasks += len(ranges)
            parts, missed, land = self._probe_partials(
                dfg, ranges, task.size, task.span_limit, task.max_count
            )
            self.stats.shard_hits += len(ranges) - len(missed)
            self.stats.shard_misses += len(missed)
            error: "ReproError | None" = None
            if missed:
                try:
                    self._classify_here(dfg)(
                        [ranges[i] for i in missed],
                        [sum(estimate_seed_weights(dfg, ranges[i])) for i in missed],
                        task.size,
                        task.span_limit,
                        task.max_count,
                        land,
                    )
                except ReproError as exc:
                    error = exc
            return [
                (error, None)
                if part is None
                else (part, "none" if i in missed else "shard")
                for i, part in enumerate(parts)
            ]

    def put_shard_partial(self, key: tuple, buckets: list[tuple]) -> None:
        """Install a shard partial under ``key`` (coordinator side).

        On a disk store shared with the shard that classified it, the
        file is already there: the put fills the memory front and only
        refreshes the file's mtime (write once).
        """
        with self._lock:
            self._shard_parts.put(key, buckets)

    def prime_catalog(
        self, request: JobRequest, catalog: "PatternCatalog"
    ) -> tuple:
        """Install a prebuilt catalog under ``request``'s catalog-cache key.

        The shard coordinator merges per-shard partials into a catalog
        and primes its completion service with it, so the subsequent
        :meth:`submit` hits the catalog cache and only computes selection
        and scheduling locally.  Returns the key used.
        """
        with self._lock:
            _, digest = self._resolve_graph(request)
            key = request.catalog_key(digest)
            self._catalogs.put(key, catalog)
            return key

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def register_stats_source(self, name: str, fn: Any) -> None:
        """Merge ``fn()`` (a JSON-safe dict) into :meth:`describe` under
        ``sources[name]``.

        The seam the :class:`~repro.service.shard.ShardCoordinator` uses
        to surface retry/failover/circuit-breaker accounting through a
        completion service's ``GET /v1/admin:stats`` without the HTTP
        layer growing a coordinator dependency.  Re-registering a name
        replaces the previous source; ``fn=None`` unregisters.
        """
        if not isinstance(name, str) or not name:
            raise ServiceError(
                f"stats source name must be a non-empty string, got {name!r}"
            )
        with self._lock:
            if fn is None:
                self._stats_sources.pop(name, None)
            else:
                self._stats_sources[name] = fn

    def describe(self) -> dict[str, Any]:
        """Service status: classify kernel, cache occupancy, hit/miss counters."""
        sources: dict[str, Any] = {}
        for name, fn in list(self._stats_sources.items()):
            try:
                sources[name] = fn()
            except Exception as exc:  # noqa: BLE001 — introspection must not fail
                sources[name] = {"error": str(exc)}
        return {
            "kernel": bitset_availability(),
            "caches": {
                "catalog": self._catalogs.describe(),
                "selection": self._selections.describe(),
                "result": self._results.describe(),
                "shard": self._shard_parts.describe(),
            },
            "cache_dir": (
                str(self.cache_dir) if self.cache_dir is not None else None
            ),
            "admission": {
                "max_pending": self.max_pending,
                "pending": self.pending,
            },
            "stats": self.stats.to_dict(),
            "sources": sources,
            "workloads": sorted(self._workloads),
        }

    def clear_caches(self, *, keep_shard_partials: bool = False) -> None:
        """Drop all cached catalogs, selections, results and shard partials.

        ``keep_shard_partials=True`` retains the content-addressed
        partition partials while dropping every derived level — the
        operational shape of "invalidate my answers but keep the reusable
        enumeration work" (the edit-churn benchmark measures exactly
        this regime).
        """
        with self._lock:
            self._catalogs.clear()
            self._selections.clear()
            self._results.clear()
            if not keep_shard_partials:
                self._shard_parts.clear()
            self._graphs.clear()
            self._named_graphs.clear()

    # ------------------------------------------------------------------ #
    def run_pipeline_job(
        self,
        workload_or_dfg: "str | DFG",
        capacity: int,
        pdef: int,
        **kwargs: Any,
    ) -> SubmitOutcome:
        """Convenience: build a request from loose arguments and submit it.

        ``kwargs`` are the optional :class:`JobRequest` fields
        (``config``, ``priority``).
        """
        if isinstance(workload_or_dfg, str):
            request = JobRequest(
                capacity=capacity,
                pdef=pdef,
                workload=workload_or_dfg,
                **kwargs,
            )
        elif isinstance(workload_or_dfg, DFG):
            request = JobRequest(
                capacity=capacity, pdef=pdef, dfg=workload_or_dfg, **kwargs
            )
        else:
            raise JobValidationError(
                f"expected a workload name or DFG, "
                f"got {type(workload_or_dfg).__name__}"
            )
        return self.submit_outcome(request)
