"""The process backend — seed-partitioned parallel pattern generation.

The antichain DFS visits the subtree of each *seed node* (the antichain's
smallest member index) contiguously and in ascending seed order, and the
subtrees of distinct seeds are disjoint (see :mod:`repro.dfg.antichains`).
Pattern generation therefore parallelizes without changing a single
output bit:

1. every seed node becomes one task; a worker runs the bitset
   classifier restricted to that seed's subtree
   (:func:`~repro.exec.bitset.classify_by_label_bitset` with
   ``roots=[seed]``, bit-identical to the fused DFS, which it runs
   instead when :func:`~repro.exec.bitset.bitset_supported` says no);
2. workers return per-bag results (census, node frequencies, first-seen
   order) — sparse index/value pairs on ordinary graphs, dense numpy
   arrays past the spill threshold so the merge is a vectorized add;
3. the parent merges results in ascending seed order: censuses and int
   frequency arrays add elementwise, bag keys merge by first appearance
   and per-bag first-seen node lists concatenate-dedupe — which is
   exactly the sequential visit order, so the merged catalog (including
   every Counter's insertion order) is bit-identical to the fused
   single-threaded engine's.

Selection and scheduling are not parallelized (they are sub-10 ms on
realistic catalogs and inherently sequential round-by-round); the process
backend inherits the fused fast paths for both, through
:class:`~repro.exec.bitset.BitsetBackend`.

Workers are plain ``multiprocessing.Pool`` processes primed once per
worker with the *graph* via the pool initializer; tasks carry a
contiguous seed-index range plus the call's enumeration parameters.
Seed subtrees are heavily skewed (low seeds own the largest subtrees),
so the ranges are weight-balanced against a per-seed cost model
(:func:`estimate_seed_weights`, from the memoized comparability
bitmasks), cut much finer than the worker count and scheduled
dynamically.  ``jobs`` defaults to ``os.cpu_count()``; with one job (or
a single seed) the backend degrades to the bitset backend's in-process
classifier rather than paying pool overhead for nothing.

Persistent pools
----------------
With ``persistent=True`` the pool outlives a classify call: because only
the graph is baked in at fork time, every later call against the *same
graph object* — any capacity or span limit — reuses the
warm workers, so ``pdef``/span sweeps and long-lived services (see
:mod:`repro.service`) amortize pool startup across requests.  A call
with a different graph retires the old pool and spins up a fresh one;
:meth:`ProcessBackend.close` (also via ``with backend:``) shuts the pool
down deterministically.
"""

from __future__ import annotations

import multiprocessing
import os
import weakref
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.dfg.antichains import (
    DEFAULT_MAX_COUNT,
    AntichainEnumerator,
    _freq_buffer,
    _np,
    limit_error,
)
from repro.exceptions import BackendError, PatternError
from repro.exec.bitset import (
    BitsetBackend,
    classify_by_label_bitset,
    classify_rows_bitset,
    packed_incomparable_rows,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfg.graph import DFG
    from repro.patterns.enumeration import PatternCatalog

__all__ = [
    "ProcessBackend",
    "classify_partition_rows",
    "estimate_seed_weights",
    "plan_seed_partitions",
    "merge_classified_parts",
]

#: Target task count per worker: enough dynamic-scheduling granularity to
#: absorb the seed-subtree skew without drowning in task round-trips.
_GROUPS_PER_JOB = 16

#: Summed :func:`estimate_seed_weights` of the partitions one
#: :func:`classify_partition_rows` pass may batch.  Batching saves the
#: classifier's fixed per-depth cost on light partitions; the cap keeps
#: heavy ones alone so their frontiers (peak memory) never add up.
_PASS_WEIGHT_BUDGET = 1000

# Worker-process state, installed once per worker by _init_worker.
_WORKER: dict = {}


def _init_worker(dfg: "DFG") -> None:
    """Pool initializer: prime the per-worker enumerator once per pool.

    Only graph-derived state is baked in here; per-call enumeration
    parameters travel with each task so a persistent pool can serve any
    capacity/span against the primed graph.
    """
    _WORKER["enum"] = AntichainEnumerator(dfg)
    _WORKER["labels"] = dfg.color_labels()[0]
    if _np is not None:
        # Prime the packed bitset rows too: partition tasks auto-route to
        # the vectorized classifier, and packing once per worker keeps it
        # off every task's critical path.
        packed_incomparable_rows(dfg)


def _classify_seeds(task):
    """Classify the DFS subtrees rooted at ``seeds`` (one pool task).

    ``task`` is ``(seeds, size, span_limit, max_count)``;
    ``seeds`` is a contiguous ascending range, so the in-task result is
    already in sequential visit order for that range.  Returns a list of
    ``(bag_key, count, first_seen, payload)`` in local first-visit order,
    where ``payload`` is either the dense frequency array (numpy regime)
    or the values aligned with ``first_seen`` (sparse regime) — whichever
    is cheaper to ship back.
    """
    seeds, size, span_limit, max_count = task
    enum: AntichainEnumerator = _WORKER["enum"]
    labels = _WORKER["labels"]
    # Auto-route to the vectorized classifier (bit-identical output; falls
    # back to the scalar DFS transparently when unsupported).
    buckets = classify_by_label_bitset(
        enum,
        labels,
        size,
        span_limit,
        max_count=max_count,
        roots=seeds,
    )
    out = []
    for key, cls in buckets.items():
        freq = cls.frequencies
        if _np is not None and isinstance(freq, _np.ndarray):
            payload = freq  # dense: the merge becomes one vectorized add
        else:
            payload = [freq[i] for i in cls.first_seen]
        out.append((key, cls.count, cls.first_seen, payload))
    return out


def classify_partition_rows(
    enum: AntichainEnumerator,
    labels: Sequence[int],
    partitions: Sequence[Sequence[int]],
    size: int,
    span_limit: int | None,
    max_count: int | None,
    *,
    weights: Sequence[int] | None = None,
) -> list[list[tuple]]:
    """Classify seed partitions into JSON-safe sparse bucket rows.

    Returns one row list per partition, aligned with ``partitions``; each
    row is ``(bag_key, count, first_seen, values)`` with ``values``
    aligned to ``first_seen`` — always sparse plain ints, so a row list
    can be cached on disk, shipped over HTTP, and fed straight back to
    :func:`merge_classified_parts` on any instance.  This is the
    in-process flavour of :func:`_classify_seeds`, shared by the
    service's shard endpoint and its partitioned catalog build.

    Consecutive partitions share one vectorized BFS pass
    (:func:`~repro.exec.bitset.classify_rows_bitset`) while their
    summed estimated DFS weight stays within :data:`_PASS_WEIGHT_BUDGET`;
    a heavier partition runs alone.  Every partition's rows are exactly
    those of a call with that partition alone — and of the scalar
    ``classify_by_label(roots=partition)``, which runs instead when the
    vectorized core cannot (:func:`~repro.exec.bitset.bitset_supported`)
    — so row lists stay cacheable per partition.  ``weights`` are the
    per-partition weights :func:`plan_seed_partitions` already computed
    (``with_weights=True``); without them every partition runs in a pass
    of its own.

    ``max_count`` bounds each vectorized pass's summed count: a pass that
    overflows it raises the :class:`~repro.exceptions.EnumerationLimitError` the
    merge of those partitions would raise, and none of its partitions'
    rows are returned (so none get cached) — the catalog attempt they
    belong to fails either way.
    """
    if weights is None:
        bounds = [(p, p + 1) for p in range(len(partitions))]
    else:
        bounds = _pass_bounds(weights)
    out: list[list[tuple]] = []
    for lo, hi in bounds:
        out.extend(
            classify_rows_bitset(
                enum,
                labels,
                size,
                span_limit,
                partitions[lo:hi],
                max_count=max_count,
            )
        )
    return out


def _pass_bounds(weights: Sequence[int]) -> list[tuple[int, int]]:
    """Cut ``weights`` into ``[lo, hi)`` runs of at most one pass budget.

    Greedy and order-preserving: a run grows while its summed weight
    stays within :data:`_PASS_WEIGHT_BUDGET`, and a single partition
    over the budget forms a run of its own.
    """
    bounds: list[tuple[int, int]] = []
    lo = 0
    acc = 0
    for i, w in enumerate(weights):
        if i > lo and acc + w > _PASS_WEIGHT_BUDGET:
            bounds.append((lo, i))
            lo, acc = i, 0
        acc += w
    if lo < len(weights):
        bounds.append((lo, len(weights)))
    return bounds


def _split_contiguous(seeds: Sequence[int], partitions: int) -> list[list[int]]:
    """Split ``seeds`` into ≤ ``partitions`` contiguous non-empty runs."""
    n_groups = min(len(seeds), max(1, partitions))
    if n_groups == 0:
        return []
    bounds = [len(seeds) * g // n_groups for g in range(n_groups + 1)]
    return [
        list(seeds[bounds[g]:bounds[g + 1]])
        for g in range(n_groups)
        if bounds[g] < bounds[g + 1]
    ]


def estimate_seed_weights(dfg: "DFG", seeds: Sequence[int]) -> list[int]:
    """Relative DFS-subtree cost estimate per seed node.

    The antichain subtree rooted at seed ``i`` extends over the nodes
    above ``i`` (higher index) that are incomparable with it, so its size
    grows combinatorially in that count ``k``.  The estimate
    ``1 + k + k·(k-1)/2`` (the size-≤3 prefix of ``C(k, ·)``) is cheap,
    overflow-free and monotone in ``k`` — exactly what weight-balanced
    partitioning (:func:`plan_seed_partitions`) needs; it deliberately is
    *not* an antichain count (it also sizes the batched classify passes
    of :func:`classify_partition_rows`).  ``k`` comes from the comparability
    bitmasks, which are already memoized on the graph's analysis cache
    (:func:`repro.dfg.traversal.comparability_masks`), so repeated
    planning against one graph pays the mask cost once.

    With numpy the per-seed loop runs as one popcount over the memoized
    packed incomparable-above rows (shared with the bitset classifier);
    the pure-python loop remains as the fallback and the oracle — both
    return the same plain-int list.
    """
    from repro.dfg.traversal import comparability_masks

    if seeds and _np is not None and hasattr(_np, "bitwise_count"):
        # inc[i] is higher(i) & ~comp[i]: exactly the scalar loop's
        # `above & ~comp[i]` bits per seed.
        inc, _ = packed_incomparable_rows(dfg)
        rows = inc[_np.asarray(seeds, dtype=_np.int64)]
        k = _np.bitwise_count(rows).sum(axis=1, dtype=_np.int64)
        return (1 + k + k * (k - 1) // 2).tolist()
    comp = comparability_masks(dfg)
    universe = (1 << dfg.n_nodes) - 1
    weights = []
    for i in seeds:
        above = universe >> (i + 1) << (i + 1)
        k = (above & ~comp[i]).bit_count()
        weights.append(1 + k + k * (k - 1) // 2)
    return weights


def _split_weighted(
    seeds: Sequence[int], weights: Sequence[int], partitions: int
) -> list[list[int]]:
    """Split ``seeds`` into ≤ ``partitions`` weight-balanced contiguous runs.

    Greedy linear partitioning: each group takes seeds until stopping is
    at least as close to the even share of the *remaining* weight as
    taking one more would be, while always leaving at least one seed for
    every group still to come.  Greedy is not optimal — on some weight
    profiles an early overshoot cascades and the plain even-count split
    ends up flatter — so the result is compared against
    :func:`_split_contiguous` on max group weight and the better split
    wins (greedy on ties, preserving historical plans).  Coverage,
    contiguity and ascending order are identical either way; only the
    cut points move.
    """
    n_groups = min(len(seeds), max(1, partitions))
    if n_groups == 0:
        return []
    parts: list[list[int]] = []
    start = 0
    remaining = float(sum(weights))
    for g in range(n_groups):
        groups_left = n_groups - g
        if groups_left == 1:
            parts.append(list(seeds[start:]))
            break
        hard_stop = len(seeds) - (groups_left - 1)
        target = remaining / groups_left
        acc = weights[start]
        end = start + 1
        while end < hard_stop and acc + weights[end] / 2 <= target:
            acc += weights[end]
            end += 1
        parts.append(list(seeds[start:end]))
        remaining -= acc
        start = end

    even = _split_contiguous(seeds, n_groups)
    if max(_group_weights(even, weights)) < max(_group_weights(parts, weights)):
        return even
    return parts


def _group_weights(
    split: Sequence[Sequence[int]], weights: Sequence[int]
) -> list[int]:
    """Summed seed weight of each group of a contiguous ``split``."""
    sums = []
    i = 0
    for group in split:
        sums.append(sum(weights[i:i + len(group)]))
        i += len(group)
    return sums


def plan_seed_partitions(
    dfg: "DFG",
    partitions: int,
    *,
    skew_aware: bool = True,
    with_weights: bool = False,
) -> "list[list[int]] | tuple[list[list[int]], list[int]]":
    """Contiguous ascending seed-node partitions of ``dfg``'s DFS.

    This is the exact split the process backend fans classify tasks out
    with: the antichain DFS visits the subtree of each seed node (the
    antichain's smallest member index) contiguously and in ascending seed
    order, so classifying each partition independently and merging the
    results in partition order (:func:`merge_classified_parts`)
    reproduces the sequential enumeration bit for bit.  The shard
    coordinator (:mod:`repro.service.shard`) uses the same planner to
    fan partitions out across *service instances* instead of worker
    processes.

    Seed subtrees are heavily skewed — low seeds own far larger subtrees
    — so by default the cut points balance *estimated subtree weight*
    (:func:`estimate_seed_weights`) rather than seed count, which
    tightens the critical path of any static assignment and narrows the
    weight spread dynamic schedulers have to absorb.  ``skew_aware=False``
    restores the historical even-seed-count split (the comparison
    baseline in the tests).  Either way the partitions cover the same
    seeds in the same ascending contiguous order, so the choice can never
    affect merged-output bits.

    Returns at most ``partitions`` non-empty lists of node indices.
    ``with_weights=True`` returns ``(partitions, weights)``
    instead, ``weights[p]`` being partition ``p``'s summed seed weight —
    what :func:`classify_partition_rows` groups passes by, so a caller
    that plans and classifies estimates the weights once.
    """
    if partitions < 1:
        raise BackendError(f"partitions must be ≥ 1, got {partitions}")
    seeds = list(range(dfg.n_nodes))
    if not skew_aware and not with_weights:
        return _split_contiguous(seeds, partitions)
    weights = estimate_seed_weights(dfg, seeds)
    if skew_aware:
        parts = _split_weighted(seeds, weights, partitions)
    else:
        parts = _split_contiguous(seeds, partitions)
    if with_weights:
        return parts, _group_weights(parts, weights)
    return parts


def merge_classified_parts(
    dfg: "DFG",
    parts: "Iterable[Sequence[tuple]]",
    *,
    capacity: int,
    span_limit: int | None,
    max_count: int | None = DEFAULT_MAX_COUNT,
) -> "PatternCatalog":
    """Merge per-partition classify results into one catalog.

    ``parts`` holds one bucket list per seed partition, **in ascending
    seed order** — each bucket a ``(bag_key, count, first_seen, payload)``
    tuple as produced by :func:`_classify_seeds` (``payload`` is either a
    dense per-node frequency array or the values aligned with
    ``first_seen``).  Censuses and int frequency arrays add elementwise;
    bag keys merge by first appearance and per-bag first-seen node lists
    concatenate-dedupe — exactly the sequential visit order, so the
    merged catalog (every Counter's insertion order included) is
    bit-identical to the fused single-threaded engine's.
    """
    from collections import Counter

    from repro.patterns.enumeration import PatternCatalog
    from repro.patterns.pattern import Pattern

    n = dfg.n_nodes
    _, id_colors = dfg.color_labels()
    merged: dict[tuple[int, ...], list] = {}
    total = 0
    for buckets in parts:
        for key, count, order, payload in buckets:
            total += count
            ent = merged.get(key)
            if ent is None:
                ent = merged[key] = [0, _freq_buffer(n), [], set()]
            ent[0] += count
            freq, g_order, seen = ent[1], ent[2], ent[3]
            for i in order:
                if i not in seen:
                    seen.add(i)
                    g_order.append(i)
            if _np is not None and isinstance(payload, _np.ndarray):
                freq += payload  # vectorized elementwise add
            else:
                for i, v in zip(order, payload):
                    freq[i] += v
    if max_count is not None and total > max_count:
        raise limit_error(dfg, max_count, capacity, span_limit)

    names = dfg.nodes
    freqs: dict[Pattern, Counter[str]] = {}
    counts: dict[Pattern, int] = {}
    for key, (count, freq, order, _) in merged.items():
        bag_counts: dict[str, int] = {}
        for cid in key:
            c = id_colors[cid]
            bag_counts[c] = bag_counts.get(c, 0) + 1
        pattern = Pattern.from_counts(bag_counts)
        freqs[pattern] = Counter({names[i]: int(freq[i]) for i in order})
        counts[pattern] = count
    return PatternCatalog(
        dfg=dfg,
        capacity=capacity,
        span_limit=span_limit,
        frequencies=freqs,
        antichain_counts=counts,
    )


class ProcessBackend(BitsetBackend):
    """Multiprocess pattern generation over seed-node partitions.

    Parameters
    ----------
    jobs:
        Worker process count; ``None`` means ``os.cpu_count()``.
    persistent:
        Keep the worker pool alive across classify calls on the same
        graph object (see module docstring).  Off by default — one-shot
        callers should not leak worker processes past the call; the
        long-lived :class:`~repro.service.SchedulerService` turns it on.
    """

    name = "process"

    def __init__(
        self, jobs: int | None = None, *, persistent: bool = False
    ) -> None:
        # Pool state first: __del__ must find it even when validation below
        # rejects the construction.
        self.persistent = persistent
        self._pool: multiprocessing.pool.Pool | None = None
        self._pool_graph: "weakref.ref[DFG] | None" = None
        self._pool_procs = 0
        self._pool_token: object | None = None
        if jobs is not None and jobs < 1:
            raise BackendError(f"jobs must be ≥ 1, got {jobs}")
        super().__init__(jobs=jobs)

    def describe(self) -> str:
        suffix = ", persistent" if self.persistent else ""
        return f"{self.name}(jobs={self.effective_jobs()}{suffix})"

    def availability(self) -> str:
        from repro.exec.bitset import bitset_availability

        # Worker tasks auto-route through the bitset classifier, so the
        # interesting fact per host is which of its code paths is live.
        return f"worker tasks: {bitset_availability()}"

    def effective_jobs(self) -> int:
        """The worker count a classify call would actually use."""
        return self.jobs if self.jobs is not None else (os.cpu_count() or 1)

    # ------------------------------------------------------------------ #
    # pool lifecycle
    # ------------------------------------------------------------------ #
    def pool_generation(self) -> int:
        """How many pools this backend has started (observability/tests)."""
        return self._generation

    _generation = 0

    def _acquire_pool(self, dfg: "DFG", procs: int):
        """A pool primed with ``dfg`` — reused when persistent and warm.

        Reuse requires the same graph *object* and, via a token planted in
        the graph's mutation-cleared ``_analysis_cache``, the same graph
        *content*: workers hold the graph as pickled at pool creation, so
        an in-place ``add_node``/``add_edge``/``set_attr`` after that must
        retire the pool or workers would classify a stale graph.
        """
        cache = getattr(dfg, "_analysis_cache", None)
        if (
            self._pool is not None
            and self._pool_graph is not None
            and self._pool_graph() is dfg
            and self._pool_procs >= procs
            and cache is not None
            and cache.get("process_pool_token") is self._pool_token
        ):
            return self._pool
        self.close()
        pool = multiprocessing.get_context().Pool(
            procs, initializer=_init_worker, initargs=(dfg,)
        )
        self._generation += 1
        if self.persistent:
            self._pool = pool
            self._pool_graph = weakref.ref(dfg)
            self._pool_procs = procs
            self._pool_token = object()
            if cache is not None:
                cache["process_pool_token"] = self._pool_token
        return pool

    def close(self) -> None:
        """Shut down a retained persistent pool (no-op otherwise)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_graph = None
            self._pool_procs = 0
            self._pool_token = None

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        self.close()

    def classify(
        self,
        dfg: "DFG",
        capacity: int,
        span_limit: int | None = None,
        *,
        store_antichains: bool = False,
        max_count: int | None = DEFAULT_MAX_COUNT,
    ) -> "PatternCatalog":
        if store_antichains:
            raise PatternError(
                f"the {self.name!r} backend cannot store raw antichains; "
                "use the serial backend with store_antichains"
            )
        # Keep the enumerator construction: it validates bounds eagerly and
        # primes the analysis cache the merge's color interning reuses.
        AntichainEnumerator(dfg)
        jobs = self.effective_jobs()
        # Contiguous ascending seed ranges, cut finer than the worker count
        # so dynamic scheduling can absorb the low-seed subtree skew.
        groups = plan_seed_partitions(dfg, jobs * _GROUPS_PER_JOB)
        if jobs <= 1 or sum(len(g) for g in groups) < 2:
            # Pool overhead cannot pay for itself: classify in-process with
            # the bitset kernel the workers would have run.
            return super().classify(
                dfg, capacity, span_limit, max_count=max_count
            )

        tasks = [
            (seeds, capacity, span_limit, max_count) for seeds in groups
        ]
        # A persistent pool keeps all `jobs` workers warm for later calls;
        # a one-shot pool spawns no more workers than there are tasks.
        procs = jobs if self.persistent else min(jobs, len(tasks))
        pool = self._acquire_pool(dfg, procs)
        try:
            # map preserves input order: results arrive in ascending seed
            # order, which the merge depends on for bit-identity.
            results = pool.map(_classify_seeds, tasks, chunksize=1)
        finally:
            if not self.persistent:
                pool.terminate()
                pool.join()

        # Merge per-seed subtree classifications in sequential visit order.
        return merge_classified_parts(
            dfg,
            results,
            capacity=capacity,
            span_limit=span_limit,
            max_count=max_count,
        )
