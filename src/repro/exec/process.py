"""The process backend — seed-partitioned parallel pattern generation.

The antichain DFS visits the subtree of each *seed node* (the antichain's
smallest member index) contiguously and in ascending seed order, and the
subtrees of distinct seeds are disjoint (see :mod:`repro.dfg.antichains`).
Pattern generation therefore parallelizes without changing a single
output bit, along one plan shared by every partitioned build:

1. :func:`plan_seed_partitions` cuts the seeds into the
   :data:`EDIT_PARTITIONS` weight-balanced contiguous ranges (a plan fixed
   by the graph alone);
2. :func:`classify_partition_rows` classifies ranges into sparse rows,
   batching light neighbours into one vectorized BFS pass
   (:func:`~repro.exec.bitset.classify_rows_bitset`, bit-identical to the
   fused DFS, which it runs instead when
   :func:`~repro.exec.bitset.bitset_supported` says no);
3. :func:`merge_classified_parts` merges the rows in ascending seed
   order: censuses and int frequency arrays add elementwise, bag keys
   merge by first appearance and per-bag first-seen node lists
   concatenate-dedupe — exactly the sequential visit order, so the merged
   catalog (including every Counter's insertion order) is bit-identical
   to the fused single-threaded engine's.

Step 2 is a backend's :meth:`~repro.exec.backend.ExecutionBackend.classify_partitions`:
the fused and bitset backends make the one call in process, and
:class:`ProcessBackend` maps that call's passes over a
``multiprocessing.Pool`` — each worker runs :func:`classify_partition_rows`
on an enumerator primed once per worker, so the rows are the same either
way.  The service's partitioned build, the shard endpoint and
:meth:`ProcessBackend.classify` (what ``PatternSelector.build_catalog``
and ``repro select`` call) all run this one plan → step → merge path.
``jobs`` defaults to ``os.cpu_count()``; with one job (or a single pass)
the process backend classifies in-process rather than paying pool
overhead for nothing.

Selection and scheduling are not parallelized (they are sub-10 ms on
realistic catalogs and inherently sequential round-by-round); the process
backend inherits the fused fast paths for both, through
:class:`~repro.exec.bitset.BitsetBackend`.

Pool lifetime
-------------
Only the graph is baked into the workers at fork time, so a pool serves
every later call against the *same graph object* — any capacity or span
limit.  It lives until :meth:`ProcessBackend.close` (also via
``with backend:``), until a different or mutated graph arrives (which
retires it and starts a fresh one), or until the backend is collected
(or the interpreter exits).
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
    classify_rows_bitset,
    packed_incomparable_rows,
    packed_level_windows,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfg.graph import DFG
    from repro.patterns.enumeration import PatternCatalog

__all__ = [
    "EDIT_PARTITIONS",
    "ProcessBackend",
    "classify_partition_rows",
    "estimate_seed_weights",
    "plan_seed_partitions",
    "merge_classified_parts",
]

#: Seed-partition count of every partitioned build — the service's, a
#: shard fleet's and :meth:`ProcessBackend.classify` — so partials answer
#: across backends and topologies (a fleet build therefore keeps at most
#: 16 shards busy).  Finer partitions shrink the re-enumerated region
#: after an edit but hash and cache more partials.
EDIT_PARTITIONS = 16

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
    parameters travel with each task so one pool can serve any
    capacity/span against the primed graph.
    """
    _WORKER["enum"] = AntichainEnumerator(dfg)
    _WORKER["labels"] = dfg.color_labels()[0]
    if _np is not None:
        # Pack the bitset rows and span windows once per worker, off
        # every task's critical path.
        packed_incomparable_rows(dfg)
        packed_level_windows(dfg)


def _classify_pass(task) -> list[list[tuple]]:
    """One pool task: :func:`classify_partition_rows` over one pass group.

    ``task`` is ``(partitions, weights, size, span_limit, max_count)``;
    the group fits one pass budget, so the worker runs exactly the pass
    the in-process call would have run for it.
    """
    partitions, weights, size, span_limit, max_count = task
    return classify_partition_rows(
        _WORKER["enum"],
        _WORKER["labels"],
        partitions,
        size,
        span_limit,
        max_count,
        weights=weights,
    )


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
    :func:`merge_classified_parts` on any instance.  It is the step every
    partition-capable backend runs
    (:meth:`~repro.exec.backend.ExecutionBackend.classify_partitions`),
    in process or once per pass group in a :class:`ProcessBackend` worker.

    Consecutive partitions share one vectorized BFS pass
    (:func:`~repro.exec.bitset.classify_rows_bitset`) while their
    summed estimated DFS weight stays within :data:`_PASS_WEIGHT_BUDGET`;
    a heavier partition runs alone.  Every partition's rows are exactly
    those of a call with that partition alone — and of the scalar
    ``classify_by_label(roots=partition)``, which runs instead when the
    vectorized core cannot (:func:`~repro.exec.bitset.bitset_supported`)
    — so row lists stay cacheable per partition.  ``weights`` are the
    per-partition weights :func:`plan_seed_partitions` already computed;
    without them every partition runs in a pass of its own.

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
    dfg: "DFG", partitions: int
) -> "tuple[list[list[int]], list[int]]":
    """Contiguous ascending seed-node partitions of ``dfg``'s DFS.

    The antichain DFS visits the subtree of each seed node (the
    antichain's smallest member index) contiguously and in ascending seed
    order, so classifying each partition independently and merging the
    results in partition order (:func:`merge_classified_parts`)
    reproduces the sequential enumeration bit for bit.  Every
    partitioned build plans with it — the process backend's worker
    passes, the service's partial cache and the shard coordinator's
    fleet (:mod:`repro.service.shard`).

    Seed subtrees are heavily skewed — low seeds own far larger subtrees
    — so the cut points balance *estimated subtree weight*
    (:func:`estimate_seed_weights`) rather than seed count, which
    tightens the critical path of any static assignment and narrows the
    weight spread dynamic schedulers have to absorb.  The partitions
    cover the seeds in ascending contiguous order whatever the cut
    points, so they can never affect merged-output bits.

    Returns ``(plan, weights)``: at most ``partitions`` non-empty lists
    of node indices, and ``weights[p]`` partition ``p``'s summed seed
    weight — what :func:`classify_partition_rows` groups passes by, so a
    caller that plans and classifies estimates the weights once.
    """
    if partitions < 1:
        raise BackendError(f"partitions must be ≥ 1, got {partitions}")
    seeds = list(range(dfg.n_nodes))
    weights = estimate_seed_weights(dfg, seeds)
    parts = _split_weighted(seeds, weights, partitions)
    return parts, _group_weights(parts, weights)


def merge_classified_parts(
    dfg: "DFG",
    parts: "Iterable[Sequence[tuple]]",
    *,
    capacity: int,
    span_limit: int | None,
    max_count: int | None = DEFAULT_MAX_COUNT,
) -> "PatternCatalog":
    """Merge per-partition classify results into one catalog.

    ``parts`` holds one row list per seed partition, **in ascending
    seed order** — each row a ``(bag_key, count, first_seen, values)``
    tuple as produced by :func:`classify_partition_rows` (``values``
    aligned with ``first_seen``).  Censuses and int frequency arrays add
    elementwise; bag keys merge by first appearance and per-bag
    first-seen node lists concatenate-dedupe — exactly the sequential
    visit order, so the merged catalog (every Counter's insertion order
    included) is bit-identical to the fused single-threaded engine's.
    """
    from collections import Counter

    from repro.patterns.enumeration import PatternCatalog
    from repro.patterns.pattern import Pattern

    n = dfg.n_nodes
    _, id_colors = dfg.color_labels()
    merged: dict[tuple[int, ...], list] = {}
    total = 0
    for buckets in parts:
        for key, count, order, values in buckets:
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
            for i, v in zip(order, values):
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


def _shutdown(pool: "multiprocessing.pool.Pool") -> None:
    """Terminate and reap a backend's pool (its finalizer; runs once)."""
    pool.terminate()
    pool.join()


class ProcessBackend(BitsetBackend):
    """Multiprocess pattern generation over seed-node partitions.

    Parameters
    ----------
    jobs:
        Worker process count; ``None`` means ``os.cpu_count()``.  The
        pool is kept for later calls on the same graph (see the module
        docstring).
    """

    name = "process"

    def __init__(self, jobs: int | None = None) -> None:
        self._pool: multiprocessing.pool.Pool | None = None
        self._pool_graph: "weakref.ref[DFG] | None" = None
        self._pool_token: object | None = None
        self._pool_finalizer: weakref.finalize | None = None
        if jobs is not None and jobs < 1:
            raise BackendError(f"jobs must be ≥ 1, got {jobs}")
        super().__init__(jobs=jobs)

    def describe(self) -> str:
        return f"{self.name}(jobs={self.effective_jobs()})"

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

    def _acquire_pool(self, dfg: "DFG"):
        """A pool primed with ``dfg`` — the retained one when still valid.

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
            and cache is not None
            and cache.get("process_pool_token") is self._pool_token
        ):
            return self._pool
        self.close()
        self._pool = multiprocessing.get_context().Pool(
            self.effective_jobs(), initializer=_init_worker, initargs=(dfg,)
        )
        # Shuts the pool down when the backend is collected, or at
        # interpreter exit while the pool machinery is still importable.
        self._pool_finalizer = weakref.finalize(self, _shutdown, self._pool)
        self._generation += 1
        self._pool_graph = weakref.ref(dfg)
        self._pool_token = object()
        if cache is not None:
            cache["process_pool_token"] = self._pool_token
        return self._pool

    def close(self) -> None:
        """Shut down the retained pool (no-op without one)."""
        if self._pool_finalizer is not None:
            self._pool_finalizer()
            self._pool = None
            self._pool_graph = None
            self._pool_token = None
            self._pool_finalizer = None

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def classify_partitions(
        self,
        dfg: "DFG",
        partitions: "Sequence[Sequence[int]]",
        weights: Sequence[int],
        size: int,
        span_limit: int | None,
        max_count: int | None,
    ) -> list[list[tuple]]:
        """:func:`classify_partition_rows`, its passes mapped over the pool.

        Each pass group (:func:`_pass_bounds`) is one pool task, so the
        rows are the in-process call's bit for bit; with one job or a
        single pass the call runs in-process and starts no pool.
        """
        bounds = _pass_bounds(weights)
        if self.effective_jobs() <= 1 or len(bounds) < 2:
            return super().classify_partitions(
                dfg, partitions, weights, size, span_limit, max_count
            )
        tasks = [
            (partitions[lo:hi], weights[lo:hi], size, span_limit, max_count)
            for lo, hi in bounds
        ]
        # map preserves input order: rows come back in ascending seed
        # order, aligned with ``partitions``.
        results = self._acquire_pool(dfg).map(_classify_pass, tasks, chunksize=1)
        return [rows for group in results for rows in group]

    def classify(
        self,
        dfg: "DFG",
        capacity: int,
        span_limit: int | None = None,
        *,
        store_antichains: bool = False,
        max_count: int | None = DEFAULT_MAX_COUNT,
    ) -> "PatternCatalog":
        """Plan → :meth:`classify_partitions` → merge: the partitioned build."""
        if store_antichains:
            raise PatternError(
                f"the {self.name!r} backend cannot store raw antichains; "
                "use the serial backend with store_antichains"
            )
        # Validates the graph eagerly (a cycle fails before any planning).
        AntichainEnumerator(dfg)
        plan, weights = plan_seed_partitions(dfg, EDIT_PARTITIONS)
        return merge_classified_parts(
            dfg,
            self.classify_partitions(
                dfg, plan, weights, capacity, span_limit, max_count
            ),
            capacity=capacity,
            span_limit=span_limit,
            max_count=max_count,
        )
