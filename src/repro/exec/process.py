"""Seed-partitioned pattern generation: plan → classify → merge.

The antichain DFS visits the subtree of each *seed node* (the antichain's
smallest member index) contiguously and in ascending seed order, and the
subtrees of distinct seeds are disjoint (see :mod:`repro.dfg.antichains`).
Pattern generation therefore splits without changing a single output
bit, along one plan shared by every fast catalog build:

1. :func:`plan_seed_partitions` cuts the seeds into the
   :data:`EDIT_PARTITIONS` weight-balanced contiguous ranges (a plan fixed
   by the graph alone);
2. :func:`classify_partition_rows` classifies ranges into sparse rows,
   batching light neighbours into one vectorized BFS pass
   (:func:`~repro.exec.bitset.classify_rows_bitset`, bit-identical to the
   scalar DFS, which it runs instead when
   :func:`~repro.exec.bitset.bitset_supported` says no);
3. :func:`merge_classified_parts` merges the rows in ascending seed
   order: censuses and int frequency arrays add elementwise, bag keys
   merge by first appearance and per-bag first-seen node lists
   concatenate-dedupe — exactly the sequential visit order, so the merged
   catalog (including every Counter's insertion order) is bit-identical
   to the sequential reference's
   (:func:`repro.patterns.enumeration._classify_reference`).

:func:`classify_partitioned` runs the three steps in process (what
``classify_antichains``, ``PatternSelector.build_catalog`` and ``repro
select`` call); the service's cached build, the shard endpoint and a
shard fleet run the same steps around their partial caches.  They differ
only in which partitions they classify and where.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.dfg.antichains import (
    DEFAULT_MAX_COUNT,
    AntichainEnumerator,
    _freq_buffer,
    _np,
    limit_error,
)
from repro.exec.bitset import classify_rows_bitset, packed_incomparable_rows

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfg.graph import DFG
    from repro.patterns.enumeration import PatternCatalog

__all__ = [
    "EDIT_PARTITIONS",
    "classify_partition_rows",
    "classify_partitioned",
    "estimate_seed_weights",
    "plan_seed_partitions",
    "merge_classified_parts",
]

#: Seed-partition count of every partitioned build — the service's, a
#: shard fleet's and :func:`classify_partitioned` — so
#: partials answer across builds and topologies (a fleet build therefore keeps at most
#: 16 shards busy).  Finer partitions shrink the re-enumerated region
#: after an edit but hash and cache more partials.
EDIT_PARTITIONS = 16

#: Summed :func:`estimate_seed_weights` of the partitions one
#: :func:`classify_partition_rows` pass may batch.  Batching saves the
#: classifier's fixed per-depth cost on light partitions; the cap keeps
#: heavy ones alone so their frontiers (peak memory) never add up.
_PASS_WEIGHT_BUDGET = 1000


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
    :func:`merge_classified_parts` on any instance.  It is the classify
    step of every partitioned build.

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
    partitioned build plans with it — :func:`classify_partitioned`, the
    service's partial cache and the shard coordinator's fleet
    (:mod:`repro.service.shard`).

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
        raise ValueError(f"partitions must be ≥ 1, got {partitions}")
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
    included) is bit-identical to the sequential reference's.
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


def classify_partitioned(
    dfg: "DFG",
    capacity: int,
    span_limit: int | None = None,
    *,
    max_count: int | None = DEFAULT_MAX_COUNT,
) -> "PatternCatalog":
    """Plan → :func:`classify_partition_rows` → merge: the in-process build.

    Classifies all :data:`EDIT_PARTITIONS` seed partitions of ``dfg`` and
    merges them, so the catalog equals the sequential reference's bit for
    bit.  A cyclic graph fails before any planning.
    """
    dfg.check_acyclic()
    plan, weights = plan_seed_partitions(dfg, EDIT_PARTITIONS)
    rows = classify_partition_rows(
        AntichainEnumerator(dfg),
        dfg.color_labels()[0],
        plan,
        capacity,
        span_limit,
        max_count,
        weights=weights,
    )
    return merge_classified_parts(
        dfg, rows, capacity=capacity, span_limit=span_limit, max_count=max_count
    )
