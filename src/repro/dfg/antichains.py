"""Bounded antichain enumeration with span pruning (paper §5.1).

An *antichain* is a set of pairwise parallelizable nodes (one-element sets
included); it is *executable* when its size is at most the number ``C`` of
reconfigurable resources.  The pattern generation step enumerates all
antichains of size ``1..C`` whose :func:`~repro.dfg.span.span` does not exceed
a limit, then classifies them by their color bag (see
:mod:`repro.patterns.enumeration`).

Algorithm
---------
Depth-first extension in increasing node-index order.  For the current
antichain we carry a bitmask of nodes that (a) have a larger index than the
last member and (b) are parallelizable with *every* member.  Extending by
node ``j`` intersects that mask with the complement of ``j``'s comparability
mask.  Span pruning is sound because ``Span`` is monotone non-decreasing
under set extension (max-ASAP can only grow, min-ALAP only shrink).

The number of antichains grows combinatorially (paper Table 5); a
``max_count`` guard raises :class:`~repro.exceptions.EnumerationLimitError`
rather than silently eating memory.

Fused fast paths
----------------
Enumerating millions of name tuples only to immediately reduce them (into a
per-size census or a per-pattern frequency table) dominates pattern
generation cost.  Two allocation-free fast paths therefore run the *same*
DFS — identical visit order, pruning and ``max_count`` semantics — but fold
the reduction into the walk:

* :meth:`AntichainEnumerator.count_by_size` — counting-only mode for the
  Table 5 sweeps; no member tuples are ever built.
* :meth:`AntichainEnumerator.classify_by_label` — in-DFS classification for
  pattern generation: antichains are bucketed by their color bag *at the
  index level*, accumulating node-frequency int arrays per bucket.  Bag
  identity is tracked incrementally through a transition trie
  (``(bucket, label) → bucket``), so the hot loop performs one dict lookup
  per extension instead of building a key object per antichain.

Parallel partitioning
---------------------
The DFS explores antichains in lexicographic order of their ascending index
tuples: the entire subtree rooted at seed node 0 (all antichains whose
smallest member is 0) is visited before seed node 1's, and so on.  Subtrees
of distinct seeds are disjoint, so the enumeration partitions cleanly by
seed node — the ``roots`` parameter of :meth:`AntichainEnumerator.classify_by_label`
restricts one call to a chosen set of seeds.  The process execution backend
(:mod:`repro.exec.process`) fans those per-seed subtrees out over workers
and merges the resulting int frequency arrays elementwise (they add);
concatenating per-seed results in ascending seed order reproduces the
sequential visit order exactly, which keeps merged catalogs bit-identical.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.dfg.levels import LevelAnalysis
from repro.dfg.traversal import comparability_masks
from repro.exceptions import EnumerationLimitError, GraphError

try:  # optional — bucket arrays spill to numpy on very large graphs
    import numpy as _np
except ImportError:  # pragma: no cover - the container ships numpy
    _np = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfg.graph import DFG

__all__ = [
    "AntichainEnumerator",
    "LabelClassification",
    "enumerate_antichains",
    "count_antichains_by_size",
    "is_antichain",
    "is_executable",
    "antichain_count_floor",
    "limit_error",
]


def limit_error(
    dfg: "DFG", max_count: int, max_size: int, span_limit: int | None
) -> EnumerationLimitError:
    """The canonical over-``max_count`` error for ``dfg``.

    Shared by the in-DFS enumerators and every merge path that re-checks
    the global count after combining per-partition results (the process
    backend and the shard coordinator), so all of them fail with the same
    message for the same overflow.
    """
    return EnumerationLimitError(
        f"more than {max_count} antichains in {dfg.name!r} "
        f"(size ≤ {max_size}, span ≤ {span_limit}); raise "
        f"max_count or tighten the span limit"
    )


def antichain_count_floor(dfg: "DFG", max_size: int) -> int:
    """A lower bound on the antichains of size ``1..max_size`` at any span.

    Nodes sharing an ASAP level are pairwise parallel (a path ``u → v``
    forces ``ASAP(u) < ASAP(v)``), and a subset of ASAP level ``t`` has
    span 0 because every member's ALAP is ``≥ t``; the same holds for one
    ALAP level.  So every non-empty subset of one level is a span-0
    antichain, and the larger of the two level censuses never exceeds the
    antichain count at span 0 — nor, since spans only admit more, at any
    span.  O(n + levels·max_size) over the memoized
    :class:`~repro.dfg.levels.LevelAnalysis`; raises
    :class:`~repro.exceptions.CycleError` on a cyclic graph.
    """
    levels = LevelAnalysis.of(dfg)
    return max(
        sum(
            comb(width, k)
            for width in Counter(by_node.values()).values()
            for k in range(1, max_size + 1)
        )
        for by_node in (levels.asap, levels.alap)
    )


#: Default hard ceiling on the number of enumerated antichains.
DEFAULT_MAX_COUNT = 5_000_000

#: Node count beyond which per-bucket frequency arrays spill to numpy
#: ``int64`` arrays: ``[0] * n`` per bucket costs ~8x the memory of a dense
#: int64 vector at interpreter-object granularity, and the process backend's
#: merge becomes a vectorized elementwise add.  Pure-python lists remain the
#: fallback when numpy is absent.
NUMPY_SPILL_THRESHOLD = 10_000


def _freq_buffer(n: int) -> "Sequence[int]":
    """A zeroed per-bucket node-frequency accumulator of length ``n``.

    Spills to a numpy int64 array beyond :data:`NUMPY_SPILL_THRESHOLD`
    (when numpy is importable); otherwise a plain list.  Both support the
    ``buf[i]`` read/write the classification loop performs.
    """
    if _np is not None and n >= NUMPY_SPILL_THRESHOLD:
        return _np.zeros(n, dtype=_np.int64)
    return [0] * n


@dataclass(frozen=True)
class LabelClassification:
    """One label-bag bucket produced by in-DFS classification.

    Attributes
    ----------
    count:
        Number of antichains carrying this bag (``Σ_A 1``).
    frequencies:
        Node-index-indexed int array: ``frequencies[i]`` is the number of
        this bag's antichains containing node ``i`` — the paper's
        ``h(p̄, n)`` before names are attached.  A plain list on ordinary
        graphs; a numpy ``int64`` array past
        :data:`NUMPY_SPILL_THRESHOLD` nodes (when numpy is available).
    first_seen:
        Node indices with nonzero frequency, in the order the DFS first
        recorded them.  Downstream consumers use it to build name-keyed
        mappings whose insertion order matches the sequential reference
        classifier exactly.
    """

    count: int
    frequencies: Sequence[int]
    first_seen: list[int]


def is_antichain(dfg: "DFG", nodes: Iterable[str]) -> bool:
    """``True`` iff ``nodes`` is a set of pairwise parallelizable nodes.

    Follows the paper's definition: a single node is an antichain; a set
    containing a follower relation (or a duplicate) is not.
    """
    names = list(nodes)
    if len(set(names)) != len(names):
        return False
    if not names:
        return False
    comp = comparability_masks(dfg)
    idx = [dfg.index(n) for n in names]
    for a in idx:
        for b in idx:
            if a != b and comp[a] >> b & 1:
                return False
    return True


def is_executable(dfg: "DFG", nodes: Iterable[str], capacity: int) -> bool:
    """``True`` iff ``nodes`` is an antichain of size ≤ ``capacity`` (paper §3)."""
    names = list(nodes)
    return len(names) <= capacity and is_antichain(dfg, names)


class AntichainEnumerator:
    """Reusable antichain enumerator for one DFG.

    Precomputes the level analysis and comparability bitmasks once;
    enumeration calls are then cheap to repeat with different size/span
    bounds (the ablation benchmarks sweep both).

    Parameters
    ----------
    dfg:
        The graph; must be acyclic.
    """

    def __init__(self, dfg: "DFG") -> None:
        dfg.check_acyclic()
        self.dfg = dfg
        self.levels = LevelAnalysis.of(dfg)
        self._comp = comparability_masks(dfg)
        n = dfg.n_nodes
        self._asap = [self.levels.asap[dfg.name_of(i)] for i in range(n)]
        self._alap = [self.levels.alap[dfg.name_of(i)] for i in range(n)]

    # ------------------------------------------------------------------ #
    def _check_bounds(
        self, max_size: int, min_size: int, span_limit: int | None
    ) -> None:
        if max_size < 1:
            raise GraphError(f"max_size must be ≥ 1, got {max_size}")
        if min_size < 1 or min_size > max_size:
            raise GraphError(
                f"min_size must be in 1..max_size, got {min_size} (max {max_size})"
            )
        if span_limit is not None and span_limit < 0:
            raise GraphError(f"span_limit must be ≥ 0, got {span_limit}")

    def _limit_error(
        self, max_count: int, max_size: int, span_limit: int | None
    ) -> EnumerationLimitError:
        return limit_error(self.dfg, max_count, max_size, span_limit)

    def iter_index_antichains(
        self,
        max_size: int,
        span_limit: int | None = None,
        *,
        min_size: int = 1,
        max_count: int | None = DEFAULT_MAX_COUNT,
    ) -> Iterator[tuple[int, ...]]:
        """Yield antichains as ascending node-index tuples.

        Parameters
        ----------
        max_size:
            Maximum antichain cardinality (the architecture's ``C``).
        span_limit:
            Maximum allowed ``Span(A)``; ``None`` disables span pruning.
        min_size:
            Smallest cardinality to yield (≥ 1).
        max_count:
            Safety ceiling; ``None`` disables it.
        """
        self._check_bounds(max_size, min_size, span_limit)

        n = self.dfg.n_nodes
        comp = self._comp
        asap = self._asap
        alap = self._alap
        produced = 0
        full_mask = (1 << n) - 1

        # members, allowed-extension mask, running max(ASAP), min(ALAP)
        stack: list[tuple[tuple[int, ...], int, int, int]] = []
        for i in range(n):
            higher = full_mask & ~((1 << (i + 1)) - 1)
            stack.append(((i,), higher & ~comp[i], asap[i], alap[i]))
        # LIFO DFS would enumerate in reverse start order; reverse the seed so
        # output is in lexicographic index order (deterministic, testable).
        stack.reverse()

        while stack:
            members, allowed, mx_asap, mn_alap = stack.pop()
            if len(members) >= min_size:
                produced += 1
                if max_count is not None and produced > max_count:
                    raise self._limit_error(max_count, max_size, span_limit)
                yield members
            if len(members) == max_size:
                continue
            ext: list[tuple[tuple[int, ...], int, int, int]] = []
            m = allowed
            while m:
                low = m & -m
                j = low.bit_length() - 1
                m ^= low
                new_mx = mx_asap if mx_asap >= asap[j] else asap[j]
                new_mn = mn_alap if mn_alap <= alap[j] else alap[j]
                if span_limit is not None and new_mx - new_mn > span_limit:
                    continue
                ext.append((members + (j,), allowed & ~comp[j] & ~(low - 1) & ~low,
                            new_mx, new_mn))
            stack.extend(reversed(ext))

    def iter_antichains(
        self,
        max_size: int,
        span_limit: int | None = None,
        *,
        min_size: int = 1,
        max_count: int | None = DEFAULT_MAX_COUNT,
    ) -> Iterator[tuple[str, ...]]:
        """Like :meth:`iter_index_antichains` but yields node-name tuples."""
        name_of = self.dfg.name_of
        for idx in self.iter_index_antichains(
            max_size,
            span_limit,
            min_size=min_size,
            max_count=max_count,
        ):
            yield tuple(name_of(i) for i in idx)

    def count_by_size(
        self,
        max_size: int,
        span_limit: int | None = None,
        *,
        max_count: int | None = DEFAULT_MAX_COUNT,
    ) -> dict[int, int]:
        """Antichain counts keyed by cardinality — the paper's Table 5 rows.

        Counting-only mode: runs the same DFS as
        :meth:`iter_index_antichains` (same pruning, same ``max_count``
        semantics) but never materializes member tuples, so Table 5 sweeps
        over multi-million antichain spaces stay allocation-free.
        """
        self._check_bounds(max_size, 1, span_limit)
        counts = {k: 0 for k in range(1, max_size + 1)}

        n = self.dfg.n_nodes
        comp = self._comp
        asap = self._asap
        alap = self._alap
        produced = 0
        full_mask = (1 << n) - 1

        # depth, allowed-extension mask, running max(ASAP), min(ALAP)
        stack: list[tuple[int, int, int, int]] = []
        for i in range(n):
            higher = full_mask & ~((1 << (i + 1)) - 1)
            stack.append((1, higher & ~comp[i], asap[i], alap[i]))
        stack.reverse()

        pop = stack.pop
        extend = stack.extend
        while stack:
            depth, allowed, mx_asap, mn_alap = pop()
            produced += 1
            if max_count is not None and produced > max_count:
                raise self._limit_error(max_count, max_size, span_limit)
            counts[depth] += 1
            if depth == max_size:
                continue
            depth += 1
            ext: list[tuple[int, int, int, int]] = []
            m = allowed
            while m:
                low = m & -m
                j = low.bit_length() - 1
                m ^= low
                new_mx = mx_asap if mx_asap >= asap[j] else asap[j]
                new_mn = mn_alap if mn_alap <= alap[j] else alap[j]
                if span_limit is not None and new_mx - new_mn > span_limit:
                    continue
                ext.append((depth, allowed & ~comp[j] & ~(low - 1) & ~low,
                            new_mx, new_mn))
            extend(reversed(ext))
        return counts

    def classify_by_label(
        self,
        labels: Sequence[int],
        max_size: int,
        span_limit: int | None = None,
        *,
        min_size: int = 1,
        max_count: int | None = DEFAULT_MAX_COUNT,
        roots: Sequence[int] | None = None,
    ) -> dict[tuple[int, ...], LabelClassification]:
        """Classify antichains by label bag inside the DFS (fused fast path).

        ``labels[i]`` is an integer label (e.g. an interned color id) for
        node index ``i``.  Antichains are never materialized; each visited
        antichain increments one bucket's census and the per-node int
        frequency array ``h(bag, ·)`` of that bucket.  Bag identity is
        carried incrementally: each DFS frame holds its bucket id, and
        extending by a node of label ``c`` resolves the child bucket through
        a memoized ``(bucket, c) → bucket`` transition table, so the hot
        loop allocates nothing per antichain beyond its stack frame.

        Returns a dict mapping each bag (ascending label tuple) to a
        :class:`LabelClassification`, in first-visit order — exactly the
        order in which a sequential classify over :meth:`iter_index_antichains`
        would first see each bag.  Visit order, pruning and ``max_count``
        semantics are identical to :meth:`iter_index_antichains`.

        ``roots`` restricts the walk to the DFS subtrees rooted at the given
        seed node indices — i.e. to antichains whose *smallest* member is
        one of those nodes.  The subtrees of distinct seeds are disjoint and
        their concatenation in ascending seed order is the full sequential
        enumeration, which is what the process backend exploits to fan the
        classification out over workers (see the module docstring).
        """
        self._check_bounds(max_size, min_size, span_limit)
        n = self.dfg.n_nodes
        if len(labels) != n:
            raise GraphError(
                f"labels has {len(labels)} entries for {n} nodes"
            )
        comp = self._comp
        asap = self._asap
        alap = self._alap
        produced = 0
        full_mask = (1 << n) - 1
        if roots is None:
            seed_ids: Iterable[int] = range(n)
        else:
            seed_ids = sorted(set(roots))
            for r in seed_ids:
                if not 0 <= r < n:
                    raise GraphError(
                        f"root index {r} out of range for {n} nodes"
                    )

        # Per-bucket state, indexed by bucket id.
        bag_keys: list[tuple[int, ...]] = []
        bucket_counts: list[int] = []
        bucket_freqs: list[Sequence[int]] = []
        bucket_orders: list[list[int]] = []
        transitions: list[dict[int, int]] = []
        key_to_bucket: dict[tuple[int, ...], int] = {}
        visit_order: list[int] = []

        def bucket_of(key: tuple[int, ...]) -> int:
            b = key_to_bucket.get(key)
            if b is None:
                b = len(bag_keys)
                key_to_bucket[key] = b
                bag_keys.append(key)
                bucket_counts.append(0)
                bucket_freqs.append(_freq_buffer(n))
                bucket_orders.append([])
                transitions.append({})
            return b

        path = [0] * max_size
        # depth, node, allowed-extension mask, max(ASAP), min(ALAP), bucket
        stack: list[tuple[int, int, int, int, int, int]] = []
        for i in seed_ids:
            higher = full_mask & ~((1 << (i + 1)) - 1)
            stack.append(
                (1, i, higher & ~comp[i], asap[i], alap[i], bucket_of((labels[i],)))
            )
        stack.reverse()

        pop = stack.pop
        extend = stack.extend
        while stack:
            depth, j, allowed, mx_asap, mn_alap, b = pop()
            path[depth - 1] = j
            if depth >= min_size:
                produced += 1
                if max_count is not None and produced > max_count:
                    raise self._limit_error(max_count, max_size, span_limit)
                count = bucket_counts[b]
                if count == 0:
                    visit_order.append(b)
                bucket_counts[b] = count + 1
                freq = bucket_freqs[b]
                order = bucket_orders[b]
                for d in range(depth):
                    i = path[d]
                    h = freq[i]
                    if h == 0:
                        order.append(i)
                    freq[i] = h + 1
            if depth == max_size:
                continue
            trans = transitions[b]
            depth += 1
            ext: list[tuple[int, int, int, int, int, int]] = []
            m = allowed
            while m:
                low = m & -m
                k = low.bit_length() - 1
                m ^= low
                new_mx = mx_asap if mx_asap >= asap[k] else asap[k]
                new_mn = mn_alap if mn_alap <= alap[k] else alap[k]
                if span_limit is not None and new_mx - new_mn > span_limit:
                    continue
                c = labels[k]
                nb = trans.get(c)
                if nb is None:
                    nb = bucket_of(tuple(sorted(bag_keys[b] + (c,))))
                    trans[c] = nb
                ext.append((depth, k, allowed & ~comp[k] & ~(low - 1) & ~low,
                            new_mx, new_mn, nb))
            extend(reversed(ext))

        return {
            bag_keys[b]: LabelClassification(
                count=bucket_counts[b],
                frequencies=bucket_freqs[b],
                first_seen=bucket_orders[b],
            )
            for b in visit_order
        }


def enumerate_antichains(
    dfg: "DFG",
    max_size: int,
    span_limit: int | None = None,
    *,
    min_size: int = 1,
    max_count: int | None = DEFAULT_MAX_COUNT,
) -> list[tuple[str, ...]]:
    """All antichains of ``dfg`` with ``min_size ≤ |A| ≤ max_size``.

    Convenience wrapper over :class:`AntichainEnumerator`; see its
    documentation for parameter semantics.
    """
    enum = AntichainEnumerator(dfg)
    return list(
        enum.iter_antichains(
            max_size, span_limit, min_size=min_size, max_count=max_count
        )
    )


def count_antichains_by_size(
    dfg: "DFG",
    max_size: int,
    span_limit: int | None = None,
    *,
    max_count: int | None = DEFAULT_MAX_COUNT,
) -> dict[int, int]:
    """Antichain census by size (paper Table 5); see :class:`AntichainEnumerator`."""
    return AntichainEnumerator(dfg).count_by_size(
        max_size, span_limit, max_count=max_count
    )
