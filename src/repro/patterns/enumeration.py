"""Pattern generation: classify antichains by their color bag (paper §5.1).

The pattern generation method "finds all antichains of size [≤] C first and
then the antichains are classified according to their patterns" — every
antichain's color bag is a pattern, and the antichains sharing a bag form its
occurrence list (paper Table 4).  The classification also yields the **node
frequency** ``h(p̄, n)``: the number of antichains of pattern ``p̄`` that
contain node ``n`` (paper §5.2, Table 6), which is all the selection
algorithm needs.

:class:`PatternCatalog` stores frequencies always and the raw antichain lists
optionally (they are only needed for reporting; frequencies suffice for
selection and keeping millions of tuples alive would be wasteful).

Catalog construction classifies seed-node partitions with the vectorized
bitset kernel and merges them in seed order (:mod:`repro.exec.process`;
no per-antichain allocations, one interned :class:`Pattern` per bag).
The sequential reference (:func:`_classify_reference`) materializes name
tuples and classifies them one by one; it is the oracle, and the only
path that stores raw antichains.  Both produce equal catalogs —
including per-pattern Counter insertion order, which Eq. 8's float
summation depends on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.dfg.antichains import DEFAULT_MAX_COUNT, AntichainEnumerator
from repro.patterns.pattern import Pattern

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfg.graph import DFG

__all__ = ["PatternCatalog", "classify_antichains"]


@dataclass
class PatternCatalog:
    """The outcome of pattern generation for one DFG.

    Attributes
    ----------
    dfg:
        The analysed graph.
    capacity:
        Antichain size bound ``C`` used during enumeration.
    span_limit:
        Span bound used during enumeration (``None`` = unbounded).
    frequencies:
        ``h(p̄, ·)`` per pattern: maps each pattern to a Counter from node
        name to the number of that pattern's antichains containing the node.
    antichain_counts:
        Number of antichains per pattern (``Σ_A 1``, not per node).
    antichains:
        The raw antichain lists per pattern — populated only when the catalog
        was built with ``store_antichains=True``.
    """

    dfg: "DFG"
    capacity: int
    span_limit: int | None
    frequencies: dict[Pattern, Counter[str]]
    antichain_counts: dict[Pattern, int]
    antichains: dict[Pattern, list[tuple[str, ...]]] = field(default_factory=dict)

    @property
    def patterns(self) -> tuple[Pattern, ...]:
        """All generated patterns in deterministic (size, key) order."""
        return tuple(sorted(self.frequencies))

    def node_frequency(self, pattern: Pattern, node: str) -> int:
        """``h(p̄, n)`` — 0 when the pattern has no antichain containing ``n``."""
        counter = self.frequencies.get(pattern)
        return 0 if counter is None else counter.get(node, 0)

    def frequency_vector(self, pattern: Pattern) -> tuple[int, ...]:
        """``h(p̄)`` over all nodes in graph insertion order (paper §5.2)."""
        counter = self.frequencies.get(pattern, Counter())
        return tuple(counter.get(n, 0) for n in self.dfg.nodes)

    def total_antichains(self) -> int:
        """Total number of classified antichains (all patterns)."""
        return sum(self.antichain_counts.values())

    def __contains__(self, pattern: object) -> bool:
        return pattern in self.frequencies

    def __len__(self) -> int:
        return len(self.frequencies)


def classify_antichains(
    dfg: "DFG",
    capacity: int,
    span_limit: int | None = None,
    *,
    store_antichains: bool = False,
    max_count: int | None = DEFAULT_MAX_COUNT,
) -> PatternCatalog:
    """Enumerate antichains of ``dfg`` and classify them into patterns.

    Parameters
    ----------
    dfg:
        The data-flow graph.
    capacity:
        The architecture's ``C`` — antichains larger than this are never
        executable and are not enumerated.
    span_limit:
        Maximum antichain span (paper §5.1 recommends small limits; see
        Table 5 for how sharply this cuts the enumeration).
    store_antichains:
        Keep the raw antichains per pattern (Table 4 style reporting).
        Runs the sequential name-tuple classifier
        (:func:`_classify_reference`) — the stored name tuples are exactly
        what the partitioned build exists to avoid.
    max_count:
        Enumeration safety ceiling (see :mod:`repro.dfg.antichains`).

    Without ``store_antichains`` the seed-partitioned build
    (:func:`repro.exec.process.classify_partitioned`) classifies without
    materializing antichains.  Both paths produce equal catalogs — the
    equivalence test-suite pins this.

    Returns
    -------
    PatternCatalog
    """
    if store_antichains:
        return _classify_reference(
            dfg,
            AntichainEnumerator(dfg),
            capacity,
            span_limit,
            max_count,
            store_antichains,
        )
    from repro.exec import process

    return process.classify_partitioned(dfg, capacity, span_limit, max_count=max_count)


def _classify_reference(
    dfg: "DFG",
    enum: AntichainEnumerator,
    capacity: int,
    span_limit: int | None,
    max_count: int | None,
    store_antichains: bool,
) -> PatternCatalog:
    """Sequential oracle: classify materialized name tuples one by one."""
    freqs: dict[Pattern, Counter[str]] = {}
    counts: dict[Pattern, int] = {}
    stored: dict[Pattern, list[tuple[str, ...]]] = {}
    color = dfg.color
    for names in enum.iter_antichains(capacity, span_limit, max_count=max_count):
        pattern = Pattern(color(n) for n in names)
        counter = freqs.get(pattern)
        if counter is None:
            counter = freqs[pattern] = Counter()
            counts[pattern] = 0
        counter.update(names)
        counts[pattern] += 1
        if store_antichains:
            stored.setdefault(pattern, []).append(names)
    return PatternCatalog(
        dfg=dfg,
        capacity=capacity,
        span_limit=span_limit,
        frequencies=freqs,
        antichain_counts=counts,
        antichains=stored,
    )
