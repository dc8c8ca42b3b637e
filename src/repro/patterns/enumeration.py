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

Catalog construction runs through an execution backend (see
:mod:`repro.exec` and PERFORMANCE.md): the default fused backend
classifies inside the enumeration DFS via
:meth:`~repro.dfg.antichains.AntichainEnumerator.classify_by_label`
(no per-antichain allocations; one interned :class:`Pattern` per bag),
the serial backend materializes name tuples and classifies them
sequentially, and the process backend fans the bitset classifier out over
seed-node partitions.  All produce equal catalogs — including per-pattern
Counter insertion order, which Eq. 8's float summation depends on.
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
    backend: object | None = None,
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
        Requires the serial backend — the stored name tuples are exactly
        what the fused path exists to avoid.
    max_count:
        Enumeration safety ceiling (see :mod:`repro.dfg.antichains`).
    backend:
        An :class:`~repro.exec.backend.ExecutionBackend` instance or
        registered backend name (e.g. ``"process"``).  Omitted, the fused
        backend classifies inside the enumeration DFS without
        materializing antichains, unless ``store_antichains`` demands the
        serial name-tuple classifier (only the serial backend stores
        antichains; the others raise).  All backends produce equal
        catalogs — the equivalence test-suite pins this.

    Returns
    -------
    PatternCatalog
    """
    from repro.exec import get_backend

    if backend is None:
        backend = "serial" if store_antichains else "fused"
    backend = get_backend(backend)  # type: ignore[arg-type]
    return backend.classify(
        dfg,
        capacity,
        span_limit,
        store_antichains=store_antichains,
        max_count=max_count,
    )


def _classify_fast(
    dfg: "DFG",
    enum: AntichainEnumerator,
    capacity: int,
    span_limit: int | None,
    max_count: int | None,
    classify=None,
) -> PatternCatalog:
    """Fused engine: in-DFS classification into int frequency arrays.

    One :class:`Pattern` is interned per distinct bag and every name-keyed
    Counter is built in the same insertion order the reference classifier
    would produce, so the two engines' catalogs compare equal — including
    Counter iteration order, which downstream float summations depend on.

    ``classify`` swaps the label-classification core (the bitset backend
    passes its vectorized kernel); any replacement must honour the
    ``classify_by_label`` contract bit for bit, because this conversion
    trusts the bag/first_seen orders it returns.
    """
    names = dfg.nodes
    labels, id_colors = dfg.color_labels()

    if classify is None:
        classify = enum.classify_by_label
    buckets = classify(labels, capacity, span_limit, max_count=max_count)
    freqs: dict[Pattern, Counter[str]] = {}
    counts: dict[Pattern, int] = {}
    for bag, cls in buckets.items():
        bag_counts: dict[str, int] = {}
        for cid in bag:
            c = id_colors[cid]
            bag_counts[c] = bag_counts.get(c, 0) + 1
        pattern = Pattern.from_counts(bag_counts)
        freq = cls.frequencies
        # int() matters in the numpy-spill regime: keep Counter values
        # plain python ints regardless of the buffer representation.
        freqs[pattern] = Counter({names[i]: int(freq[i]) for i in cls.first_seen})
        counts[pattern] = cls.count
    return PatternCatalog(
        dfg=dfg,
        capacity=capacity,
        span_limit=span_limit,
        frequencies=freqs,
        antichain_counts=counts,
    )


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
