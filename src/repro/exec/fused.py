"""The fused backend — the fast paths, and the default everywhere.

Pattern generation is the partitioned build every fast catalog build
shares (:mod:`repro.exec.process`): plan the
:data:`~repro.exec.process.EDIT_PARTITIONS` seed partitions, classify
them with :meth:`FusedBackend.classify_partitions` — one
:func:`~repro.exec.process.classify_partition_rows` call over the bitset
kernel (:func:`~repro.exec.bitset.classify_rows_bitset`), which
reproduces the scalar roots-restricted DFS
(``classify_by_label(..., roots=seeds)``) bit for bit and falls back to
it when :func:`~repro.exec.bitset.bitset_supported` says no — and merge
the rows in ascending-seed order, which is why the catalog is
bit-identical to the serial reference's.  The monolithic
:meth:`FusedBackend.classify` (``PatternSelector.build_catalog``,
``classify_antichains``, ``repro select``), the service's cached build
(and with it the incremental warm-edit rebuild) and the shard endpoint
all run that one step.  Selection runs the incremental Fig. 7 loop and
scheduling the integer Fig. 3 hot loop.

Two capability notes, inherited from the fast paths it wraps:

* it cannot store raw antichains (the per-antichain name tuples are
  exactly what the kernel exists to avoid) — asking for
  ``store_antichains`` raises;
* its incremental selection cache is only valid for the stock Eq. 8
  priority, so custom ``priority_fn`` callables (whose scores may depend
  on global pool state) are routed to the reference loop automatically —
  same outputs, without the cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.dfg.antichains import DEFAULT_MAX_COUNT, AntichainEnumerator
from repro.exceptions import PatternError
from repro.exec import process
from repro.exec.backend import ExecutionBackend
from repro.exec.bitset import bitset_availability

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.selection import PatternSelector, SelectionRound
    from repro.dfg.graph import DFG
    from repro.patterns.enumeration import PatternCatalog
    from repro.patterns.pattern import Pattern
    from repro.scheduling.schedule import Schedule
    from repro.scheduling.scheduler import MultiPatternScheduler

__all__ = ["FusedBackend"]


class FusedBackend(ExecutionBackend):
    """The fast paths behind the backend seam (see module docstring)."""

    name = "fused"

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
        dfg.check_acyclic()  # a cycle fails before any planning
        plan, weights = process.plan_seed_partitions(dfg, process.EDIT_PARTITIONS)
        return process.merge_classified_parts(
            dfg,
            self.classify_partitions(
                dfg, plan, weights, capacity, span_limit, max_count
            ),
            capacity=capacity,
            span_limit=span_limit,
            max_count=max_count,
        )

    def classify_partitions(
        self,
        dfg: "DFG",
        partitions: "Sequence[Sequence[int]]",
        weights: Sequence[int],
        size: int,
        span_limit: int | None,
        max_count: int | None,
    ) -> list[list[tuple]]:
        """One :func:`~repro.exec.process.classify_partition_rows` call."""
        return process.classify_partition_rows(
            AntichainEnumerator(dfg),
            dfg.color_labels()[0],
            partitions,
            size,
            span_limit,
            max_count,
            weights=weights,
        )

    def availability(self) -> str:
        return bitset_availability()

    def run_selection(
        self,
        selector: "PatternSelector",
        catalog: "PatternCatalog",
        pdef: int,
        all_colors: frozenset[str],
    ) -> "tuple[list[Pattern], list[SelectionRound]]":
        from repro.core.priority import raw_priority

        if selector.priority_fn is not raw_priority:
            # The incremental cache assumes Eq. 8 locality; custom priorities
            # run the reference loop (identical results, no cache).
            return selector._run_reference(catalog, pdef, all_colors)
        return selector._run_fast(catalog, pdef, all_colors)

    def run_schedule(
        self,
        scheduler: "MultiPatternScheduler",
        dfg: "DFG",
    ) -> "Schedule":
        return scheduler._schedule_fast(dfg)
