"""The fused backend — single-threaded allocation-free fast paths.

Wraps the in-DFS classifier (`AntichainEnumerator.classify_by_label`),
the incremental Fig. 7 selection loop and the integer Fig. 3 scheduler
hot loop behind the backend seam.  This is the default backend everywhere
and the baseline the process backend's speedups are measured against.

Two capability notes, inherited from the fast paths it wraps:

* it cannot store raw antichains (the per-antichain name tuples are
  exactly what the fused classifier exists to avoid) — asking for
  ``store_antichains`` raises;
* its incremental selection cache is only valid for the stock Eq. 8
  priority, so custom ``priority_fn`` callables (whose scores may depend
  on global pool state) are routed to the reference loop automatically —
  same outputs, without the cache.

Partitioned builds — the service's catalog build (and with it the
incremental warm-edit rebuild), the shard endpoint and the process
backend — run :meth:`FusedBackend.classify_partitions`, one
:func:`~repro.exec.process.classify_partition_rows` call over the
bitset kernels (:func:`~repro.exec.bitset.classify_rows_bitset`), which
reproduce this backend's roots-restricted DFS
(``classify_by_label(..., roots=seeds)``) bit for bit and fall back to
it when :func:`~repro.exec.bitset.bitset_supported` says no.  They merge
in ascending-seed order, which is why their catalogs are bit-identical
to a fused single pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.dfg.antichains import DEFAULT_MAX_COUNT, AntichainEnumerator
from repro.exceptions import PatternError
from repro.exec.backend import ExecutionBackend

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.selection import PatternSelector, SelectionRound
    from repro.dfg.graph import DFG
    from repro.patterns.enumeration import PatternCatalog
    from repro.patterns.pattern import Pattern
    from repro.scheduling.schedule import Schedule
    from repro.scheduling.scheduler import MultiPatternScheduler

__all__ = ["FusedBackend"]


class FusedBackend(ExecutionBackend):
    """Fused/incremental single-threaded fast paths (see module docstring)."""

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
        from repro.patterns.enumeration import _classify_fast

        if store_antichains:
            raise PatternError(
                f"the {self.name!r} backend cannot store raw antichains; "
                "use the serial backend with store_antichains"
            )
        enum = AntichainEnumerator(dfg)
        return _classify_fast(dfg, enum, capacity, span_limit, max_count)

    def classify_partitions(
        self,
        dfg: "DFG",
        partitions: "Sequence[Sequence[int]]",
        weights: Sequence[int],
        size: int,
        span_limit: int | None,
        max_count: int | None,
    ) -> list[list[tuple]]:
        """One in-process :func:`~repro.exec.process.classify_partition_rows` call."""
        # Imported at call time: repro.exec.process imports this module.
        from repro.exec import process

        return process.classify_partition_rows(
            AntichainEnumerator(dfg),
            dfg.color_labels()[0],
            partitions,
            size,
            span_limit,
            max_count,
            weights=weights,
        )

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
