"""The execution-backend seam (`ExecutionBackend`).

Every compute-heavy pipeline stage — pattern generation (enumerate →
classify), Fig. 7 selection and Fig. 3 scheduling — runs through one
dispatch object: callers resolve a backend once
(:func:`repro.exec.get_backend`) and every stage runs through it.

The contract: **all backends produce bit-identical results** —
identical catalogs (same patterns, same counts, same per-pattern Counter
insertion order), identical selection rounds (exact float priorities)
and identical schedules.  A backend is a
strategy for *how* to compute, never *what*.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable

from repro.dfg.antichains import DEFAULT_MAX_COUNT

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.selection import PatternSelector, SelectionRound
    from repro.dfg.graph import DFG
    from repro.patterns.enumeration import PatternCatalog
    from repro.patterns.pattern import Pattern
    from repro.scheduling.schedule import Schedule
    from repro.scheduling.scheduler import MultiPatternScheduler

__all__ = ["ExecutionBackend"]


class ExecutionBackend(abc.ABC):
    """Strategy object executing the pipeline's compute stages.

    Subclasses implement the three stage hooks below.  Instances hold no
    resources and are reusable across graphs.
    """

    #: Canonical registry name (also used in reports and JSON output).
    name: str = "?"

    #: The partitioned pattern-generation step, or ``None``:
    #: ``classify_partitions(dfg, partitions, weights, size, span_limit,
    #: max_count)`` returns one sparse row list per seed partition, as
    #: :func:`repro.exec.process.classify_partition_rows` does, and raises
    #: the error of a partition it cannot classify.  The fused backend
    #: makes that one call; a backend without the step (the serial
    #: reference) builds every catalog with :meth:`classify` alone.
    classify_partitions: "Callable[..., list[list[tuple]]] | None" = None

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def classify(
        self,
        dfg: "DFG",
        capacity: int,
        span_limit: int | None = None,
        *,
        store_antichains: bool = False,
        max_count: int | None = DEFAULT_MAX_COUNT,
    ) -> "PatternCatalog":
        """Pattern generation: enumerate antichains and classify into patterns.

        Semantics match :func:`repro.patterns.enumeration.classify_antichains`;
        ``max_count=None`` disables the enumeration ceiling.
        """

    @abc.abstractmethod
    def run_selection(
        self,
        selector: "PatternSelector",
        catalog: "PatternCatalog",
        pdef: int,
        all_colors: frozenset[str],
    ) -> "tuple[list[Pattern], list[SelectionRound]]":
        """Run the Fig. 7 selection loop over a prebuilt catalog."""

    @abc.abstractmethod
    def run_schedule(
        self,
        scheduler: "MultiPatternScheduler",
        dfg: "DFG",
    ) -> "Schedule":
        """Run the Fig. 3 multi-pattern list scheduling loop."""

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line human-readable description for reports/CLI output."""
        return self.name

    def availability(self) -> str:
        """Which code path this backend would run in *this* process.

        Fleet operators diff this across instances (``repro backends``)
        to spot hosts silently running degraded paths.  The base answer
        covers every backend without optional dependencies; backends with
        accelerated paths override it to report what is actually loaded
        (compiled extension present, numpy version, fallback active).
        """
        return "pure python"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
