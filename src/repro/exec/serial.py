"""The serial (reference) backend — straightforward loops, the oracle.

Runs the materializing name-tuple classifier, the verbatim Fig. 7
selection loop and the name-based Fig. 3 scheduler.  It is the slowest
backend and the semantic ground truth every other backend is pinned
against (``tests/test_engine_equivalence.py``).  It is also the only
backend that can store raw antichains on the catalog and the only one
whose selection loop supports arbitrary custom ``priority_fn`` callables
without falling back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dfg.antichains import DEFAULT_MAX_COUNT, AntichainEnumerator
from repro.exec.backend import ExecutionBackend

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.selection import PatternSelector, SelectionRound
    from repro.dfg.graph import DFG
    from repro.patterns.enumeration import PatternCatalog
    from repro.patterns.pattern import Pattern
    from repro.scheduling.schedule import Schedule
    from repro.scheduling.scheduler import MultiPatternScheduler

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Reference implementations of every stage (see module docstring)."""

    name = "serial"

    def classify(
        self,
        dfg: "DFG",
        capacity: int,
        span_limit: int | None = None,
        *,
        store_antichains: bool = False,
        max_count: int | None = DEFAULT_MAX_COUNT,
    ) -> "PatternCatalog":
        from repro.patterns.enumeration import _classify_reference

        enum = AntichainEnumerator(dfg)
        return _classify_reference(
            dfg, enum, capacity, span_limit, max_count, store_antichains
        )

    def run_selection(
        self,
        selector: "PatternSelector",
        catalog: "PatternCatalog",
        pdef: int,
        all_colors: frozenset[str],
    ) -> "tuple[list[Pattern], list[SelectionRound]]":
        return selector._run_reference(catalog, pdef, all_colors)

    def run_schedule(
        self,
        scheduler: "MultiPatternScheduler",
        dfg: "DFG",
    ) -> "Schedule":
        return scheduler._schedule_reference(dfg)
