"""The multi-pattern list scheduling algorithm (paper §4, Fig. 3).

The loop, verbatim from the paper:

1. Compute the priority function for each node in the graph.
2. Get the candidate list.
3. Sort the nodes in the candidate list according to their priority
   functions.
4. Schedule the nodes in the candidate list from high priority to low
   priority according to all given patterns.
5. Compute the pattern priority function for each pattern and keep the
   pattern with highest pattern priority value.
6. Update the candidate list.
7. If the candidate list is not empty, go back to 3; else end.

Determinism follows DESIGN.md §3.4; with those tie-breaks this module
reproduces the paper's Table 2 trace *exactly* (asserted in the test-suite).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.dfg.validate import validate_dfg
from repro.exceptions import SchedulingDeadlockError, SchedulingError
from repro.patterns.library import PatternLibrary
from repro.patterns.pattern import Pattern
from repro.scheduling.candidate_list import CandidateList, IndexedCandidateQueue
from repro.scheduling.node_priority import PriorityParameters, node_priorities
from repro.scheduling.pattern_priority import PatternPriority, pattern_priority
from repro.scheduling.schedule import CycleRecord, Schedule
from repro.scheduling.selected_set import (
    revalidate_scan,
    selected_set,
    selected_set_scan,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfg.graph import DFG
    from repro.exec.backend import ExecutionBackend

__all__ = ["MultiPatternScheduler", "schedule_dfg"]


class MultiPatternScheduler:
    """List scheduler for a fixed multi-pattern library.

    Parameters
    ----------
    library:
        The allowed patterns (order is the tie-break order).
    priority:
        ``"f2"`` (default, Eq. 7) or ``"f1"`` (Eq. 6).
    params:
        Optional explicit Eq. 4 weights; derived per-graph by default.
    max_cycles:
        Safety valve; ``None`` derives ``2 * n_nodes + 1`` (any correct run
        needs at most ``n_nodes`` cycles, one node per cycle).

    Notes
    -----
    The scheduler is stateless across calls — one instance can schedule many
    graphs (the Table 7 harness reuses one per pattern set).
    """

    def __init__(
        self,
        library: PatternLibrary | Sequence[Pattern | str],
        *,
        capacity: int | None = None,
        priority: PatternPriority | str = PatternPriority.F2,
        params: PriorityParameters | None = None,
        max_cycles: int | None = None,
    ) -> None:
        if isinstance(library, PatternLibrary):
            self.library = library
        else:
            if capacity is None:
                raise SchedulingError(
                    "capacity is required when passing raw patterns"
                )
            self.library = PatternLibrary(library, capacity)
        self.priority = PatternPriority.coerce(priority)
        self.params = params
        self.max_cycles = max_cycles

    # ------------------------------------------------------------------ #
    def schedule(
        self,
        dfg: "DFG",
        *,
        backend: "ExecutionBackend | str | None" = None,
    ) -> Schedule:
        """Schedule ``dfg``, returning the full :class:`Schedule` trace.

        Parameters
        ----------
        dfg:
            The graph to schedule.
        backend:
            An :class:`~repro.exec.backend.ExecutionBackend` instance or
            registered backend name (see :func:`repro.exec.get_backend`).
            The default ``"fused"`` runs the integer hot loop — color-id
            arrays, slot-count vectors, an incrementally sorted candidate
            queue; ``"serial"`` runs the straightforward name-based loop.
            Both produce identical schedules (pinned by the equivalence
            tests).

        Raises
        ------
        SchedulingDeadlockError
            When no pattern can execute any candidate (the library's colors
            do not cover the graph's colors).
        """
        from repro.exec import get_backend

        backend = get_backend(backend if backend is not None else "fused")
        validate_dfg(dfg)
        missing = set(dfg.colors()) - self.library.color_set()
        if missing:
            raise SchedulingDeadlockError(
                f"library {self.library.as_strings()} has no slot for "
                f"colors {sorted(missing)} used by {dfg.name!r}"
            )
        return backend.run_schedule(self, dfg)

    # ------------------------------------------------------------------ #
    def _schedule_reference(self, dfg: "DFG") -> Schedule:
        """Name-based Fig. 3 loop — the equivalence oracle."""
        # Fig. 3 step 1: node priorities.
        priorities = node_priorities(dfg, params=self.params)
        # Step 2: initial candidate list.
        cl = CandidateList(dfg)
        color_of = dfg.color
        patterns = self.library.patterns
        records: list[CycleRecord] = []
        assignment: dict[str, int] = {}
        limit = (
            self.max_cycles
            if self.max_cycles is not None
            else 2 * dfg.n_nodes + 1
        )

        while cl:
            if len(records) >= limit:
                raise SchedulingError(
                    f"exceeded {limit} cycles scheduling {dfg.name!r}; "
                    "the candidate list is not draining"
                )
            # Step 3: sort candidates (stable, descending priority).
            ordered = cl.in_priority_order(priorities)
            # Step 4: hypothetical selected set per pattern.
            selections = tuple(
                selected_set(p, ordered, color_of) for p in patterns
            )
            # Step 5: pattern priorities; keep the best (ties: first).
            values = tuple(
                pattern_priority(self.priority, sel, priorities)
                for sel in selections
            )
            best = max(range(len(patterns)), key=lambda i: (values[i], -i))
            scheduled = selections[best]
            if not scheduled:
                raise SchedulingDeadlockError(
                    f"no pattern can schedule any of {ordered[:6]}… in "
                    f"{dfg.name!r} (cycle {len(records) + 1})"
                )
            cycle_no = len(records) + 1
            records.append(
                CycleRecord(
                    cycle=cycle_no,
                    candidates=ordered,
                    selections=selections,
                    priorities=values,
                    chosen=best,
                    scheduled=scheduled,
                )
            )
            for n in scheduled:
                assignment[n] = cycle_no
            # Step 6: update the candidate list.
            cl.commit_cycle(scheduled)

        schedule = Schedule(
            dfg=dfg,
            library=self.library,
            cycles=tuple(records),
            assignment=assignment,
        )
        schedule.verify()
        return schedule

    def _schedule_fast(self, dfg: "DFG") -> Schedule:
        """Integer Fig. 3 loop, bit-identical to :meth:`_schedule_reference`.

        All per-cycle work runs on dense int structures: node → color-id
        and node → priority arrays replace dict/graph lookups, each
        pattern's bag is a slot-count vector copied per hypothetical
        selection (instead of a fresh ``Counter``), and the candidate list
        is an :class:`~repro.scheduling.candidate_list.IndexedCandidateQueue`
        kept sorted across commits rather than re-sorted every cycle.
        Names only appear when a cycle's :class:`CycleRecord` is written.

        The hypothetical selected set ``S(p, CL)`` is additionally cached
        per pattern across cycles: a *complete* greedy selection depends
        only on the first ``examined`` entries of the priority-ordered
        candidate list, so it is re-walked only when the queue's
        ``min_changed_pos`` (the prefix length the last commit provably
        left untouched) reaches into that prefix.  When it does, a second,
        *color-aware* check (:func:`~repro.scheduling.selected_set.revalidate_scan`)
        replays the commit's removal/insertion events: changes involving
        only colors the pattern has no slot for cannot alter its greedy
        walk, so the cached selection survives with an adjusted prefix
        length — on color-diverse libraries most patterns keep their cache
        across most cycles.  Reused selections are by construction
        identical to a fresh walk, so none of this changes any output.
        """
        priorities = node_priorities(dfg, params=self.params)
        names = dfg.nodes
        prio = [priorities[name] for name in names]

        labels, id_colors = dfg.color_labels()
        color_ids = {c: i for i, c in enumerate(id_colors)}
        n_colors = len(id_colors)
        # Slot-count vector + size per pattern; colors a pattern provides
        # that the graph never uses occupy no vector slot (they can never
        # match a candidate).
        pattern_slots: list[tuple[list[int], int]] = []
        for p in self.library.patterns:
            vec = [0] * n_colors
            for c, k in p.counts.items():
                cid = color_ids.get(c)
                if cid is not None:
                    vec[cid] = k
            pattern_slots.append((vec, p.size))

        queue = IndexedCandidateQueue(dfg)
        queue.seed(prio)
        use_f1 = self.priority is PatternPriority.F1
        records: list[CycleRecord] = []
        assignment: dict[str, int] = {}
        limit = (
            self.max_cycles
            if self.max_cycles is not None
            else 2 * dfg.n_nodes + 1
        )
        # Per-pattern S(p, CL) cache: (selection, examined-prefix length),
        # kept only for complete selections (see selected_set_scan).
        sel_cache: list[tuple[list[int], int] | None] = [None] * len(pattern_slots)

        while queue:
            if len(records) >= limit:
                raise SchedulingError(
                    f"exceeded {limit} cycles scheduling {dfg.name!r}; "
                    "the candidate list is not draining"
                )
            # Step 3 degenerates to reading the maintained order.
            ordered_ids = queue.ordered_ids()
            # Step 4: hypothetical selected set per pattern.  A cached
            # selection is reused when the last commit only touched the
            # order beyond the prefix its greedy walk examined — or, color
            # aware, when everything it touched inside that prefix is of
            # colors the pattern has no slot for.
            stable = queue.min_changed_pos
            removals = queue.last_removals
            insertions = queue.last_insertions
            selections_ids: list[list[int]] = []
            for pi, (vec, size) in enumerate(pattern_slots):
                cached = sel_cache[pi]
                if cached is not None and stable is not None:
                    if cached[1] <= stable:
                        selections_ids.append(cached[0])
                        continue
                    boundary = revalidate_scan(
                        cached[1], removals, insertions, vec, labels
                    )
                    if boundary is not None:
                        sel_cache[pi] = (cached[0], boundary)
                        selections_ids.append(cached[0])
                        continue
                sel, examined, complete = selected_set_scan(
                    vec, size, ordered_ids, labels
                )
                sel_cache[pi] = (sel, examined) if complete else None
                selections_ids.append(sel)
            # Step 5: pattern priorities; keep the best (ties: first).
            if use_f1:
                values = tuple(len(sel) for sel in selections_ids)
            else:
                values = tuple(
                    sum(prio[i] for i in sel) for sel in selections_ids
                )
            best = max(range(len(values)), key=lambda i: (values[i], -i))
            scheduled_ids = selections_ids[best]
            if not scheduled_ids:
                ordered = tuple(names[i] for i in ordered_ids)
                raise SchedulingDeadlockError(
                    f"no pattern can schedule any of {ordered[:6]}… in "
                    f"{dfg.name!r} (cycle {len(records) + 1})"
                )
            cycle_no = len(records) + 1
            records.append(
                CycleRecord(
                    cycle=cycle_no,
                    candidates=tuple(names[i] for i in ordered_ids),
                    selections=tuple(
                        tuple(names[i] for i in sel) for sel in selections_ids
                    ),
                    priorities=values,
                    chosen=best,
                    scheduled=tuple(names[i] for i in scheduled_ids),
                )
            )
            for i in scheduled_ids:
                assignment[names[i]] = cycle_no
            # Step 6: update the candidate list.
            queue.commit_cycle(scheduled_ids, prio)

        schedule = Schedule(
            dfg=dfg,
            library=self.library,
            cycles=tuple(records),
            assignment=assignment,
        )
        schedule.verify()
        return schedule


def schedule_dfg(
    dfg: "DFG",
    patterns: PatternLibrary | Iterable[Pattern | str],
    *,
    capacity: int | None = None,
    priority: PatternPriority | str = PatternPriority.F2,
) -> Schedule:
    """One-shot convenience wrapper around :class:`MultiPatternScheduler`."""
    if not isinstance(patterns, PatternLibrary):
        patterns = list(patterns)  # type: ignore[assignment]
    scheduler = MultiPatternScheduler(
        patterns, capacity=capacity, priority=priority
    )
    return scheduler.schedule(dfg)
