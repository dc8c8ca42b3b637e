"""Experiment harnesses — one per paper table/figure, plus ablations.

Every public function is deterministic given its seed arguments and returns
plain data structures; the benchmarks wrap them and render with
:mod:`repro.analysis.tables`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.analysis.stats import TrialSummary, summarize
from repro.core.config import SelectionConfig
from repro.core.selection import PatternSelector, SelectionResult
from repro.dfg.antichains import AntichainEnumerator
from repro.dfg.levels import LevelAnalysis
from repro.dfg.span import span, span_lower_bound
from repro.patterns.enumeration import PatternCatalog
from repro.patterns.library import PatternLibrary
from repro.patterns.random_gen import random_pattern_set
from repro.scheduling.baselines import (
    force_directed_schedule,
    implied_patterns,
    resource_list_schedule,
)
from repro.scheduling.pattern_priority import PatternPriority
from repro.scheduling.scheduler import MultiPatternScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfg.graph import DFG

__all__ = [
    "antichain_census",
    "pattern_set_sensitivity",
    "random_vs_selected",
    "RandomVsSelectedRow",
    "selection_walkthrough",
    "span_theorem_check",
    "span_limit_sweep",
    "parameter_sweep",
    "f1_vs_f2",
    "baseline_comparison",
]


# --------------------------------------------------------------------------- #
# Table 5
# --------------------------------------------------------------------------- #
def antichain_census(
    dfg: "DFG",
    capacity: int,
    span_limits: Sequence[int | None],
) -> dict[int | None, list[int]]:
    """Antichain counts by size for each span limit (paper Table 5).

    Returns ``{span_limit: [count_size_1, …, count_size_capacity]}``.
    """
    enum = AntichainEnumerator(dfg)
    out: dict[int | None, list[int]] = {}
    for limit in span_limits:
        counts = enum.count_by_size(capacity, limit)
        out[limit] = [counts[k] for k in range(1, capacity + 1)]
    return out


# --------------------------------------------------------------------------- #
# Table 3
# --------------------------------------------------------------------------- #
def pattern_set_sensitivity(
    dfg: "DFG",
    pattern_sets: Sequence[Sequence[str]],
    capacity: int,
) -> list[tuple[tuple[str, ...], int]]:
    """Schedule length per given pattern set (paper Table 3).

    Demonstrates the paper's §4.4 observation: "The selection of patterns
    has a very strong influence on the scheduling results!"
    """
    rows: list[tuple[tuple[str, ...], int]] = []
    for pats in pattern_sets:
        library = PatternLibrary(list(pats), capacity, allow_duplicates=True)
        length = MultiPatternScheduler(library).schedule(dfg).length
        rows.append((tuple(pats), length))
    return rows


# --------------------------------------------------------------------------- #
# Table 7 — the headline experiment
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RandomVsSelectedRow:
    """One Table 7 cell pair: random baseline vs selected patterns."""

    pdef: int
    random: TrialSummary
    selected: int
    library: tuple[str, ...]


def random_vs_selected(
    dfg: "DFG",
    pdefs: Iterable[int],
    capacity: int,
    *,
    trials: int = 10,
    seed: int = 2006,
    config: SelectionConfig | None = None,
    service: "object | None" = None,
) -> list[RandomVsSelectedRow]:
    """The paper's Table 7: random vs selected patterns across ``Pdef``.

    Random pattern sets are sampled per trial from a seeded generator (ten
    trials in the paper); the selected column submits one job per ``Pdef``
    to a :class:`~repro.service.SchedulerService` — the catalog is built
    exactly once for the whole sweep by the service's content-addressed
    catalog cache.  Pass ``service`` to share a resident service (and its
    caches) across harness calls; otherwise an ephemeral one is created.
    """
    from repro.service import JobRequest, SchedulerService

    if service is None:
        service = SchedulerService()
    colors = list(dfg.colors())
    pdefs = list(pdefs)
    cfg = config if config is not None else SelectionConfig()
    selected = service.submit_many(
        [
            JobRequest(capacity=capacity, pdef=pdef, dfg=dfg, config=cfg)
            for pdef in pdefs
        ]
    )
    rows: list[RandomVsSelectedRow] = []
    for pdef, result in zip(pdefs, selected):
        rng = random.Random(seed + pdef)
        lengths = []
        for _ in range(trials):
            lib = random_pattern_set(rng, capacity, colors, pdef)
            lengths.append(
                MultiPatternScheduler(lib).schedule(dfg).length
            )
        rows.append(
            RandomVsSelectedRow(
                pdef=pdef,
                random=summarize(lengths),
                selected=result.schedule.length,
                library=result.selection.library.as_strings(),
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# Tables 4/6 and the §5.2 worked example
# --------------------------------------------------------------------------- #
def selection_walkthrough(
    dfg: "DFG",
    capacity: int,
    pdef: int,
    *,
    config: SelectionConfig | None = None,
) -> tuple[PatternCatalog, SelectionResult]:
    """Catalog (with stored antichains) plus full selection diagnostics."""
    base = config if config is not None else SelectionConfig(span_limit=None)
    cfg = SelectionConfig(
        epsilon=base.epsilon,
        alpha=base.alpha,
        span_limit=base.span_limit,
        max_antichains=base.max_antichains,
        store_antichains=True,
    )
    selector = PatternSelector(capacity, config=cfg)
    catalog = selector.build_catalog(dfg)
    result = selector.select(dfg, pdef, catalog=catalog)
    return catalog, result


# --------------------------------------------------------------------------- #
# Figure 5 / Theorem 1
# --------------------------------------------------------------------------- #
def span_theorem_check(
    dfg: "DFG",
    capacity: int,
    *,
    trials: int = 20,
    seed: int = 9,
) -> tuple[int, int]:
    """Empirically validate Theorem 1 over many schedules.

    Every cycle's committed node set is an antichain executed in one clock
    cycle, so by Theorem 1 the *final* schedule length must be at least
    ``ASAPmax + Span(A) + 1`` for each of them.  Runs ``trials`` random
    pattern sets and returns ``(cycles_checked, violations)`` —
    ``violations`` must be 0.
    """
    levels = LevelAnalysis.of(dfg)
    rng = random.Random(seed)
    colors = list(dfg.colors())
    checked = violations = 0
    for _ in range(trials):
        lib = random_pattern_set(rng, capacity, colors, rng.randint(1, 4))
        schedule = MultiPatternScheduler(lib).schedule(dfg)
        for rec in schedule.cycles:
            checked += 1
            if schedule.length < span_lower_bound(levels, rec.scheduled):
                violations += 1
    return checked, violations


# --------------------------------------------------------------------------- #
# Ablations
# --------------------------------------------------------------------------- #
def span_limit_sweep(
    dfg: "DFG",
    capacity: int,
    pdefs: Sequence[int],
    spans: Sequence[int | None],
    *,
    config: SelectionConfig | None = None,
) -> dict[int | None, list[int]]:
    """Selected-schedule length per (span limit, Pdef) — ablation."""
    base = config if config is not None else SelectionConfig()
    out: dict[int | None, list[int]] = {}
    for limit in spans:
        cfg = SelectionConfig(
            epsilon=base.epsilon, alpha=base.alpha, span_limit=limit
        )
        selector = PatternSelector(capacity, config=cfg)
        catalog = selector.build_catalog(dfg)
        lengths = []
        for pdef in pdefs:
            lib = selector.select(dfg, pdef, catalog=catalog).library
            lengths.append(MultiPatternScheduler(lib).schedule(dfg).length)
        out[limit] = lengths
    return out


def parameter_sweep(
    dfg: "DFG",
    capacity: int,
    pdef: int,
    *,
    alphas: Sequence[float] = (0.0, 1.0, 5.0, 20.0, 100.0),
    epsilons: Sequence[float] = (0.1, 0.5, 1.0, 5.0),
    span_limit: int | None = None,
) -> dict[str, list[tuple[float, int]]]:
    """Schedule length as α and ε vary around the paper's values."""
    out: dict[str, list[tuple[float, int]]] = {"alpha": [], "epsilon": []}
    for alpha in alphas:
        cfg = SelectionConfig(alpha=alpha, span_limit=span_limit)
        lib = PatternSelector(capacity, config=cfg).select(dfg, pdef).library
        out["alpha"].append(
            (alpha, MultiPatternScheduler(lib).schedule(dfg).length)
        )
    for eps in epsilons:
        cfg = SelectionConfig(epsilon=eps, span_limit=span_limit)
        lib = PatternSelector(capacity, config=cfg).select(dfg, pdef).library
        out["epsilon"].append(
            (eps, MultiPatternScheduler(lib).schedule(dfg).length)
        )
    return out


def f1_vs_f2(
    dfg: "DFG",
    libraries: Sequence[PatternLibrary],
) -> list[tuple[tuple[str, ...], int, int]]:
    """Schedule lengths under ``F1`` vs ``F2`` for given libraries.

    Quantifies the paper's §4.2 argument for preferring ``F2``.
    """
    rows = []
    for lib in libraries:
        f1 = MultiPatternScheduler(lib, priority=PatternPriority.F1)
        f2 = MultiPatternScheduler(lib, priority=PatternPriority.F2)
        rows.append(
            (lib.as_strings(), f1.schedule(dfg).length, f2.schedule(dfg).length)
        )
    return rows


def baseline_comparison(
    dfg: "DFG",
    capacity: int,
    pdef: int,
    *,
    config: SelectionConfig | None = None,
    service: "object | None" = None,
) -> dict[str, dict[str, object]]:
    """Multi-pattern scheduling vs the classic pattern-oblivious heuristics.

    The classic schedulers are given *per-color unit counts equal to a full
    tile* (any color on any of the ``capacity`` ALUs is approximated by
    ``capacity`` units per color, since a Montium ALU can be configured to
    any function); their schedules are then inspected for how many distinct
    patterns they implicitly demand — the quantity the Montium bounds.
    The multi-pattern column submits a job to a
    :class:`~repro.service.SchedulerService` (pass ``service`` to share a
    resident one and its caches; an ephemeral one is created otherwise).
    """
    from repro.service import JobRequest, SchedulerService

    if service is None:
        service = SchedulerService()
    result = service.submit(
        JobRequest(
            capacity=capacity,
            pdef=pdef,
            dfg=dfg,
            config=config if config is not None else SelectionConfig(),
        )
    )
    selection = result.selection
    mp = result.schedule

    resources = {color: capacity for color in dfg.colors()}
    ls_assignment = resource_list_schedule(dfg, resources)
    ls_len = max(ls_assignment.values())
    _, ls_patterns = implied_patterns(dfg, ls_assignment)

    fd_assignment = force_directed_schedule(dfg, latency=ls_len)
    _, fd_patterns = implied_patterns(dfg, fd_assignment)

    return {
        "multi_pattern": {
            "cycles": mp.length,
            "distinct_patterns": len(set(mp.library.patterns)),
            "library": selection.library.as_strings(),
        },
        "list_scheduling": {
            "cycles": ls_len,
            "distinct_patterns": ls_patterns,
        },
        "force_directed": {
            "cycles": max(fd_assignment.values()),
            "distinct_patterns": fd_patterns,
        },
    }
