"""The pattern selection procedure (paper §5.2, Figs. 6-7).

Pseudo-code reproduced from Fig. 7::

    for (i = 0; i < Pdef; i++) {
        Compute the priority function for each pattern.
        Choose the pattern with the largest nonzero priority function.
        If there is no pattern with nonzero priority function,
            take C uncovered colors to make a pattern.
        Delete the subpatterns of the selected pattern.
    }

Determinism: priority ties are broken toward the larger pattern, then the
lexicographically smallest color bag (documented choice; the paper is
silent and its worked examples contain no ties).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.config import SelectionConfig
from repro.core.priority import (
    balanced_frequency_sum,
    color_number_condition,
    raw_priority,
)
from repro.patterns.multiset import iter_subbag_keys, n_subbags
from repro.dfg.antichains import antichain_count_floor, limit_error
from repro.dfg.validate import validate_dfg
from repro.exceptions import CycleError, EnumerationLimitError, SelectionError
from repro.patterns.enumeration import PatternCatalog, classify_antichains
from repro.patterns.library import PatternLibrary
from repro.patterns.pattern import Pattern

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfg.graph import DFG

__all__ = [
    "PatternSelector",
    "PriorityFn",
    "SelectionResult",
    "SelectionRound",
    "select_patterns",
]

#: Signature of an un-gated selection priority: maps (pattern, candidate
#: frequencies, coverage so far, config) to a score.  Eq. 8 is the default;
#: see :mod:`repro.core.variants` for alternatives.
PriorityFn = Callable[
    [Pattern, Mapping[Pattern, Counter], Mapping[str, int], SelectionConfig],
    float,
]


@dataclass(frozen=True)
class SelectionRound:
    """Diagnostic record of one iteration of the Fig. 7 loop.

    Attributes
    ----------
    index:
        0-based round number (``i`` in Fig. 7).
    priorities:
        Eq. 8 value of every candidate still in the pool (post Eq. 9 gate).
    chosen:
        The pattern taken this round.
    fallback:
        ``True`` when ``chosen`` was synthesized from uncovered colors
        because every candidate priority was zero.
    deleted:
        Candidates removed as sub-patterns of ``chosen``.
    """

    index: int
    priorities: Mapping[Pattern, float]
    chosen: Pattern
    fallback: bool
    deleted: tuple[Pattern, ...]


@dataclass(frozen=True)
class SelectionResult:
    """Everything produced by a pattern selection run."""

    library: PatternLibrary
    rounds: tuple[SelectionRound, ...]
    catalog: PatternCatalog
    config: SelectionConfig

    @property
    def patterns(self) -> tuple[Pattern, ...]:
        """The selected patterns in selection order."""
        return self.library.patterns

    def covered_colors(self) -> frozenset[str]:
        """``Ls`` after the final round."""
        return self.library.color_set()


class PatternSelector:
    """Select ``Pdef`` patterns for a DFG (the paper's contribution).

    Parameters
    ----------
    capacity:
        The architecture's ALU count ``C``.
    config:
        Eq. 8 constants and enumeration bounds
        (default: the paper's ``ε = 0.5``, ``α = 20``).
    priority_fn:
        The un-gated pattern priority (default: Eq. 8 via
        :func:`repro.core.priority.raw_priority`).  The paper's conclusion
        invites exactly this experimentation ("the further improvement
        [is] very simple: by just modifying the priority function");
        alternatives live in :mod:`repro.core.variants`.

    Examples
    --------
    >>> from repro.workloads import small_example
    >>> sel = PatternSelector(capacity=2)
    >>> result = sel.select(small_example(), pdef=2)
    >>> [p.as_string() for p in result.patterns]
    ['aa', 'bb']
    """

    def __init__(
        self,
        capacity: int,
        config: SelectionConfig | None = None,
        *,
        priority_fn: "PriorityFn | None" = None,
    ) -> None:
        if capacity < 1:
            raise SelectionError(f"capacity must be ≥ 1, got {capacity}")
        self.capacity = capacity
        self.config = config if config is not None else SelectionConfig()
        self.priority_fn: PriorityFn = (
            priority_fn if priority_fn is not None else raw_priority
        )

    # ------------------------------------------------------------------ #
    def build_catalog(self, dfg: "DFG") -> PatternCatalog:
        """Pattern generation (paper §5.1) with this selector's bounds.

        The enumeration is capped at ``config.max_pattern_size`` (default:
        the full ``C``) and, when ``config.adaptive_span`` is set, the span
        limit is tightened step by step if the graph would otherwise
        produce more than ``config.max_antichains`` antichains — wide
        graphs grow as ``C(width, size)`` and the tightest useful bound is
        span 0 (single-level antichains).  The catalog records the span
        actually used.  Each attempt is one
        :func:`~repro.patterns.enumeration.classify_antichains` call, so a
        ``store_antichains`` config runs the sequential classifier (only
        it can materialize the raw antichains).
        """
        config = self.config
        return self.build_catalog_with(
            dfg,
            lambda size, span: classify_antichains(
                dfg,
                size,
                span,
                store_antichains=config.store_antichains,
                max_count=config.max_antichains,
            ),
        )

    def build_catalog_with(
        self,
        dfg: "DFG",
        classify: "Callable[[int, int | None], PatternCatalog]",
    ) -> PatternCatalog:
        """:meth:`build_catalog`'s size/adaptive-span policy around ``classify``.

        ``classify(size, span_limit)`` runs one pattern-generation attempt
        and either returns a catalog or raises
        :class:`~repro.exceptions.EnumerationLimitError`; this wrapper
        owns the ``max_pattern_size`` cap and the adaptive span-tightening
        retry loop.  It exists so alternative generation strategies — the
        shard coordinator fanning partitions out over service instances
        (:mod:`repro.service.shard`) — inherit the exact same policy
        instead of re-implementing it.

        Before any attempt, a level-width floor
        (:func:`~repro.dfg.antichains.antichain_count_floor`) that already
        exceeds ``config.max_antichains`` fails the job without calling
        ``classify``: no span could succeed, so the error (type, message
        and cause) is the one the last attempt would have raised.
        """
        config = self.config
        size = self.capacity
        if config.max_pattern_size is not None:
            size = min(size, config.max_pattern_size)

        spans: list[int | None] = [config.span_limit]
        if config.adaptive_span:
            start = 3 if config.span_limit is None else config.span_limit
            spans.extend(range(start - 1, -1, -1))
        last_error: EnumerationLimitError | None = None
        cap = config.max_antichains
        try:
            doomed = cap is not None and antichain_count_floor(dfg, size) > cap
        except CycleError:
            doomed = False  # classify reports the cycle, edges included
        if doomed:
            if not config.adaptive_span:
                raise limit_error(dfg, cap, size, config.span_limit)
            spans = []
            last_error = limit_error(dfg, cap, size, 0)
        for span in spans:
            try:
                return classify(size, span)
            except EnumerationLimitError as exc:
                if not config.adaptive_span:
                    raise
                last_error = exc
        raise SelectionError(
            f"pattern generation for {dfg.name!r} exceeds "
            f"{config.max_antichains} antichains even at span 0; lower "
            f"SelectionConfig.max_pattern_size (currently {size}) to tame "
            f"the C(width, size) growth"
        ) from last_error

    def select(
        self,
        dfg: "DFG",
        pdef: int,
        *,
        catalog: PatternCatalog | None = None,
    ) -> SelectionResult:
        """Run Fig. 7 and return the selected library plus diagnostics.

        Parameters
        ----------
        dfg:
            The graph to select patterns for.
        pdef:
            The pattern budget ``Pdef`` (the Montium caps it at 32 —
            enforced via :class:`~repro.patterns.library.PatternLibrary`).
        catalog:
            Optional pre-built catalog (reused across ``pdef`` sweeps).

        The stock Eq. 8 priority runs the incremental loop
        (:meth:`_run_fast`); a custom ``priority_fn``, whose scores may
        depend on global pool state the incremental cache cannot track,
        runs the reference loop (:meth:`_run_reference`).  Both select
        identically for Eq. 8.
        """
        validate_dfg(dfg)
        if pdef < 1:
            raise SelectionError(f"pdef must be ≥ 1, got {pdef}")
        if catalog is None:
            catalog = self.build_catalog(dfg)
        config = self.config
        all_colors = frozenset(dfg.colors())
        if pdef * self.capacity < len(all_colors):
            raise SelectionError(
                f"{pdef} patterns x C={self.capacity} slots cannot cover the "
                f"{len(all_colors)} colors of {dfg.name!r}"
            )

        if self.priority_fn is raw_priority:
            selected, rounds = self._run_fast(catalog, pdef, all_colors)
        else:
            selected, rounds = self._run_reference(catalog, pdef, all_colors)

        if not selected:
            raise SelectionError(
                f"no pattern could be selected for {dfg.name!r}: the graph "
                "yielded no antichains and no colors to synthesize from"
            )
        if config.widen_to_capacity:
            selected = self._widen_all(selected, dfg)
        library = PatternLibrary(selected, self.capacity)
        return SelectionResult(
            library=library,
            rounds=tuple(rounds),
            catalog=catalog,
            config=config,
        )

    # ------------------------------------------------------------------ #
    def _run_reference(
        self,
        catalog: PatternCatalog,
        pdef: int,
        all_colors: frozenset[str],
    ) -> tuple[list[Pattern], list[SelectionRound]]:
        """The Fig. 7 loop exactly as written — the equivalence oracle.

        Every round recomputes every candidate's priority from scratch and
        scans the whole pool for sub-patterns of the pick.
        """
        config = self.config
        pool: dict[Pattern, Counter[str]] = dict(catalog.frequencies)
        coverage: Counter[str] = Counter()
        selected: list[Pattern] = []
        selected_colors: set[str] = set()
        rounds: list[SelectionRound] = []

        for i in range(pdef):
            priorities: dict[Pattern, float] = {}
            for p in pool:
                if color_number_condition(
                    p, all_colors, selected_colors, self.capacity, pdef, i
                ):
                    priorities[p] = self.priority_fn(p, pool, coverage, config)
                else:
                    priorities[p] = 0.0

            chosen, fallback = self._choose(priorities, all_colors, selected_colors)
            if chosen is None:
                # Pool exhausted and every color covered: no useful pattern
                # remains.  Stop early; the scheduler copes with < Pdef
                # patterns (they are an upper budget, not a requirement).
                break

            # Line 4 of Fig. 7: delete sub-patterns of the selected pattern.
            deleted = tuple(
                sorted(q for q in pool if q != chosen and q.is_subpattern_of(chosen))
            )
            for q in deleted:
                del pool[q]
            pool.pop(chosen, None)

            # Update Ps-dependent state: Σ h(p̄i, n) and Ls.
            counter = catalog.frequencies.get(chosen)
            if counter:
                coverage.update(counter)
            selected.append(chosen)
            selected_colors |= chosen.color_set()
            rounds.append(
                SelectionRound(
                    index=i,
                    priorities=priorities,
                    chosen=chosen,
                    fallback=fallback,
                    deleted=deleted,
                )
            )
        return selected, rounds

    def _run_fast(
        self,
        catalog: PatternCatalog,
        pdef: int,
        all_colors: frozenset[str],
    ) -> tuple[list[Pattern], list[SelectionRound]]:
        """Incremental Fig. 7 loop, bit-identical to :meth:`_run_reference`.

        Three structural shortcuts, none of which change any computed value:

        * each candidate's Eq. 8 sum is cached and recomputed — via the same
          :func:`~repro.core.priority.balanced_frequency_sum` term order —
          only when a pick changed the coverage of a node the candidate
          actually touches.  Node sets are precomputed integer bitmasks, so
          the per-round invalidation test is one big-int AND per candidate
          (the inverted node → patterns relation, collapsed into machine
          words);
        * the Eq. 9 gate runs on precomputed color bitmasks
          (``(colors & ~selected).bit_count()``), and is skipped wholesale
          in rounds where its right-hand side is ≤ 0 (every candidate
          passes trivially);
        * sub-pattern deletion enumerates the pick's ``Π(k_c+1)`` sub-bags
          against a bag-key index instead of bag-testing the whole pool,
          falling back to the linear scan when the pick is so wide that
          enumeration would lose.
        """
        config = self.config
        eps = config.epsilon
        alpha = config.alpha
        capacity = self.capacity
        pool: dict[Pattern, Counter[str]] = dict(catalog.frequencies)
        coverage: Counter[str] = Counter()
        selected: list[Pattern] = []
        selected_colors: set[str] = set()
        rounds: list[SelectionRound] = []

        node_bit: dict[str, int] = {
            n: 1 << j for j, n in enumerate(catalog.dfg.nodes)
        }
        color_bit: dict[str, int] = {
            c: 1 << j for j, c in enumerate(sorted(all_colors))
        }
        node_masks: dict[Pattern, int] = {}
        color_masks: dict[Pattern, int] = {}
        size_bonus: dict[Pattern, float] = {}
        for p, counter in pool.items():
            m = 0
            for node in counter:
                m |= node_bit[node]
            node_masks[p] = m
            cm = 0
            for c in p.color_set():
                cm |= color_bit[c]
            color_masks[p] = cm
            size_bonus[p] = alpha * p.size**2
        by_key: dict[tuple[str, ...], Pattern] = {p.key: p for p in pool}
        cached: dict[Pattern, float] = {}
        selected_cmask = 0
        changed_mask = -1  # round 0: everything needs a first score

        for i in range(pdef):
            if changed_mask == -1:
                for p, counter in pool.items():
                    cached[p] = (
                        balanced_frequency_sum(counter, coverage, eps)
                        + size_bonus[p]
                    )
            elif changed_mask:
                for p, counter in pool.items():
                    if node_masks[p] & changed_mask:
                        cached[p] = (
                            balanced_frequency_sum(counter, coverage, eps)
                            + size_bonus[p]
                        )
            changed_mask = 0

            rhs = len(all_colors) - len(selected_colors) - capacity * (
                pdef - i - 1
            )
            priorities: dict[Pattern, float] = {}
            if rhs <= 0:
                # Eq. 9 asks for ≥ rhs new colors; with rhs ≤ 0 every
                # candidate qualifies.
                for p in pool:
                    priorities[p] = cached[p]
            else:
                not_selected = ~selected_cmask
                for p in pool:
                    if (color_masks[p] & not_selected).bit_count() >= rhs:
                        priorities[p] = cached[p]
                    else:
                        priorities[p] = 0.0

            chosen, fallback = self._choose(priorities, all_colors, selected_colors)
            if chosen is None:
                break  # pool exhausted, every color covered (see reference)

            deleted = self._deleted_subpatterns(chosen, pool, by_key)
            for q in deleted:
                del pool[q]
                del by_key[q.key]
                del cached[q]
            if pool.pop(chosen, None) is not None:
                del by_key[chosen.key]
                del cached[chosen]

            counter = catalog.frequencies.get(chosen)
            if counter:
                # chosen came from the catalog, so its node mask exists.
                coverage.update(counter)
                changed_mask = node_masks[chosen]
            selected.append(chosen)
            for c in chosen.color_set():
                selected_colors.add(c)
                selected_cmask |= color_bit.get(c, 0)
            rounds.append(
                SelectionRound(
                    index=i,
                    priorities=priorities,
                    chosen=chosen,
                    fallback=fallback,
                    deleted=deleted,
                )
            )
        return selected, rounds

    @staticmethod
    def _deleted_subpatterns(
        chosen: Pattern,
        pool: dict[Pattern, Counter[str]],
        by_key: dict[tuple[str, ...], Pattern],
    ) -> tuple[Pattern, ...]:
        """Pool members that are strict sub-patterns of ``chosen``.

        Every sub-pattern's bag is one of the pick's ``Π(k_c+1)`` sub-bags,
        so membership is a key lookup per sub-bag — O(2^C) worst case,
        independent of pool size.  A pool scan is kept for the degenerate
        wide-pick case where enumerating sub-bags would be the slower side.
        """
        counts = chosen.counts
        if n_subbags(counts) - 2 <= 4 * (len(pool) + 4):
            found = [
                q
                for key in iter_subbag_keys(counts)
                if (q := by_key.get(key)) is not None
            ]
            return tuple(sorted(found))
        return tuple(
            sorted(q for q in pool if q != chosen and q.is_subpattern_of(chosen))
        )

    # ------------------------------------------------------------------ #
    def _choose(
        self,
        priorities: Mapping[Pattern, float],
        all_colors: frozenset[str],
        selected_colors: set[str],
    ) -> tuple[Pattern | None, bool]:
        """Pick the max-nonzero-priority pattern, or synthesize a fallback.

        Returns ``(pattern, fallback_flag)``; ``(None, False)`` when nothing
        remains to pick or synthesize.
        """
        # Ties: prefer the larger pattern, then the lexicographically smaller
        # color bag (deterministic; see module docstring).
        best: Pattern | None = None
        best_val = 0.0
        for p, v in priorities.items():
            if v <= 0.0:
                continue
            if best is None:
                best, best_val = p, v
                continue
            if (v, p.size) > (best_val, best.size) or (
                (v, p.size) == (best_val, best.size) and p.key < best.key
            ):
                best, best_val = p, v
        if best is not None:
            return best, False

        # Fig. 7 line 3 fallback: take C uncovered colors to make a pattern.
        uncovered = [c for c in all_colors if c not in selected_colors]
        if not uncovered:
            return None, False
        uncovered.sort()
        return Pattern(uncovered[: self.capacity]), True

    def _widen_all(self, selected: list[Pattern], dfg: "DFG") -> list[Pattern]:
        """Pad each selected pattern to full width (``widen_to_capacity``).

        Extra slots go to the pattern's own color with the largest
        remaining demand per already-allocated slot (graph color census /
        slots so far); ties break in sorted color order.  Duplicates
        produced by widening are dropped (keeping selection order).
        """
        census = dfg.color_census()
        widened: list[Pattern] = []
        seen: set[Pattern] = set()
        for pattern in selected:
            counts = pattern.counts
            while sum(counts.values()) < self.capacity:
                color = max(
                    sorted(counts),
                    key=lambda c: census.get(c, 0) / counts[c],
                )
                counts[color] += 1
            wide = Pattern.from_counts(counts)
            if wide not in seen:
                seen.add(wide)
                widened.append(wide)
        return widened


def select_patterns(
    dfg: "DFG",
    pdef: int,
    capacity: int,
    *,
    config: SelectionConfig | None = None,
) -> PatternLibrary:
    """One-shot selection: the library the paper's algorithm picks.

    See :class:`PatternSelector` for knobs and diagnostics.
    """
    selector = PatternSelector(capacity, config=config)
    return selector.select(dfg, pdef).library
