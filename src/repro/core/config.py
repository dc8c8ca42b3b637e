"""Configuration of the pattern selection algorithm."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SelectionError

__all__ = ["SelectionConfig"]

#: The paper's published constants (§5.2: "In our system ε = 0.5 and α = 20").
PAPER_EPSILON = 0.5
PAPER_ALPHA = 20.0

#: Default antichain span limit used by the selection pipeline.  The paper
#: motivates small limits (§5.1, Theorem 1) without publishing the value used
#: for Table 7.  Empirically (see the span ablation benchmark) ``1``
#: reproduces the paper's 3DFT "Selected" column almost exactly
#: ([8,7,7,6,6] vs the published [8,7,7,7,6]) and dominates the random
#: baseline on both workloads, so it is the library default.
DEFAULT_SPAN_LIMIT = 1


@dataclass(frozen=True)
class SelectionConfig:
    """Tunables of :class:`~repro.core.selection.PatternSelector`.

    Attributes
    ----------
    epsilon:
        The ``ε`` of Eq. 8 — guards the division and damps the reward for
        nodes already covered by selected patterns.  Paper value: ``0.5``.
    alpha:
        The ``α`` of Eq. 8 — weight of the ``|p̄|²`` size bonus that prefers
        wide patterns.  Paper value: ``20``.
    span_limit:
        Antichain span bound during pattern generation (``None`` disables).
    max_antichains:
        Safety ceiling on the antichains one pattern-generation attempt may
        enumerate (``≥ 1``, or ``None`` for no ceiling).  Checked up front
        too: when the level widths alone prove more antichains than this
        at every span (:func:`~repro.dfg.antichains.antichain_count_floor`),
        the build fails before any enumeration runs.
    store_antichains:
        Keep raw antichains on the catalog (reporting only).
    max_pattern_size:
        Cap on generated antichain/pattern cardinality, independent of the
        architecture's ``C``.  On wide graphs the enumeration grows as
        ``C(width, size)``; capping at 3–4 keeps pattern generation
        tractable while the scheduler still uses all ``C`` slots (smaller
        patterns simply carry dummy slots).  ``None`` means ``C``.
    adaptive_span:
        When enumeration overflows ``max_antichains``, retry with
        progressively tighter span limits (…→1→0) instead of failing.
        The catalog records the span actually used.  A job the level-width
        floor already rejects skips the ladder and raises the
        :class:`~repro.exceptions.SelectionError` its span-0 attempt
        would have raised.
    widen_to_capacity:
        Beyond-paper extension: after selection, pad each selected pattern
        with extra slots of its own colors (largest remaining per-slot
        demand first) until it is ``C`` wide, so a size-capped catalog
        (``max_pattern_size``) does not strand ALUs.  Off by default —
        the paper's algorithm returns the raw selected bags.
    """

    epsilon: float = PAPER_EPSILON
    alpha: float = PAPER_ALPHA
    span_limit: int | None = DEFAULT_SPAN_LIMIT
    max_antichains: int | None = 5_000_000
    store_antichains: bool = False
    max_pattern_size: int | None = None
    adaptive_span: bool = True
    widen_to_capacity: bool = False

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise SelectionError(
                f"epsilon must be > 0 (it guards a division); got {self.epsilon}"
            )
        if self.alpha < 0:
            raise SelectionError(f"alpha must be ≥ 0; got {self.alpha}")
        if self.span_limit is not None and self.span_limit < 0:
            raise SelectionError(
                f"span_limit must be ≥ 0 or None; got {self.span_limit}"
            )
        if self.max_antichains is not None and self.max_antichains < 1:
            raise SelectionError(
                f"max_antichains must be ≥ 1 or None; got {self.max_antichains}"
            )
        if self.max_pattern_size is not None and self.max_pattern_size < 1:
            raise SelectionError(
                f"max_pattern_size must be ≥ 1 or None; got "
                f"{self.max_pattern_size}"
            )

    @classmethod
    def paper(cls, span_limit: int | None = DEFAULT_SPAN_LIMIT) -> "SelectionConfig":
        """The published constants with a chosen span limit."""
        return cls(epsilon=PAPER_EPSILON, alpha=PAPER_ALPHA, span_limit=span_limit)
