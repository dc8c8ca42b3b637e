"""Node priority function (paper §4.1, Eqs. 4-5).

.. math::

    f(n) = s \\cdot height(n) + t \\cdot \\#direct\\_successors(n)
           + \\#all\\_successors(n)

subject to

.. math::

    s \\ge \\max\\{t \\cdot \\#ds + \\#as\\}, \\qquad t \\ge \\max\\{\\#as\\}

which makes ``f`` a lexicographic key on ``(height, #ds, #as)``: largest
height first, then most direct successors, then most total successors.

The paper states the constraints with ``≥``; with exact equality two nodes
with *different* heights can still tie (e.g. ``h`` with maximal successor
terms vs ``h+1`` with none), defeating the stated guarantee.
:meth:`PriorityParameters.derive` therefore uses ``max + 1`` by default
(``strict=True``), which provably yields the lexicographic order; pass
``strict=False`` for the literal paper bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.dfg.levels import LevelAnalysis
from repro.dfg.traversal import descendant_masks
from repro.exceptions import SchedulingError

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfg.graph import DFG

__all__ = ["PriorityParameters", "node_priorities", "priority_rank_key"]


@dataclass(frozen=True)
class PriorityParameters:
    """The ``s`` and ``t`` weights of Eq. 4."""

    s: int
    t: int

    @classmethod
    def derive(cls, dfg: "DFG", *, strict: bool = True) -> "PriorityParameters":
        """Smallest parameters satisfying Eq. 5 for ``dfg``.

        With ``strict=True`` (default) one is added to each bound so that
        ``f`` is exactly the lexicographic order on ``(height, #ds, #as)``.
        """
        desc = descendant_masks(dfg)
        max_as = 0
        for m in desc:
            c = m.bit_count()
            if c > max_as:
                max_as = c
        t = max_as + (1 if strict else 0)
        max_combo = 0
        for n in dfg.nodes:
            combo = t * dfg.out_degree(n) + desc[dfg.index(n)].bit_count()
            if combo > max_combo:
                max_combo = combo
        s = max_combo + (1 if strict else 0)
        return cls(s=s, t=t)

    def validate(self, dfg: "DFG") -> None:
        """Raise unless the parameters satisfy Eq. 5 for ``dfg``."""
        desc = descendant_masks(dfg)
        max_as = max((m.bit_count() for m in desc), default=0)
        if self.t < max_as:
            raise SchedulingError(
                f"t={self.t} violates Eq. 5: max #all_successors is {max_as}"
            )
        max_combo = max(
            (
                self.t * dfg.out_degree(n) + desc[dfg.index(n)].bit_count()
                for n in dfg.nodes
            ),
            default=0,
        )
        if self.s < max_combo:
            raise SchedulingError(
                f"s={self.s} violates Eq. 5: max t*#ds + #as is {max_combo}"
            )


def node_priorities(
    dfg: "DFG",
    params: PriorityParameters | None = None,
) -> dict[str, int]:
    """``f(n)`` for every node (paper Eq. 4).

    Parameters default to :meth:`PriorityParameters.derive`.
    """
    levels = LevelAnalysis.of(dfg)
    if params is None:
        params = PriorityParameters.derive(dfg)
    else:
        params.validate(dfg)
    desc = descendant_masks(dfg)
    out: dict[str, int] = {}
    for n in dfg.nodes:
        ds = dfg.out_degree(n)
        as_ = desc[dfg.index(n)].bit_count()
        out[n] = params.s * levels.height[n] + params.t * ds + as_
    return out


def priority_rank_key(dfg: "DFG") -> dict[str, tuple[int, int, int]]:
    """The lexicographic key ``(height, #ds, #as)`` underlying Eq. 4.

    Sorting by this tuple descending is equivalent to sorting by strict-mode
    ``f(n)`` descending — a property the test-suite asserts.
    """
    levels = LevelAnalysis.of(dfg)
    desc = descendant_masks(dfg)
    return {
        n: (
            levels.height[n],
            dfg.out_degree(n),
            desc[dfg.index(n)].bit_count(),
        )
        for n in dfg.nodes
    }
