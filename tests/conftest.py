"""Shared fixtures and reference helpers for the test-suite."""

from __future__ import annotations

from itertools import combinations
from unittest import mock

import pytest

from repro.dfg.antichains import DEFAULT_MAX_COUNT, AntichainEnumerator
from repro.dfg.graph import DFG
from repro.dfg.levels import LevelAnalysis
from repro.patterns.enumeration import _classify_reference
from repro.workloads import (
    five_point_dft,
    small_example,
    three_point_dft_paper,
)

# --------------------------------------------------------------------------- #
# The paper's published reference data
# --------------------------------------------------------------------------- #

#: Table 1 — (ASAP, ALAP, Height) for every node the paper lists.
PAPER_TABLE1 = {
    "b3": (0, 0, 5), "b6": (0, 0, 5),
    "b1": (0, 1, 4), "b5": (0, 1, 4),
    "a4": (0, 1, 4), "a2": (0, 1, 4),
    "a8": (1, 1, 4), "a7": (1, 1, 4),
    "c9": (1, 2, 3), "c13": (1, 2, 3),
    "c11": (1, 2, 3), "c10": (1, 2, 3),
    "a24": (1, 4, 1), "a16": (1, 4, 1),
    "a15": (2, 3, 2), "a18": (2, 3, 2),
    "a20": (3, 3, 2), "a17": (3, 3, 2),
    "a19": (3, 4, 1), "a22": (3, 4, 1),
    "a23": (4, 4, 1), "a21": (4, 4, 1),
}

#: Table 2 — (cycle, candidate set, S(p1,CL), S(p2,CL), chosen pattern no.)
PAPER_TABLE2 = [
    (1, {"a2", "a4", "b1", "b3", "b5", "b6"},
     {"a2", "a4", "b6"}, {"a2", "a4"}, 1),
    (2, {"b1", "b3", "b5", "c11", "a24", "a16", "c10", "a7"},
     {"a7", "a24", "b3", "c10", "c11"},
     {"a24", "a16", "a7", "c11", "c10"}, 1),
    (3, {"a8", "a16", "b1", "b5", "c12"},
     {"a8", "a16", "b5", "c12"}, {"a8", "a16", "c12"}, 1),
    (4, {"b1", "c14", "a17", "c13"},
     {"a17", "b1", "c13", "c14"}, {"a17", "c13", "c14"}, 1),
    (5, {"a18", "a20", "a21", "c9"},
     {"a18", "a20", "c9"}, {"a18", "a20", "a21", "c9"}, 2),
    (6, {"a15", "a22", "a23"},
     {"a15", "a22"}, {"a15", "a22", "a23"}, 2),
    (7, {"a19"}, {"a19"}, {"a19"}, 1),
]

#: Table 4 — pattern → antichain sets of the Fig. 4 example.
PAPER_TABLE4 = {
    "a": [{"a1"}, {"a2"}, {"a3"}],
    "b": [{"b4"}, {"b5"}],
    "aa": [{"a1", "a3"}, {"a2", "a3"}],
    "bb": [{"b4", "b5"}],
}

#: Table 6 — node frequencies h(p̄, n) of the Fig. 4 example.
PAPER_TABLE6 = {
    "a":  {"a1": 1, "a2": 1, "a3": 1, "b4": 0, "b5": 0},
    "b":  {"a1": 0, "a2": 0, "a3": 0, "b4": 1, "b5": 1},
    "aa": {"a1": 1, "a2": 1, "a3": 2, "b4": 0, "b5": 0},
    "bb": {"a1": 0, "a2": 0, "a3": 0, "b4": 1, "b5": 1},
}

#: §5.2 — first-round selection priorities of the Fig. 4 example.
PAPER_FIG4_PRIORITIES_ROUND1 = {"a": 26.0, "b": 24.0, "aa": 88.0, "bb": 84.0}

#: Table 7 — published cycle counts (Random is a 10-trial mean).
PAPER_TABLE7 = {
    "3dft": {"random": [12.4, 10.5, 8.7, 7.9, 6.5], "selected": [8, 7, 7, 7, 6]},
    "5dft": {
        "random": [23.4, 22.0, 20.4, 15.8, 15.8],
        "selected": [19, 16, 16, 15, 15],
    },
}


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def paper_3dft() -> DFG:
    return three_point_dft_paper()


@pytest.fixture(scope="session")
def fig4() -> DFG:
    return small_example()


@pytest.fixture(scope="session")
def dft5() -> DFG:
    return five_point_dft()


@pytest.fixture(scope="session")
def levels_3dft(paper_3dft: DFG) -> LevelAnalysis:
    return LevelAnalysis.of(paper_3dft)


# --------------------------------------------------------------------------- #
# brute-force oracles
# --------------------------------------------------------------------------- #
def networkx_oracle(dfg: DFG):
    """An independent ``networkx.DiGraph`` with ``dfg``'s nodes and edges.

    Nodes go in insertion order and edges in :meth:`DFG.edges` order, so
    each successor list keeps the graph's edge-insertion order.
    """
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(dfg.nodes)
    g.add_edges_from(dfg.edges())
    return g


def brute_force_antichains(
    dfg: DFG, max_size: int, span_limit: int | None = None
) -> set[frozenset[str]]:
    """All antichains by exhaustive pairwise checking — O(2^n) oracle."""
    import networkx as nx

    from repro.dfg.span import span

    g = networkx_oracle(dfg)
    reach = {n: set(nx.descendants(g, n)) for n in dfg.nodes}
    levels = LevelAnalysis.of(dfg)
    out: set[frozenset[str]] = set()
    nodes = list(dfg.nodes)
    for size in range(1, max_size + 1):
        for combo in combinations(nodes, size):
            if any(
                b in reach[a] or a in reach[b]
                for a, b in combinations(combo, 2)
            ):
                continue
            if span_limit is not None and span(levels, combo) > span_limit:
                continue
            out.add(frozenset(combo))
    return out


def chain(n: int, color: str = "a") -> DFG:
    """A simple n-node chain graph used by many unit tests."""
    dfg = DFG(name=f"chain{n}")
    prev = None
    for i in range(n):
        name = f"{color}{i}"
        dfg.add_node(name, color)
        if prev is not None:
            dfg.add_edge(prev, name)
        prev = name
    return dfg


def diamond() -> DFG:
    """a0 → {b1, c2} → a3 — the smallest interesting DAG."""
    dfg = DFG(name="diamond")
    dfg.add_node("a0", "a")
    dfg.add_node("b1", "b")
    dfg.add_node("c2", "c")
    dfg.add_node("a3", "a")
    dfg.add_edges([("a0", "b1"), ("a0", "c2"), ("b1", "a3"), ("c2", "a3")])
    return dfg


# --------------------------------------------------------------------------- #
# the sequential reference pipeline: the oracle the fast paths are pinned to
# --------------------------------------------------------------------------- #
def reference_catalog(
    dfg: DFG,
    capacity: int,
    span_limit: int | None = None,
    *,
    max_count: int | None = DEFAULT_MAX_COUNT,
    store_antichains: bool = False,
):
    """The sequential name-tuple classifier's catalog (``_classify_reference``)."""
    return _classify_reference(
        dfg,
        AntichainEnumerator(dfg),
        capacity,
        span_limit,
        max_count,
        store_antichains,
    )


def reference_build_catalog(selector, dfg: DFG):
    """``selector.build_catalog`` with every attempt on the reference classifier."""
    config = selector.config
    return selector.build_catalog_with(
        dfg,
        lambda size, span: reference_catalog(
            dfg,
            size,
            span,
            max_count=config.max_antichains,
            store_antichains=config.store_antichains,
        ),
    )


def reference_select(selector, dfg: DFG, pdef: int, *, catalog=None):
    """``selector.select`` on the reference Fig. 7 loop (``_run_reference``).

    Without ``catalog`` the catalog comes from :func:`reference_build_catalog`.
    """
    if catalog is None:
        catalog = reference_build_catalog(selector, dfg)
    with mock.patch.object(selector, "_run_fast", selector._run_reference):
        return selector.select(dfg, pdef, catalog=catalog)
