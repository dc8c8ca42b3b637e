"""The benchmark's inputs: job specs, seeded graphs, decks and edit sessions.

The benchmark generates every input from the run seed itself; the program
only receives the resulting graphs and job requests.  Every workload draws
its jobs in *decks*: a deck has a fixed composition and a seeded order (and
seeded synthetic graphs), and a run always finishes the deck it started, so
the job mix, and with it every percentile, is the same on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterator

#: Colors of the synthetic graphs (three ALU operation classes).
COLORS = "abc"

#: Generator parameters of each workload, printed with every result.
PARAMETERS: "dict[str, dict[str, Any]]" = {
    "cold-compile": {
        "callers": 1,
        "loop": "closed, in-process SchedulerService.submit_outcome, caches cleared per job",
        "deck": "7 registered specs + 1 infeasible spec + 9 layered + 8 Erdos-Renyi graphs",
        "layered": {"layers": 5, "width": 5, "edge_prob": 0.3},
        "erdos_renyi": {"nodes": 20, "edge_prob": 0.2},
        "infeasible": "fft16 with max_antichains=100000 (SelectionError)",
    },
    "served-warm": {
        "callers": 1,
        "connections": 1,
        "loop": "closed, one keep-alive ServiceClient against one repro serve",
        "deck": {
            "small-example": 6,
            "fir8": 6,
            "matvec4": 2,
            "dct4": 1,
            "3dft": 1,
            "5dft": 1,
            "fft8": 2,
            "fft64-span1": 1,
        },
    },
    "fleet-churn": {
        "callers": 1,
        "shards": 2,
        "loop": "closed, ShardCoordinator over two repro serve shards sharing one cache dir",
        "session": "1 cold build of a fresh graph + 4 single-node recolor edits",
        "graphs": {"layered": {"layers": 6, "width": 6, "edge_prob": 0.3}},
        "reference_session": "session 0 uses a fixed graph and edit list on every seed",
    },
}


@dataclass(frozen=True)
class Graph:
    """The benchmark's own description of an input graph."""

    name: str
    nodes: "tuple[tuple[str, str], ...]"  # (name, color) in insertion order
    edges: "tuple[tuple[str, str], ...]"

    def to_dfg(self) -> Any:
        from repro.dfg.graph import DFG

        dfg = DFG(name=self.name)
        for node, color in self.nodes:
            dfg.add_node(node, color)
        for u, v in self.edges:
            dfg.add_edge(u, v)
        return dfg

    def recolor(self, node: str, color: str) -> "Graph":
        nodes = tuple((n, color if n == node else c) for n, c in self.nodes)
        return Graph(self.name, nodes, self.edges)


def graph_of(dfg: Any) -> Graph:
    """Describe a program-built graph (registered workloads) for the oracle."""
    return Graph(dfg.name, tuple((n, dfg.color(n)) for n in dfg.nodes), tuple(dfg.edges()))


def layered_graph(rng: random.Random, layers: int, width: int, edge_prob: float, name: str) -> Graph:
    """Layered DAG: each node takes inputs from the previous layer, at least one."""
    nodes = tuple((f"n{li}_{wi}", rng.choice(COLORS)) for li in range(layers) for wi in range(width))
    edges = []
    for li in range(1, layers):
        for wi in range(width):
            preds = [p for p in range(width) if rng.random() < edge_prob]
            if not preds:
                preds = [rng.randrange(width)]
            edges.extend((f"n{li - 1}_{p}", f"n{li}_{wi}") for p in preds)
    return Graph(name, nodes, tuple(edges))


def random_graph(rng: random.Random, n: int, edge_prob: float, name: str) -> Graph:
    """Erdos-Renyi DAG: edge ``i -> j`` for ``i < j`` with ``edge_prob``."""
    nodes = tuple((f"v{i}", rng.choice(COLORS)) for i in range(n))
    edges = tuple(
        (f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob
    )
    return Graph(name, nodes, edges)


def legal_recolors(graph: Graph) -> "list[tuple[str, str]]":
    """Single-node recolors that keep the color interning order.

    A node may change color only if it is not the first node of its color,
    and only to a color whose first node comes before it; the first-seen
    order of colors, which the program interns by, is then unchanged.
    """
    first: "dict[str, int]" = {}
    for i, (_node, color) in enumerate(graph.nodes):
        first.setdefault(color, i)
    out = []
    for i, (node, color) in enumerate(graph.nodes):
        if first[color] == i:
            continue
        out.extend((node, c) for c in sorted(first) if c != color and first[c] < i)
    return out


# --------------------------------------------------------------------- specs
@dataclass(frozen=True)
class Spec:
    """One job: a registered workload or an inline graph, plus its knobs.

    ``key`` names specs whose answer is pinned in ``expected.json``;
    ``error`` is the exception type an infeasible spec must raise.
    """

    key: "str | None"
    capacity: int
    pdef: int
    workload: "str | None" = None
    graph: "Graph | None" = None
    config: "tuple[tuple[str, Any], ...]" = ()
    error: "str | None" = None

    def request(self) -> Any:
        from repro.core.config import SelectionConfig
        from repro.service import JobRequest

        return JobRequest(
            capacity=self.capacity,
            pdef=self.pdef,
            workload=self.workload,
            dfg=None if self.graph is None else self.graph.to_dfg(),
            config=SelectionConfig(**dict(self.config)),
        )

    def input_graph(self) -> Graph:
        """The graph the answer must schedule (registered ones built once)."""
        if self.graph is not None:
            return self.graph
        return _registered_graph(self.workload)


_REGISTERED: "dict[str, Graph]" = {}


def _registered_graph(name: str) -> Graph:
    if name not in _REGISTERED:
        from repro.workloads import WORKLOADS

        _REGISTERED[name] = graph_of(WORKLOADS[name]())
    return _REGISTERED[name]


def registered(name: str, pdef: int = 4) -> Spec:
    return Spec(key=name, capacity=5, pdef=pdef, workload=name)


#: The span-1 / size-2 ``fft64`` job ``benchmarks/run_benchmarks.py`` uses.
FFT64_SPAN1 = Spec(
    key="fft64-span1",
    capacity=5,
    pdef=5,
    workload="fft64",
    config=(("span_limit", 1), ("max_pattern_size", 2), ("widen_to_capacity", True)),
)

#: Infeasible by construction: fft16 cannot fit 100k antichains at any span.
INFEASIBLE = Spec(
    key="fft16-capped",
    capacity=5,
    pdef=4,
    workload="fft16",
    config=(("max_antichains", 100_000),),
    error="SelectionError",
)

COLD_FIXED = tuple(registered(n) for n in ("3dft", "5dft", "fft8", "fir8", "dct4", "matvec4")) + (
    FFT64_SPAN1,
)

SERVED_DECK = tuple(
    spec
    for spec, copies in (
        (registered("small-example"), 6),
        (registered("fir8"), 6),
        (registered("matvec4"), 2),
        (registered("dct4"), 1),
        (registered("3dft"), 1),
        (registered("5dft"), 1),
        (registered("fft8"), 2),
        (FFT64_SPAN1, 1),
    )
    for _ in range(copies)
)

#: Distinct served specs, in priming order.
SERVED_SPECS = tuple(dict.fromkeys(sorted(SERVED_DECK, key=lambda s: s.key)))


def cold_decks(seed: int) -> "Iterator[list[Spec]]":
    """Endless seeded cold-compile decks of 25 jobs.

    Synthetic graphs have fixed sizes and seeded structure and colors, so
    the median lands inside the synthetic group and the 90th percentile on
    the infeasible job (ranks 22-23 of 25 by cost) on every seed.
    """
    rng = random.Random(f"cold-compile:{seed}")
    deck_no = 0
    while True:
        deck = list(COLD_FIXED) + [INFEASIBLE]
        for i in range(9):
            graph = layered_graph(rng, 5, 5, 0.3, f"layered-{deck_no}-{i}")
            deck.append(Spec(None, 5, 4, graph=graph))
        for i in range(8):
            graph = random_graph(rng, 20, 0.2, f"er-{deck_no}-{i}")
            deck.append(Spec(None, 5, 4, graph=graph))
        rng.shuffle(deck)
        deck_no += 1
        yield deck


def served_decks(seed: int) -> "Iterator[list[Spec]]":
    """Endless seeded served-warm decks of 20 requests.

    By answer cost the median lands inside the ``fir8`` group, the 90th
    percentile inside ``fft8`` and the 99th inside ``fft64``.
    """
    rng = random.Random(f"served-warm:{seed}")
    while True:
        deck = list(SERVED_DECK)
        rng.shuffle(deck)
        yield deck


# ----------------------------------------------------------------- sessions
EDITS_PER_SESSION = 4


@dataclass(frozen=True)
class Session:
    """One editor session: a base graph and the recolors applied in turn."""

    key: "str | None"
    base: Graph
    edits: "tuple[tuple[str, str], ...]"

    def graphs(self) -> "list[Graph]":
        """The base graph, then the graph after each edit."""
        out = [self.base]
        for node, color in self.edits:
            out.append(out[-1].recolor(node, color))
        return out


def _session(rng: random.Random, number: int, key: "str | None") -> Session:
    base = layered_graph(rng, 6, 6, 0.3, f"session-{number}")
    graph, edits = base, []
    for _ in range(EDITS_PER_SESSION):
        node, color = rng.choice(legal_recolors(graph))
        edits.append((node, color))
        graph = graph.recolor(node, color)
    return Session(key, base, tuple(edits))


#: The fixed session that opens every fleet-churn run.
REFERENCE_SESSION = _session(random.Random("fleet-churn:reference"), 0, "fleet-reference")


def fleet_sessions(seed: int) -> "Iterator[Session]":
    """The reference session, then endless seeded sessions."""
    yield REFERENCE_SESSION
    rng = random.Random(f"fleet-churn:{seed}")
    number = 1
    while True:
        yield _session(rng, number, None)
        number += 1


def priming_graph() -> Graph:
    """The small throwaway graph a fleet builds once during set-up."""
    return layered_graph(random.Random("fleet-churn:priming"), 3, 3, 0.5, "priming")
