"""The data-flow graph (DFG) model.

A DFG node represents a function/operation; a directed edge a data dependency
(paper §3).  Nodes carry a *color* ``l(n)`` naming the function type — the
paper's 3DFT example uses ``"a"`` (addition), ``"b"`` (subtraction) and
``"c"`` (multiplication).

Determinism contract
--------------------
Reproducing the paper's Table 2 trace requires stable, documented iteration
orders (DESIGN.md §3.4).  :class:`DFG` therefore guarantees:

* nodes iterate in **insertion order** and each node has a stable integer
  :meth:`~DFG.index`,
* :meth:`~DFG.successors` / :meth:`~DFG.predecessors` iterate in
  **edge-insertion order**,
* :meth:`~DFG.topological_order` is the deterministic Kahn order that always
  pops the smallest ready index.

Semantic (evaluable) nodes
--------------------------
Workload builders may attach an operational semantics to a node via the
``op``/``operands``/``value`` attributes so a graph can be *executed* and the
result compared against a reference (e.g. ``numpy.fft``).  The scheduler
ignores these attributes entirely; they exist for end-to-end verification.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

import networkx as nx

from repro.exceptions import (
    CycleError,
    DuplicateNodeError,
    GraphError,
    UnknownNodeError,
)

__all__ = ["Node", "DFG"]


@dataclass(frozen=True)
class Node:
    """A single DFG operation.

    Attributes
    ----------
    name:
        Unique identifier within the graph (the paper uses e.g. ``"a24"``).
    color:
        Function type ``l(n)`` — the resource class the operation needs.
    index:
        Insertion index within the owning graph; stable and 0-based.
    attrs:
        Free-form attributes (e.g. the evaluable-semantics keys ``op``,
        ``operands``, ``value``).
    """

    name: str
    color: str
    index: int
    attrs: Mapping[str, Any] = field(default_factory=dict, compare=False, repr=False)

    def __str__(self) -> str:
        return self.name


class DFG:
    """An insertion-ordered, colored directed acyclic graph.

    Parameters
    ----------
    name:
        Optional human-readable graph name used in reports.

    Notes
    -----
    Acyclicity is *not* enforced on every ``add_edge`` (that would be
    quadratic); call :meth:`check_acyclic` or
    :func:`repro.dfg.validate.validate_dfg`, which every scheduler entry point
    does.
    """

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        #: Free-form graph-level metadata (e.g. evaluable builders record
        #: their logical ``inputs`` / ``outputs`` here).
        self.meta: dict[str, Any] = {}
        self._g = nx.DiGraph()
        self._order: list[str] = []
        self._index: dict[str, int] = {}
        #: Structure-derived analysis results (reachability masks, level
        #: analysis, …), invalidated wholesale on any node/edge mutation.
        #: Cached values must be treated as immutable by all consumers.
        self._analysis_cache: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, name: str, color: str, **attrs: Any) -> Node:
        """Add an operation node and return its :class:`Node` record.

        Raises
        ------
        DuplicateNodeError
            If ``name`` already exists.
        """
        if name in self._index:
            raise DuplicateNodeError(f"node {name!r} already present in {self.name!r}")
        if not isinstance(color, str) or not color:
            raise GraphError(f"node {name!r}: color must be a non-empty string")
        idx = len(self._order)
        self._g.add_node(name, color=color, **attrs)
        self._order.append(name)
        self._index[name] = idx
        self._analysis_cache.clear()
        return Node(name=name, color=color, index=idx, attrs=self._g.nodes[name])

    def add_edge(self, u: str, v: str) -> None:
        """Add the dependency edge ``u -> v`` (``u`` produces for ``v``)."""
        self._require(u)
        self._require(v)
        if u == v:
            raise CycleError(f"self-loop {u!r} -> {u!r} is not allowed in a DFG")
        self._g.add_edge(u, v)
        self._analysis_cache.clear()

    def add_edges(self, edges: Iterable[tuple[str, str]]) -> None:
        """Add many edges preserving the given order."""
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def _require(self, name: str) -> None:
        if name not in self._index:
            raise UnknownNodeError(f"unknown node {name!r} in graph {self.name!r}")

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return len(self._order)

    @property
    def n_edges(self) -> int:
        """Number of edges."""
        return self._g.number_of_edges()

    @property
    def nodes(self) -> tuple[str, ...]:
        """Node names in insertion order."""
        return tuple(self._order)

    def node(self, name: str) -> Node:
        """Return the :class:`Node` record for ``name``."""
        self._require(name)
        data = self._g.nodes[name]
        return Node(
            name=name, color=data["color"], index=self._index[name], attrs=data
        )

    def node_data(self) -> Iterator[tuple[str, str, dict[str, Any]]]:
        """``(name, color, attrs)`` for every node in insertion order.

        ``attrs`` is a fresh dict of the node's attributes other than its
        color, the caller's to keep.  Whole-graph passes such as
        :func:`repro.dfg.io.canonical_json` use this instead of building
        one :class:`Node` record per node.
        """
        for name, data in self._g.nodes(data=True):
            attrs = dict(data)
            yield name, attrs.pop("color"), attrs

    def index(self, name: str) -> int:
        """Stable insertion index of ``name`` (0-based)."""
        self._require(name)
        return self._index[name]

    def name_of(self, index: int) -> str:
        """Inverse of :meth:`index`."""
        try:
            return self._order[index]
        except IndexError:
            raise UnknownNodeError(
                f"index {index} out of range for graph {self.name!r}"
            ) from None

    def color(self, name: str) -> str:
        """The color ``l(n)`` of node ``name``."""
        self._require(name)
        return self._g.nodes[name]["color"]

    def attr(self, name: str, key: str, default: Any = None) -> Any:
        """A free-form node attribute."""
        self._require(name)
        return self._g.nodes[name].get(key, default)

    def set_attr(self, name: str, key: str, value: Any) -> None:
        """Set a free-form node attribute.

        Invalidates the analysis cache: attributes participate in the
        graph's canonical content (:func:`repro.dfg.io.dfg_digest` is
        memoized there), even though the purely structural analyses do
        not read them.
        """
        self._require(name)
        self._g.nodes[name][key] = value
        self._analysis_cache.clear()

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def successors(self, name: str) -> tuple[str, ...]:
        """``Succ(n)`` in edge-insertion order."""
        self._require(name)
        return tuple(self._g.successors(name))

    def predecessors(self, name: str) -> tuple[str, ...]:
        """``Pred(n)`` in edge-insertion order."""
        self._require(name)
        return tuple(self._g.predecessors(name))

    def out_degree(self, name: str) -> int:
        """``#direct successors`` of ``name`` (paper Eq. 4)."""
        self._require(name)
        return self._g.out_degree(name)

    def in_degree(self, name: str) -> int:
        """Number of direct predecessors of ``name``."""
        self._require(name)
        return self._g.in_degree(name)

    def edges(self) -> tuple[tuple[str, str], ...]:
        """All edges, grouped by source in insertion order."""
        return tuple(self._g.edges())

    def sources(self) -> tuple[str, ...]:
        """Nodes without predecessors, in insertion order."""
        return tuple(n for n in self._order if self._g.in_degree(n) == 0)

    def sinks(self) -> tuple[str, ...]:
        """Nodes without successors, in insertion order."""
        return tuple(n for n in self._order if self._g.out_degree(n) == 0)

    def colors(self) -> tuple[str, ...]:
        """The complete color set ``L`` in first-appearance order."""
        seen: dict[str, None] = {}
        for n in self._order:
            seen.setdefault(self._g.nodes[n]["color"], None)
        return tuple(seen)

    def color_census(self) -> Counter[str]:
        """How many nodes of each color the graph contains."""
        return Counter(self._g.nodes[n]["color"] for n in self._order)

    def color_labels(self) -> tuple[list[int], tuple[str, ...]]:
        """Dense color interning: per-node color ids plus the id → color table.

        Returns ``(labels, id_colors)`` where ``labels[i]`` is the color id
        of node index ``i`` and ``id_colors[cid]`` the color string; ids are
        assigned in first-appearance order (so ``id_colors`` equals
        :meth:`colors`).  The int-level fast paths (fused classification,
        scheduler hot loop) share this so the interning cannot drift.

        Memoized on the analysis cache (the edit path digests many seed
        partitions of one graph back to back); the returned ``labels``
        list is shared — treat it as read-only.
        """
        cached = self._analysis_cache.get("color_labels")
        if cached is not None:
            return cached
        ids: dict[str, int] = {}
        labels: list[int] = []
        nodes = self._g.nodes
        for n in self._order:
            c = nodes[n]["color"]
            cid = ids.get(c)
            if cid is None:
                cid = ids[c] = len(ids)
            labels.append(cid)
        result = (labels, tuple(ids))
        self._analysis_cache["color_labels"] = result
        return result

    def is_acyclic(self) -> bool:
        """``True`` iff the graph is a DAG.

        Answered by the Kahn walk of :meth:`topological_order` (a
        :class:`~repro.exceptions.CycleError` means ``False``) and memoized
        on the analysis cache, so the validations and analyses one job runs
        against an unchanged graph share one walk; any mutation clears it.
        """
        cache = self._analysis_cache
        if "is_acyclic" not in cache:
            try:
                self.topological_order()
            except CycleError:
                cache["is_acyclic"] = False
            else:
                cache["is_acyclic"] = True
        return cache["is_acyclic"]

    def check_acyclic(self) -> None:
        """Raise :class:`~repro.exceptions.CycleError` unless the graph is a DAG."""
        if not self.is_acyclic():
            cyc = nx.find_cycle(self._g)
            raise CycleError(f"graph {self.name!r} contains a cycle: {cyc}")

    def topological_order(self) -> tuple[str, ...]:
        """Deterministic topological order (smallest ready index first).

        Memoized on the analysis cache, so the level and reachability
        analyses of one graph version share a single Kahn walk; any
        mutation clears it.  A cyclic graph caches nothing and raises
        :class:`~repro.exceptions.CycleError` on every call.
        """
        cached = self._analysis_cache.get("topological_order")
        if cached is not None:
            return cached
        import heapq

        indeg = {n: self._g.in_degree(n) for n in self._order}
        ready = [self._index[n] for n in self._order if indeg[n] == 0]
        heapq.heapify(ready)
        out: list[str] = []
        while ready:
            n = self._order[heapq.heappop(ready)]
            out.append(n)
            for s in self._g.successors(n):
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, self._index[s])
        if len(out) != len(self._order):
            raise CycleError(f"graph {self.name!r} contains a cycle")
        order = self._analysis_cache["topological_order"] = tuple(out)
        return order

    # ------------------------------------------------------------------ #
    # conversion / copying
    # ------------------------------------------------------------------ #
    def copy(self, name: str | None = None) -> "DFG":
        """A deep, insertion-order-preserving copy."""
        out = DFG(name=name if name is not None else self.name)
        out.meta = dict(self.meta)
        for n in self._order:
            data = dict(self._g.nodes[n])
            color = data.pop("color")
            out.add_node(n, color, **data)
        for u, v in self._g.edges():
            out.add_edge(u, v)
        return out

    def to_networkx(self) -> nx.DiGraph:
        """A copy of the underlying :class:`networkx.DiGraph`."""
        return self._g.copy()

    def __repr__(self) -> str:
        return (
            f"DFG(name={self.name!r}, nodes={self.n_nodes}, edges={self.n_edges}, "
            f"colors={list(self.colors())!r})"
        )

    # ------------------------------------------------------------------ #
    # evaluable semantics (optional; used by verified workload builders)
    # ------------------------------------------------------------------ #
    def evaluate(self, inputs: Mapping[str, complex | float]) -> dict[str, complex]:
        """Execute the graph given external input values.

        Each node must carry an ``op`` attribute in
        ``{"add", "sub", "mul", "neg", "const", "copy"}`` and an ``operands``
        attribute: a tuple whose entries are either node names (internal data
        edges) or ``("input", key)`` references into ``inputs``.  ``mul``
        nodes may instead carry a scalar ``factor`` attribute and a single
        operand (constant multiplication, the common case in FFT graphs).

        Returns a mapping of node name to computed value.  Raises
        :class:`~repro.exceptions.GraphError` when a node lacks semantics.
        """
        values: dict[str, complex] = {}

        def resolve(ref: Any) -> complex:
            if isinstance(ref, tuple) and len(ref) == 2 and ref[0] == "input":
                try:
                    return complex(inputs[ref[1]])
                except KeyError:
                    raise GraphError(f"missing external input {ref[1]!r}") from None
            if isinstance(ref, str):
                return values[ref]
            raise GraphError(f"malformed operand reference {ref!r}")

        for n in self.topological_order():
            data = self._g.nodes[n]
            op = data.get("op")
            if op is None:
                raise GraphError(f"node {n!r} has no evaluable semantics ('op')")
            operands = tuple(resolve(r) for r in data.get("operands", ()))
            if op == "add":
                values[n] = operands[0] + operands[1]
            elif op == "sub":
                values[n] = operands[0] - operands[1]
            elif op == "mul":
                if "factor" in data:
                    values[n] = data["factor"] * operands[0]
                else:
                    values[n] = operands[0] * operands[1]
            elif op == "neg":
                values[n] = -operands[0]
            elif op == "copy":
                values[n] = operands[0]
            elif op == "const":
                values[n] = complex(data["value"])
            else:
                raise GraphError(f"node {n!r}: unknown op {op!r}")
        return values
