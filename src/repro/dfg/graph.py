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
        ``operands``, ``value``): the graph's own dict for the node, so
        writes through it show in :meth:`DFG.attr`.  The color is not
        among them.
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
    Storage is plain insertion-ordered dicts keyed by node name: the
    color, the attrs dict, and the successor and predecessor sets
    (``dict[str, None]``, so each iterates in edge-insertion order and
    a duplicate edge is a no-op).

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
        self._order: list[str] = []
        self._index: dict[str, int] = {}
        self._colors: dict[str, str] = {}
        self._attrs: dict[str, dict[str, Any]] = {}
        self._succ: dict[str, dict[str, None]] = {}
        self._pred: dict[str, dict[str, None]] = {}
        #: Structure-derived analysis results (reachability masks, level
        #: analysis, …), invalidated wholesale on any node/edge mutation.
        #: Cached values must be treated as immutable by all consumers.
        self._analysis_cache: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def extend(
        self,
        nodes: Iterable[tuple[str, str, dict[str, Any]]] = (),
        edges: Iterable[tuple[str, str]] = (),
    ) -> None:
        """Add ``(name, color, attrs)`` nodes, then ``(u, v)`` edges, in order.

        The one checked insert path: :meth:`add_node` and :meth:`add_edge`
        are its one-item case, and bulk builds (:meth:`copy`,
        :func:`repro.dfg.io.from_payload`, :func:`repro.dfg.edit.apply_edits`)
        pass whole graphs, clearing the analysis cache once.  The graph
        keeps each ``attrs`` dict as the node's own.  A repeated edge is a
        no-op.

        Raises
        ------
        DuplicateNodeError
            If a node name already exists.
        GraphError
            If a color is not a non-empty string, or ``attrs`` holds a
            ``"color"`` key.
        UnknownNodeError
            If an edge names a node that does not exist.
        CycleError
            On a self-loop.
        """
        order, index, colors = self._order, self._index, self._colors
        attrs_of, succ, pred = self._attrs, self._succ, self._pred
        try:
            for name, color, attrs in nodes:
                if name in index:
                    raise DuplicateNodeError(
                        f"node {name!r} already present in {self.name!r}"
                    )
                if not isinstance(color, str) or not color:
                    raise GraphError(
                        f"node {name!r}: color must be a non-empty string"
                    )
                if "color" in attrs:
                    raise GraphError(
                        f"node {name!r}: 'color' is not a free-form attribute"
                    )
                index[name] = len(order)
                order.append(name)
                colors[name] = color
                attrs_of[name] = attrs
                succ[name] = {}
                pred[name] = {}
            for u, v in edges:
                out = succ.get(u)
                into = pred.get(v)
                if out is None or into is None:
                    self._require(u)
                    self._require(v)
                if u == v:
                    raise CycleError(
                        f"self-loop {u!r} -> {u!r} is not allowed in a DFG"
                    )
                if v not in out:
                    out[v] = None
                    into[u] = None
        finally:
            self._analysis_cache.clear()

    def add_node(self, name: str, color: str, **attrs: Any) -> Node:
        """Add an operation node and return its :class:`Node` record.

        Raises
        ------
        DuplicateNodeError
            If ``name`` already exists.
        """
        self.extend(((name, color, attrs),))
        return Node(
            name=name, color=color, index=len(self._order) - 1, attrs=attrs
        )

    def add_edge(self, u: str, v: str) -> None:
        """Add the dependency edge ``u -> v`` (``u`` produces for ``v``)."""
        self.extend((), ((u, v),))

    def add_edges(self, edges: Iterable[tuple[str, str]]) -> None:
        """Add many edges preserving the given order."""
        self.extend((), edges)

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
        return sum(map(len, self._succ.values()))

    @property
    def nodes(self) -> tuple[str, ...]:
        """Node names in insertion order."""
        return tuple(self._order)

    def node(self, name: str) -> Node:
        """The :class:`Node` record for ``name``; its ``attrs`` is a live view."""
        self._require(name)
        return Node(
            name=name,
            color=self._colors[name],
            index=self._index[name],
            attrs=self._attrs[name],
        )

    def node_data(self) -> Iterator[tuple[str, str, dict[str, Any]]]:
        """``(name, color, attrs)`` for every node in insertion order.

        ``attrs`` is a fresh dict of the node's attributes other than its
        color, the caller's to keep.  Whole-graph passes such as
        :func:`repro.dfg.io.canonical_json` use this instead of building
        one :class:`Node` record per node.
        """
        colors, attrs = self._colors, self._attrs
        for name in self._order:
            yield name, colors[name], dict(attrs[name])

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
        return self._colors[name]

    def attr(self, name: str, key: str, default: Any = None) -> Any:
        """A free-form node attribute."""
        self._require(name)
        return self._attrs[name].get(key, default)

    def set_attr(self, name: str, key: str, value: Any) -> None:
        """Set a free-form node attribute.

        Invalidates the analysis cache: attributes participate in the
        graph's canonical content (:func:`repro.dfg.io.dfg_digest` is
        memoized there), even though the purely structural analyses do
        not read them.
        """
        self._require(name)
        if key == "color":
            raise GraphError(
                f"node {name!r}: 'color' is not a free-form attribute"
            )
        self._attrs[name][key] = value
        self._analysis_cache.clear()

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def successors(self, name: str) -> tuple[str, ...]:
        """``Succ(n)`` in edge-insertion order."""
        self._require(name)
        return tuple(self._succ[name])

    def predecessors(self, name: str) -> tuple[str, ...]:
        """``Pred(n)`` in edge-insertion order."""
        self._require(name)
        return tuple(self._pred[name])

    def out_degree(self, name: str) -> int:
        """``#direct successors`` of ``name`` (paper Eq. 4)."""
        self._require(name)
        return len(self._succ[name])

    def in_degree(self, name: str) -> int:
        """Number of direct predecessors of ``name``."""
        self._require(name)
        return len(self._pred[name])

    def edges(self) -> tuple[tuple[str, str], ...]:
        """All edges, grouped by source in insertion order."""
        succ = self._succ
        return tuple((u, v) for u in self._order for v in succ[u])

    def sources(self) -> tuple[str, ...]:
        """Nodes without predecessors, in insertion order."""
        pred = self._pred
        return tuple(n for n in self._order if not pred[n])

    def sinks(self) -> tuple[str, ...]:
        """Nodes without successors, in insertion order."""
        succ = self._succ
        return tuple(n for n in self._order if not succ[n])

    def colors(self) -> tuple[str, ...]:
        """The complete color set ``L`` in first-appearance order."""
        return tuple(dict.fromkeys(self._colors.values()))

    def color_census(self) -> Counter[str]:
        """How many nodes of each color the graph contains."""
        return Counter(self._colors.values())

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
        for c in self._colors.values():
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
        """Raise :class:`~repro.exceptions.CycleError` unless the graph is a DAG.

        The message lists the edges of one cycle (:meth:`_find_cycle`).
        """
        if not self.is_acyclic():
            raise CycleError(
                f"graph {self.name!r} contains a cycle: {self._find_cycle()}"
            )

    def _find_cycle(self) -> list[tuple[str, str]]:
        """The edges of one cycle, ``[]`` for a DAG.

        An edge-wise depth-first walk: roots in insertion order,
        successors in edge-insertion order, the active path trimmed to
        the first edge leaving the node that closes it.  The answer (and
        so :meth:`check_acyclic`'s message) is the one the property
        suite pins against an independent graph library's cycle finder.
        """
        explored: set[str] = set()
        for root in self._order:
            if root in explored:
                continue
            path: list[tuple[str, str]] = []
            seen = {root}
            active = {root}
            previous_head = None
            for tail, head in self._edge_dfs(root):
                if head in explored:
                    continue
                if previous_head is not None and tail != previous_head:
                    # Backtracked: pop the path back to the edge ending
                    # at ``tail``, or restart it at ``tail``.
                    while True:
                        try:
                            popped = path.pop()
                        except IndexError:
                            path, active = [], {tail}
                            break
                        active.remove(popped[1])
                        if path and path[-1][1] == tail:
                            break
                path.append((tail, head))
                if head in active:
                    start = next(
                        (i for i, (u, _) in enumerate(path) if u == head),
                        len(path) - 1,
                    )
                    return path[start:]
                seen.add(head)
                active.add(head)
                previous_head = head
            explored.update(seen)
        return []

    def _edge_dfs(self, root: str) -> Iterator[tuple[str, str]]:
        """Every edge reachable from ``root``, each once, depth first."""
        succ = self._succ
        pending: dict[str, Iterator[str]] = {}
        stack = [root]
        while stack:
            node = stack[-1]
            heads = pending.get(node)
            if heads is None:
                heads = pending[node] = iter(succ[node])
            head = next(heads, None)
            if head is None:
                stack.pop()
            else:
                stack.append(head)
                yield node, head

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

        order, index, succ = self._order, self._index, self._succ
        indeg = {n: len(p) for n, p in self._pred.items()}
        ready = [index[n] for n in order if indeg[n] == 0]
        heapq.heapify(ready)
        out: list[str] = []
        while ready:
            n = order[heapq.heappop(ready)]
            out.append(n)
            for s in succ[n]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, index[s])
        if len(out) != len(order):
            raise CycleError(f"graph {self.name!r} contains a cycle")
        result = self._analysis_cache["topological_order"] = tuple(out)
        return result

    # ------------------------------------------------------------------ #
    # copying
    # ------------------------------------------------------------------ #
    def copy(self, name: str | None = None) -> "DFG":
        """A deep, insertion-order-preserving copy.

        Node order and every node's successor *and* predecessor order are
        kept; replaying :meth:`edges` would re-order predecessors by source.
        """
        out = DFG(name=name if name is not None else self.name)
        out.meta = dict(self.meta)
        out.extend(self.node_data())
        out._succ = {n: dict(vs) for n, vs in self._succ.items()}
        out._pred = {n: dict(us) for n, us in self._pred.items()}
        return out

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
            data = self._attrs[n]
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
