"""Graph edits and the dirty-region analysis behind incremental rebuilds.

A :class:`DfgEdit` describes one mutation — recolor, add/remove node,
add/remove edge — in a JSON-safe wire form.  :func:`apply_edits` applies a
sequence of edits functionally, producing a *new* :class:`~repro.dfg.graph.DFG`
(insertion order preserved; removed nodes compact the index space) so memoized
analyses on the original stay valid.

:func:`dirty_mask` compares the old and new graphs seed by seed: bit ``s`` is
clear exactly when the antichain-DFS subtree rooted at seed ``s`` is guaranteed
to classify identically on both graphs.  The check mirrors the facts hashed by
:func:`repro.dfg.io.subgraph_digest` for the singleton seed range ``[s]`` —
index, name, interned color label and its color, ASAP/ALAP, and comparability
restricted to the seed's support — so ``dirty_mask`` and single-seed digest
equality agree bit for bit (pinned by the property suite).  Clean seeds can be
re-served from cached partition rows, keyed by each partition's subgraph digest
(:func:`repro.service.service.shard_partial_key`); partitions holding a dirty
seed are re-classified and every partition's rows merged back in ascending-seed
order for a bit-identical catalog.

Edits address nodes by *name*.  Structural validity (acyclicity after an
``add_edge``) is the caller's concern, exactly as for hand-built graphs; every
scheduler entry point validates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.dfg.graph import DFG
from repro.dfg.levels import LevelAnalysis
from repro.dfg.traversal import comparability_masks
from repro.exceptions import (
    DuplicateNodeError,
    GraphError,
    UnknownNodeError,
)

__all__ = ["DfgEdit", "apply_edits", "dirty_mask"]

_EDIT_OPS = ("recolor", "add_node", "remove_node", "add_edge", "remove_edge")
_EDIT_FIELDS = {"op", "node", "color", "u", "v"}


@dataclass(frozen=True)
class DfgEdit:
    """One graph mutation in wire form.

    Use the classmethod constructors (:meth:`recolor`, :meth:`add_node`,
    :meth:`remove_node`, :meth:`add_edge`, :meth:`remove_edge`) rather than
    the raw constructor; validation happens either way.
    """

    op: str
    node: str | None = None
    color: str | None = None
    u: str | None = None
    v: str | None = None

    def __post_init__(self) -> None:
        if self.op not in _EDIT_OPS:
            raise GraphError(
                f"unknown edit op {self.op!r}; expected one of {_EDIT_OPS}"
            )
        needs_node = self.op in ("recolor", "add_node", "remove_node")
        needs_color = self.op in ("recolor", "add_node")
        needs_ends = self.op in ("add_edge", "remove_edge")
        if needs_node and not (isinstance(self.node, str) and self.node):
            raise GraphError(f"edit {self.op!r} requires a node name")
        if needs_color and not (isinstance(self.color, str) and self.color):
            raise GraphError(f"edit {self.op!r} requires a non-empty color")
        if needs_ends and not all(
            isinstance(e, str) and e for e in (self.u, self.v)
        ):
            raise GraphError(f"edit {self.op!r} requires endpoint names u and v")
        if not needs_node and self.node is not None:
            raise GraphError(f"edit {self.op!r} does not take a node")
        if not needs_color and self.color is not None:
            raise GraphError(f"edit {self.op!r} does not take a color")
        if not needs_ends and (self.u is not None or self.v is not None):
            raise GraphError(f"edit {self.op!r} does not take endpoints")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def recolor(cls, node: str, color: str) -> "DfgEdit":
        """Change the color of an existing node."""
        return cls(op="recolor", node=node, color=color)

    @classmethod
    def add_node(cls, node: str, color: str) -> "DfgEdit":
        """Append a new (initially isolated) node."""
        return cls(op="add_node", node=node, color=color)

    @classmethod
    def remove_node(cls, node: str) -> "DfgEdit":
        """Remove a node and all its incident edges."""
        return cls(op="remove_node", node=node)

    @classmethod
    def add_edge(cls, u: str, v: str) -> "DfgEdit":
        """Add the dependency edge ``u -> v``."""
        return cls(op="add_edge", u=u, v=v)

    @classmethod
    def remove_edge(cls, u: str, v: str) -> "DfgEdit":
        """Remove the existing edge ``u -> v``."""
        return cls(op="remove_edge", u=u, v=v)

    # ------------------------------------------------------------------ #
    # wire form
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict; fields irrelevant to ``op`` are omitted."""
        out: dict[str, Any] = {"op": self.op}
        for key in ("node", "color", "u", "v"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, payload: Any) -> "DfgEdit":
        """Inverse of :meth:`to_dict`; rejects unknown fields loudly."""
        if not isinstance(payload, dict):
            raise GraphError("edit payload must be a JSON object")
        unknown = set(payload) - _EDIT_FIELDS
        if unknown:
            raise GraphError(f"unknown edit fields: {sorted(unknown)}")
        if "op" not in payload:
            raise GraphError("edit payload missing required field 'op'")
        return cls(
            op=payload["op"],
            node=payload.get("node"),
            color=payload.get("color"),
            u=payload.get("u"),
            v=payload.get("v"),
        )


def apply_edits(dfg: DFG, edits: Iterable[DfgEdit]) -> DFG:
    """Apply ``edits`` in order, returning a new graph; ``dfg`` is untouched.

    Surviving nodes keep their relative insertion order (removal compacts
    indices), node attributes are carried over verbatim, and edges keep
    their insertion order.  Raises the usual :class:`GraphError` family on
    unknown/duplicate nodes or missing/duplicate edges; acyclicity after an
    ``add_edge`` is *not* checked here (the scheduler entry points validate).
    """
    nodes = list(dfg.node_data())
    edges: list[tuple[str, str]] = list(dfg.edges())
    index = {name: i for i, (name, _, _) in enumerate(nodes)}

    for edit in edits:
        if not isinstance(edit, DfgEdit):
            raise GraphError(f"expected a DfgEdit, got {type(edit).__name__}")
        if edit.op == "recolor":
            if edit.node not in index:
                raise UnknownNodeError(f"unknown node {edit.node!r} in edit")
            name, _, attrs = nodes[index[edit.node]]
            nodes[index[edit.node]] = (name, edit.color, attrs)
        elif edit.op == "add_node":
            if edit.node in index:
                raise DuplicateNodeError(
                    f"edit adds node {edit.node!r} twice"
                )
            index[edit.node] = len(nodes)
            nodes.append((edit.node, edit.color, {}))
        elif edit.op == "remove_node":
            if edit.node not in index:
                raise UnknownNodeError(f"unknown node {edit.node!r} in edit")
            nodes.pop(index[edit.node])
            edges = [
                (u, v) for u, v in edges if edit.node not in (u, v)
            ]
            index = {name: i for i, (name, _, _) in enumerate(nodes)}
        elif edit.op == "add_edge":
            for end in (edit.u, edit.v):
                if end not in index:
                    raise UnknownNodeError(f"unknown node {end!r} in edit")
            if edit.u == edit.v:
                raise GraphError(f"edit adds self-loop {edit.u!r} -> {edit.u!r}")
            if (edit.u, edit.v) in edges:
                raise GraphError(
                    f"edit adds existing edge {edit.u!r} -> {edit.v!r}"
                )
            edges.append((edit.u, edit.v))
        elif edit.op == "remove_edge":
            try:
                edges.remove((edit.u, edit.v))
            except ValueError:
                raise GraphError(
                    f"edit removes missing edge {edit.u!r} -> {edit.v!r}"
                ) from None

    out = DFG(name=dfg.name)
    out.meta = dict(dfg.meta)
    out.extend(nodes, edges)
    return out


def _same_node(
    i: int,
    old: DFG,
    new: DFG,
    old_labels: Sequence[int],
    new_labels: Sequence[int],
    old_colors: Sequence[str],
    new_colors: Sequence[str],
    old_levels: LevelAnalysis,
    new_levels: LevelAnalysis,
) -> bool:
    old_name, new_name = old.name_of(i), new.name_of(i)
    return (
        old_name == new_name
        and old_labels[i] == new_labels[i]
        and old_colors[old_labels[i]] == new_colors[new_labels[i]]
        and old_levels.asap[old_name] == new_levels.asap[new_name]
        and old_levels.alap[old_name] == new_levels.alap[new_name]
    )


def dirty_mask(old: DFG, new: DFG) -> int:
    """Bitmask over *new* node indices of seeds whose DFS subtree may differ.

    Seed ``s`` is clean iff every fact the enumeration subtree rooted at
    ``s`` can observe is unchanged: the per-node record (name, interned
    label + color, ASAP/ALAP) of ``s`` and of every node in its support
    ``{s} ∪ (higher(s) & ~comp[s])``, the support set itself, and each
    support node's comparability restricted to the support.  This is the
    singleton-seed specialisation of :func:`repro.dfg.io.subgraph_digest`,
    so ``bit s set  ⇔  subgraph_digest(old, [s]) != subgraph_digest(new, [s])``
    (for ``s`` beyond the old graph, the bit is always set).

    Conservative by construction: clean seeds provably classify identically
    on both graphs; dirty seeds merely *may* differ.
    """
    n_old, n_new = old.n_nodes, new.n_nodes
    comp_old, comp_new = comparability_masks(old), comparability_masks(new)
    labels_old, colors_old = old.color_labels()
    labels_new, colors_new = new.color_labels()
    levels_old, levels_new = LevelAnalysis.of(old), LevelAnalysis.of(new)
    common = min(n_old, n_new)
    same = [
        _same_node(
            i, old, new,
            labels_old, labels_new,
            colors_old, colors_new,
            levels_old, levels_new,
        )
        for i in range(common)
    ]
    full_old = (1 << n_old) - 1
    full_new = (1 << n_new) - 1
    dirty = 0
    for s in range(n_new):
        if s >= common or not same[s]:
            dirty |= 1 << s
            continue
        higher = ~((1 << (s + 1)) - 1)
        support_old = (1 << s) | (full_old & higher & ~comp_old[s])
        support_new = (1 << s) | (full_new & higher & ~comp_new[s])
        if support_old != support_new:
            dirty |= 1 << s
            continue
        mask = support_new
        while mask:
            low = mask & -mask
            k = low.bit_length() - 1
            mask ^= low
            if not same[k] or (
                (comp_old[k] & support_new) != (comp_new[k] & support_new)
            ):
                dirty |= 1 << s
                break
    return dirty
