"""(De)serialisation of data-flow graphs.

Formats
-------
* **JSON** — lossless round-trip of nodes (name, color, JSON-safe attributes)
  and edges in insertion order.
* **canonical JSON** — an order-*independent* normal form used for content
  addressing: :func:`canonical_json` sorts nodes, edges and attribute keys, so
  two graphs with the same structure hash equal regardless of how they were
  built; :func:`dfg_digest` is its SHA-256.
* **edge list** — a compact text format; node colors are taken from the first
  character of the name by default (the paper's naming convention, e.g.
  ``a24`` is an addition).
* **DOT** — export-only, for visual inspection with Graphviz.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable

from repro.dfg.graph import DFG
from repro.exceptions import GraphError

__all__ = [
    "to_json",
    "from_json",
    "to_payload",
    "from_payload",
    "canonical_json",
    "dfg_digest",
    "subgraph_digest",
    "stable_key_json",
    "stable_key_digest",
    "to_edge_list",
    "from_edge_list",
    "to_dot",
    "color_from_name",
]


def color_from_name(name: str) -> str:
    """The paper's convention: the first letter of a node name is its color."""
    if not name or not name[0].isalpha():
        raise GraphError(
            f"cannot derive a color from node name {name!r}; "
            "names must start with a letter"
        )
    return name[0]


def to_payload(dfg: DFG) -> dict[str, Any]:
    """The JSON-safe dict behind :func:`to_json` (insertion order preserved)."""
    return {
        "name": dfg.name,
        "nodes": [
            {
                "name": n,
                "color": dfg.color(n),
                "attrs": {
                    k: v
                    for k, v in dfg.node(n).attrs.items()
                    if k != "color" and _json_safe(v)
                },
            }
            for n in dfg.nodes
        ],
        "edges": [[u, v] for u, v in dfg.edges()],
    }


def to_json(dfg: DFG, *, indent: int | None = None) -> str:
    """Serialise ``dfg`` to a JSON string (JSON-safe attributes only)."""
    return json.dumps(to_payload(dfg), indent=indent)


#: Types ``json.dumps`` always encodes, so ``_json_safe`` answers for them
#: without the probe.  Ints qualify only below :data:`_SAFE_INT_BITS`:
#: past ``sys.get_int_max_str_digits()`` digits (640 at the least)
#: ``json.dumps`` raises.
_JSON_SCALARS = frozenset({str, float, bool, type(None)})
_SAFE_INT_BITS = 2000


def _json_safe(value: object) -> bool:
    kind = type(value)
    if kind in _JSON_SCALARS or (
        kind is int and value.bit_length() < _SAFE_INT_BITS
    ):
        return True
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


def from_payload(payload: dict[str, Any]) -> DFG:
    """Inverse of :func:`to_payload`."""
    try:
        dfg = DFG(name=payload.get("name", "dfg"))
        for node in payload["nodes"]:
            dfg.add_node(node["name"], node["color"], **node.get("attrs", {}))
        for u, v in payload["edges"]:
            dfg.add_edge(u, v)
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed DFG JSON payload: {exc!r}") from exc
    return dfg


def from_json(text: str) -> DFG:
    """Inverse of :func:`to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid DFG JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise GraphError("malformed DFG JSON payload: expected an object")
    return from_payload(payload)


def canonical_json(dfg: DFG) -> str:
    """An order-independent normal form of ``dfg`` for content addressing.

    Nodes are sorted by name, edges lexicographically, attribute keys
    alphabetically, and the output carries no whitespace — so the string
    (and therefore :func:`dfg_digest`) is invariant under node/edge
    *insertion* order and attribute dict ordering, while any change to the
    structure itself (a node, a color, an edge, an attribute value)
    produces a different string.

    The graph ``name`` is deliberately excluded: it is a display label, not
    structure, and content addressing must let differently-named builds of
    the same graph share cached work (see :mod:`repro.service`).

    Note that canonical form erases insertion order, which the scheduler's
    *tie-breaks* (DESIGN.md §3.4) observe: two graphs with equal digests are
    structurally interchangeable, and callers that cache schedule results by
    digest (the service does) treat the first-seen insertion order as the
    canonical one for the whole digest class.
    """
    nodes = sorted(
        (
            n,
            dfg.color(n),
            sorted(
                (k, v)
                for k, v in dfg.node(n).attrs.items()
                if k != "color" and _json_safe(v)
            ),
        )
        for n in dfg.nodes
    )
    payload = {
        "nodes": [
            {"name": n, "color": c, "attrs": {k: v for k, v in attrs}}
            for n, c, attrs in nodes
        ],
        "edges": sorted([u, v] for u, v in dfg.edges()),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def dfg_digest(dfg: DFG) -> str:
    """SHA-256 hex digest of :func:`canonical_json` — the graph's content id.

    Memoized on the graph's analysis cache, so repeated lookups (every
    service submit) hash the canonical form only once per graph mutation.
    """
    cache = getattr(dfg, "_analysis_cache", None)
    if cache is not None:
        cached = cache.get("dfg_digest")
        if cached is not None:
            return cached
    digest = hashlib.sha256(canonical_json(dfg).encode("utf-8")).hexdigest()
    if cache is not None:
        cache["dfg_digest"] = digest
    return digest


def subgraph_digest(dfg: DFG, seeds) -> str:
    """Content id of the enumeration-relevant subgraph for a seed range.

    The antichain DFS subtree rooted at seed ``s`` depends only on the
    *support* of ``s`` — ``s`` itself plus higher-index nodes incomparable
    with it (:func:`repro.dfg.traversal.seed_subtree_support`) — and, for
    each support node: its absolute index (extension order and
    ``first_seen`` rows), its name (pattern frequency ``Counter`` keys),
    its interned color label *and* the color that label denotes (bag-key
    bucketing plus decode at merge time), its ASAP/ALAP levels (span
    pruning), and its comparability restricted to the support (the DFS
    never consults comparability bits outside it).  Hashing exactly those
    facts — no more — yields a digest that is invariant under any edit
    outside the support, so partition-granular cache entries keyed by it
    (:func:`repro.service.service.shard_partial_key`) survive graph edits
    bit-identically while any edit that could change the classified output
    changes the key.

    The total node count is deliberately excluded: support indices are
    absolute, so trailing additions/removals outside the support cannot
    alias.  Memoized per seed range on the graph's analysis cache.

    The encoding streams straight into SHA-256 — a length-prefixed field
    row per support node (the static per-node part is built once per
    graph and memoized) followed by the node's support-masked
    comparability in hex.  The edit path digests every partition of the
    plan per submit, so this is a measured hot path: JSON-encoding the
    same facts costs more than the dirty region's DFS on large graphs.
    """
    from repro.dfg.levels import LevelAnalysis
    from repro.dfg.traversal import comparability_masks, seed_subtree_support

    seeds = tuple(seeds)
    if seeds and seeds == tuple(range(seeds[0], seeds[-1] + 1)):
        seeds_key: Any = ("range", seeds[0], seeds[-1] + 1)
    else:
        seeds_key = seeds
    cache = getattr(dfg, "_analysis_cache", None)
    memo = None
    if cache is not None:
        memo = cache.setdefault("subgraph_digest", {})
        cached = memo.get(seeds_key)
        if cached is not None:
            return cached
    support = seed_subtree_support(dfg, seeds)
    comp = comparability_masks(dfg)
    rows = cache.get("subgraph_digest_rows") if cache is not None else None
    if rows is None:
        labels, id_colors = dfg.color_labels()
        levels = LevelAnalysis.of(dfg)
        rows = []
        for i in range(dfg.n_nodes):
            name = dfg.name_of(i)
            color = id_colors[labels[i]]
            # Variable-length strings are length-prefixed so a name (or
            # color) containing the field separator cannot alias another
            # row's field layout.
            rows.append(
                f"{i}\x1f{len(name)}\x1f{name}\x1f{labels[i]}"
                f"\x1f{len(color)}\x1f{color}"
                f"\x1f{levels.asap[name]}\x1f{levels.alap[name]}\x1f".encode()
            )
        if cache is not None:
            cache["subgraph_digest_rows"] = rows
    h = hashlib.sha256()
    h.update(repr(seeds_key).encode())
    mask = support
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        mask ^= low
        h.update(rows[i])
        h.update(format(comp[i] & support, "x").encode())
        h.update(b"\x1e")
    digest = h.hexdigest()
    if memo is not None:
        memo[seeds_key] = digest
    return digest


def _stable_form(value: Any) -> Any:
    """A JSON-encodable normal form for structured cache-key components.

    Tuples and lists normalise to lists, mappings to key-sorted objects
    (keys stringified, so int and str keys cannot collide silently — the
    original type is part of the emitted key), dataclasses to
    ``[class name, field dict]`` (a :class:`SelectionConfig` inside a
    selection key hashes by *content*, not ``repr``), sets to their
    sorted element list, and ``range`` objects to a tagged
    ``[start, stop, step]`` triple — deliberately *not* expanded to their
    elements, so a contiguous seed range inside a shard-partial cache key
    (:meth:`repro.service.shard.ShardTask.partial_key`) stays O(1) bytes
    on arbitrarily large graphs.  Scalars pass through; ``bool`` is kept
    distinct from ``int`` by tagging.  Anything else is rejected loudly —
    silent ``str()`` fallbacks would let two distinct keys collide.
    """
    if value is None or isinstance(value, (int, float, str)):
        if isinstance(value, bool):
            return ["__bool__", value]
        return value
    if isinstance(value, range):
        return ["__range__", value.start, value.stop, value.step]
    if isinstance(value, (tuple, list)):
        return [_stable_form(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _stable_form(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return [type(value).__name__, fields]
    if isinstance(value, dict):
        return {
            f"{type(k).__name__}:{k}": _stable_form(v)
            for k, v in value.items()
        }
    if isinstance(value, (set, frozenset)):
        return ["__set__", sorted(_stable_form(v) for v in value)]
    raise GraphError(
        f"cache key component of type {type(value).__name__!r} has no "
        f"stable encoding: {value!r}"
    )


def stable_key_json(key: Any) -> str:
    """A canonical JSON string for a structured cache key.

    Deterministic across processes and python versions for keys built from
    scalars, tuples/lists, dicts, sets and dataclasses — unlike ``str(key)``
    or ``hash(key)``, which the disk-backed cache store
    (:mod:`repro.service.store`) must never depend on.
    """
    return json.dumps(
        _stable_form(key), sort_keys=True, separators=(",", ":")
    )


def stable_key_digest(key: Any) -> str:
    """SHA-256 hex digest of :func:`stable_key_json` — a safe file name.

    This is how the service's disk cache turns a structured cache key
    (e.g. ``(dfg_digest, capacity, span_limit, …)``) into a flat,
    filesystem-safe, collision-resistant identifier that two independent
    service instances derive identically.
    """
    return hashlib.sha256(stable_key_json(key).encode("utf-8")).hexdigest()


def to_edge_list(dfg: DFG) -> str:
    """Compact text format: one ``u v`` edge per line, isolated nodes alone.

    Nodes appear implicitly in first-mention order, so round-tripping through
    :func:`from_edge_list` preserves the reproduction-critical insertion
    order as long as the original insertion order equals first-mention order
    (true for all builders in :mod:`repro.workloads`).
    """
    lines: list[str] = []
    mentioned: set[str] = set()
    edges = dfg.edges()
    for n in dfg.nodes:  # keep insertion order: declare nodes up front
        lines.append(n)
        mentioned.add(n)
    for u, v in edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def from_edge_list(
    text: str,
    *,
    name: str = "dfg",
    color_fn: Callable[[str], str] = color_from_name,
) -> DFG:
    """Parse the edge-list format produced by :func:`to_edge_list`.

    ``color_fn`` maps a node name to its color (default: first letter).
    """
    dfg = DFG(name=name)
    pending_edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            if parts[0] not in dfg:
                dfg.add_node(parts[0], color_fn(parts[0]))
        elif len(parts) == 2:
            for p in parts:
                if p not in dfg:
                    dfg.add_node(p, color_fn(p))
            pending_edges.append((parts[0], parts[1]))
        else:
            raise GraphError(f"edge list line {lineno}: expected 1 or 2 tokens")
    dfg.add_edges(pending_edges)
    return dfg


def to_dot(dfg: DFG, *, color_palette: dict[str, str] | None = None) -> str:
    """Graphviz DOT export with per-color fill colors."""
    default_palette = {"a": "lightblue", "b": "lightsalmon", "c": "palegreen"}
    palette = color_palette if color_palette is not None else default_palette
    lines = [f'digraph "{dfg.name}" {{', "  rankdir=TB;"]
    for n in dfg.nodes:
        fill = palette.get(dfg.color(n))
        style = f', style=filled, fillcolor="{fill}"' if fill else ""
        lines.append(f'  "{n}" [label="{n}\\n{dfg.color(n)}"{style}];')
    for u, v in dfg.edges():
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
