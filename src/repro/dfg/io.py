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
from operator import itemgetter
from typing import Any, Callable

from repro.dfg.graph import DFG
from repro.dfg.levels import LevelAnalysis
from repro.dfg.traversal import comparability_masks, seed_subtree_support
from repro.exceptions import GraphError

try:  # optional — subgraph_digest has a pure-Python branch
    import numpy as _np
except ImportError:  # pragma: no cover - the container ships numpy
    _np = None  # type: ignore[assignment]

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
    """The JSON-safe dict behind :func:`to_json` (insertion order preserved).

    Nodes keep their order and each node its successor order; the wire
    form carries successor order only (``edges`` grouped by source), not
    the order in which each node's predecessors were added.
    """
    return {
        "name": dfg.name,
        "nodes": [
            {
                "name": n,
                "color": color,
                "attrs": {k: v for k, v in attrs.items() if _json_safe(v)},
            }
            for n, color, attrs in dfg.node_data()
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


def _json_scalar(value: object) -> bool:
    kind = type(value)
    return kind in _JSON_SCALARS or (
        kind is int and value.bit_length() < _SAFE_INT_BITS
    )


def _json_safe(value: object) -> bool:
    if _json_scalar(value):
        return True
    # A flat tuple or list of scalars (the common ``operands`` attr) is
    # answered without the probe; anything nested, self-containing or
    # holding a huge int falls through to ``json.dumps`` unchanged.
    if type(value) in (tuple, list) and all(map(_json_scalar, value)):
        return True
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


#: The attrs of a payload node that lists none (copied, never shared).
_NO_ATTRS: dict[str, Any] = {}


def from_payload(payload: dict[str, Any]) -> DFG:
    """Inverse of :func:`to_payload`: one bulk :meth:`DFG.extend`.

    The payload carries successor order only, so the decoded graph's
    predecessor order is that of its ``edges`` (grouped by source), which
    can differ from the encoded graph's.
    """
    try:
        dfg = DFG(name=payload.get("name", "dfg"))
        dfg.extend(
            [
                (node["name"], node["color"], {**node.get("attrs", _NO_ATTRS)})
                for node in payload["nodes"]
            ],
            payload["edges"],
        )
    except (KeyError, TypeError, ValueError) as exc:
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
    nodes = [
        {
            "name": n,
            "color": color,
            "attrs": {k: v for k, v in attrs.items() if _json_safe(v)},
        }
        for n, color, attrs in sorted(dfg.node_data(), key=itemgetter(0))
    ]
    # Edge tuples encode as JSON arrays, and ``sort_keys`` orders every
    # attrs dict, so neither is converted or sorted here.
    payload = {"nodes": nodes, "edges": sorted(dfg.edges())}
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


#: Heads every partition digest's byte stream.  Bumped whenever the
#: encoding changes, so a new key can never alias one an older build
#: wrote — those partials simply miss once.
_SUBGRAPH_DIGEST_TAG = b"subgraph-digest/2"


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

    The byte stream is SHA-256 over, in order:

    * the version tag ``b"subgraph-digest/2"``;
    * ``f"\\x1e{seeds_key!r}\\x1e{count}\\x1e"`` — the seed key (a
      contiguous range becomes ``("range", lo, hi)``) and the support size;
    * every support node's static row in ascending index order,
      ``f"{i}\\x1f{len(name)}\\x1f{name}\\x1f{label}\\x1f{len(color)}"
      f"\\x1f{color}\\x1f{asap}\\x1f{alap}\\x1f"`` (memoized per graph;
      the length prefixes keep a name holding a separator from aliasing);
    * one fixed-width block: each support node's comparability masked to
      the support, as ``W`` little-endian ``uint64`` words with
      ``W = max support index // 64 + 1`` — sized by the support, not the
      graph, so appending nodes outside it never changes a key.

    The masked words of a support wider than one word come from one
    packed comparability table per graph in a single vectorized gather,
    so a partition costs one pass over its support rather than a hash
    update and a hex format per node; the edit
    path digests every partition of the plan per submit.  Keys written
    under the previous (per-node hex) encoding carry no tag and miss once.
    """
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
    index, block = _masked_comparability(dfg, support)
    rows = _digest_rows(dfg)
    h = hashlib.sha256(_SUBGRAPH_DIGEST_TAG)
    h.update(f"\x1e{seeds_key!r}\x1e{len(index)}\x1e".encode())
    h.update(b"".join([rows[i] for i in index]))
    h.update(block)
    digest = h.hexdigest()
    if memo is not None:
        memo[seeds_key] = digest
    return digest


def _digest_rows(dfg: DFG) -> list[bytes]:
    """Per-node static rows of :func:`subgraph_digest`, memoized per graph."""
    cache = getattr(dfg, "_analysis_cache", None)
    rows = cache.get("subgraph_digest_rows") if cache is not None else None
    if rows is not None:
        return rows
    labels, id_colors = dfg.color_labels()
    levels = LevelAnalysis.of(dfg)
    rows = []
    for i, name in enumerate(dfg.nodes):
        color = id_colors[labels[i]]
        rows.append(
            f"{i}\x1f{len(name)}\x1f{name}\x1f{labels[i]}"
            f"\x1f{len(color)}\x1f{color}"
            f"\x1f{levels.asap[name]}\x1f{levels.alap[name]}\x1f".encode()
        )
    if cache is not None:
        cache["subgraph_digest_rows"] = rows
    return rows


def _masked_comparability(dfg: DFG, support: int) -> tuple[list[int], bytes]:
    """``(indices, block)`` of :func:`subgraph_digest` for one support.

    ``indices`` lists the support's node indices ascending; ``block``
    packs each one's comparability ANDed with ``support`` as
    ``support.bit_length()``-bit rows of little-endian ``uint64`` words.
    Supports wider than one word take one gather from the graph's packed
    comparability table: on ``fft64``'s 16-partition plan that is 5.5 ms
    against 12.8 ms for the int loop.  A one-word support and numpy-less
    installs build the same bytes with int operations; a numpy call
    costs ~7 µs however small the support, which the int loop matches at
    ~22 rows, so on the small graphs whose supports all fit one word the
    two are within 0.1 ms per plan either way (PERFORMANCE.md).
    """
    nbytes = (support.bit_length() + 63) // 64 * 8
    if _np is None or nbytes <= 8:
        comp = comparability_masks(dfg)
        index = []
        mask = support
        while mask:
            low = mask & -mask
            index.append(low.bit_length() - 1)
            mask ^= low
        return index, b"".join(
            [(comp[i] & support).to_bytes(nbytes, "little") for i in index]
        )
    cache = getattr(dfg, "_analysis_cache", None)
    table = cache.get("packed_comparability") if cache is not None else None
    if table is None:
        stride = (dfg.n_nodes + 63) // 64 * 8
        packed = b"".join(
            m.to_bytes(stride, "little") for m in comparability_masks(dfg)
        )
        table = _np.frombuffer(packed, dtype="<u8").reshape(
            dfg.n_nodes, stride // 8
        )
        if cache is not None:
            cache["packed_comparability"] = table
    raw = support.to_bytes(nbytes, "little")
    bits = _np.unpackbits(_np.frombuffer(raw, _np.uint8), bitorder="little")
    index = _np.flatnonzero(bits)
    block = table[index, : nbytes // 8] & _np.frombuffer(raw, dtype="<u8")
    return index.tolist(), block.astype("<u8", copy=False).tobytes()


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
