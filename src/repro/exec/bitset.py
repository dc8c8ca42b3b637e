"""The bitset kernel — vectorized antichain classification over numpy.

The scalar in-DFS classifier
(:meth:`~repro.dfg.antichains.AntichainEnumerator.classify_by_label`) is
interpreter-bound: every DFS frame pays Python-level bit tricks, dict
lookups and int arithmetic.  This module replaces that per-frame
bookkeeping with batched numpy kernels while reproducing the scalar
output **bit for bit** — same bag order, same ``first_seen`` order, same
frequencies, same ``max_count`` error.  Every fast catalog build runs it
through :func:`repro.exec.process.classify_partition_rows`, the classify
step of the partitioned build.

How the vectorization works
---------------------------
The scalar walk is a DFS in lexicographic order of ascending-index member
tuples.  The bitset core instead runs a **BFS by antichain cardinality**:
one "frontier" of numpy arrays per depth holds every live antichain's last
member, parent frame, label-bag bucket, running max-ASAP/min-ALAP and its
candidate-extension set as a packed ``uint64`` bitset row.  Per depth:

* census + frequency accumulation are ``np.add.at``/``np.minimum.at``
  scatters into preallocated ``int64`` arrays, indexed by one flat
  ``bucket * n + member`` code per ancestor level so numpy keeps them on
  its 1-D ``ufunc.at`` fast path (members are recovered by walking the
  parent-frame chain, one vectorized gather per ancestor level);
* expansion unpacks the allowed rows to one flag byte per node
  (``np.unpackbits(..., count=n)``) and splits the flat set-bit
  positions back into ``(parent, node)`` pairs with ``np.divmod`` — or
  runs the optional compiled ``_bitset_native.expand``; a child's
  allowed row is ``allowed[parent] & inc_above[child]``, one
  ``np.bitwise_and`` over the memoized packed incomparable-above rows —
  exactly the scalar recurrence ``allowed & ~comp[j] & ~(low-1) & ~low``;
* span pruning never reaches expansion: every allowed row is ANDed once
  with its frame's span window ``early[min(mn + L, top)] &
  late[max(mx - L, 0)]``, two gathers from per-level prefix rows
  memoized per graph (:func:`packed_level_windows`), so expansion emits
  only the span-feasible children and nothing is filtered afterwards;
* bag transitions mark the ``(bucket, label)`` pair codes in a dense
  ``bool`` table and resolve the distinct ones in ascending order into a
  dense lookup table, so the Python-level bag lookup runs once per
  distinct pair, not once per antichain, and nothing is sorted.

Reconstructing the scalar order
-------------------------------
DFS preorder over ascending-index tuples is exactly lexicographic order
with "prefix sorts before its extensions".  Each frame therefore carries a
**padded positional key** ``pk = Σ (node_i + 1) · (n+1)^(max_size-1-i)``
(missing positions are zero-padded, so a prefix's key is smaller than all
of its extensions').  The scalar first-visit orders then fall out at
assembly time, after the depth loop:

* bag order: buckets sorted by their minimum ``pk`` over counted
  antichains (a bucket is first *recorded* by its lexicographically
  smallest counted antichain);
* ``first_seen``: per (bucket, node) minimum ``pk`` via ``np.minimum.at``,
  sorted by (min-``pk``, node index) — node-index ties happen exactly when
  one antichain first records several nodes, which the scalar walk logs in
  ascending member order.

The key fits ``int64`` iff ``(n_nodes + 1) ** max_size < 2**63``; larger
problems (and numpy-less installs) transparently fall back to the scalar
classifier, so callers never need to gate.

Batching seed groups
--------------------
Seed subtrees are disjoint, so one pass can classify several seed
groups (the service's cached seed partitions) side by side:
:func:`classify_rows_bitset` keys each bucket by ``(group, bag)`` rather
than ``bag`` and splits the rows per group at assembly.  The keys above
are global, so each group's bag order and ``first_seen`` come out
exactly as a separate call would give them, while the fixed per-depth
numpy cost is paid once per pass instead of once per group.  The only
shared quantity is ``max_count``, which bounds the pass's summed count —
the same bound the merge of those groups enforces.

Trade-off: the scalar DFS is O(depth) memory; the BFS materializes each
cardinality frontier, i.e. O(live antichains) ``int64``s per depth,
bounded by ``max_count`` (~80 MB per depth at the 5M default).  That is
the price of vectorizing, and why ``max_count`` stays load-bearing here.
The span windows keep that frontier to the kept antichains: a row holds
no span-infeasible child, so no pair is expanded only to be dropped, at
the cost of two ``(levels + 1) × words`` tables per graph and two row
gathers per depth.
A batched pass holds the frontiers of all its groups at once, so callers
batch only light groups (see ``repro.exec.process._PASS_WEIGHT_BUDGET``).

The optional compiled extension (``repro/exec/_bitset_native.c``, built
best-effort by ``setup.py build_ext --inplace``) accelerates only the
set-bit expansion — the one kernel numpy cannot express without an 8x
memory blow-up — and changes no output bit; ``REPRO_NO_NATIVE=1`` forces
the pure numpy path.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, Sequence

from repro.dfg.antichains import DEFAULT_MAX_COUNT, AntichainEnumerator
from repro.dfg.levels import LevelAnalysis
from repro.dfg.traversal import comparability_masks
from repro.exceptions import GraphError

try:  # optional — the whole module degrades to the scalar classifier
    import numpy as np
except ImportError:  # pragma: no cover - the container ships numpy
    np = None  # type: ignore[assignment]

#: The optional compiled expansion kernel.  ``REPRO_NO_NATIVE=1`` forces
#: the pure numpy path (CI runs the equivalence suite both ways); tests
#: monkeypatch this attribute to ``None`` for the same effect in-process.
_native = None
if os.environ.get("REPRO_NO_NATIVE") != "1":
    try:
        from repro.exec import _bitset_native as _native  # type: ignore
    except ImportError:
        _native = None

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfg.graph import DFG

__all__ = [
    "bitset_availability",
    "bitset_supported",
    "classify_rows_bitset",
    "packed_incomparable_rows",
    "packed_level_windows",
]

#: Packed-row bytes to expand per chunk.  The numpy path unpacks each
#: frame to ``n`` flag bytes, at most 8x its packed size, so 512 KiB of
#: rows peaks at ~4 MiB transient.
_EXPAND_CHUNK_BYTES = 1 << 19

_INT64_MAX = 2**63 - 1


def _native_module():
    """The compiled expansion module, or ``None``.

    Read through a function so monkeypatching ``bitset._native`` (the
    forced-fallback tests) takes effect mid-process.  The kernel indexes
    bits little-endian within each ``uint64`` word, so it is only used on
    little-endian hosts; big-endian falls back to ``np.unpackbits``.
    """
    return _native if sys.byteorder == "little" else None


def bitset_supported(n_nodes: int, max_size: int) -> bool:
    """Can the vectorized core run this problem exactly?

    Requires numpy, and the padded positional key
    ``(n_nodes + 1) ** max_size`` must fit ``int64`` — beyond that the
    order-reconstruction keys would overflow and the scalar classifier
    takes over (transparently, inside :func:`classify_rows_bitset`).
    """
    return np is not None and (n_nodes + 1) ** max(1, max_size) <= _INT64_MAX


def bitset_availability() -> str:
    """One-line status of the vectorized code path for this process."""
    if np is None:
        return "pure-python fallback (numpy unavailable)"
    native = _native_module()
    ext = "native expand ext" if native is not None else "numpy expand"
    return f"numpy {np.__version__} uint64 kernels, {ext}"


def packed_incomparable_rows(dfg: "DFG"):
    """``(rows, words)``: per-node packed incomparable-above bitset rows.

    ``rows[i]`` is the ``uint64[words]`` little-endian packing of
    ``higher(i) & ~comp[i]`` — the seed allowed-extension mask of node
    ``i``.  Cached on the graph's mutation-cleared analysis cache
    alongside the int masks it is derived from, so every classify call,
    partition plan and worker against one graph packs once.  The array is
    read-only — child rows are fresh ``&`` results, never in-place edits.
    """
    if np is None:  # pragma: no cover - guarded by callers
        raise GraphError("packed bitset rows require numpy")
    cache = getattr(dfg, "_analysis_cache", None)
    if cache is not None and "packed_incomparable_rows" in cache:
        return cache["packed_incomparable_rows"]
    comp = comparability_masks(dfg)
    n = dfg.n_nodes
    words = max(1, (n + 63) // 64)
    full = (1 << n) - 1
    buf = bytearray(max(1, n) * words * 8)
    stride = words * 8
    for i in range(n):
        row = (full & ~((1 << (i + 1)) - 1)) & ~comp[i]
        buf[i * stride:(i + 1) * stride] = row.to_bytes(stride, "little")
    rows = np.frombuffer(bytes(buf), dtype=np.uint64).reshape(max(1, n), words)
    out = (rows[:n], words)
    if cache is not None:
        cache["packed_incomparable_rows"] = out
    return out


def packed_level_windows(dfg: "DFG"):
    """``(early, late, top)``: per-level packed span-window rows.

    ``early[t]`` packs ``{c : ASAP[c] <= t}`` and ``late[t]`` packs
    ``{c : ALAP[c] >= t}`` for every level ``t`` in ``0..top``, where
    ``top`` is ``ASAPmax``, the highest level; both are
    ``uint64[top + 1, words]`` in the layout of
    :func:`packed_incomparable_rows`.  A frame with running
    ``(max ASAP, min ALAP) = (mx, mn)`` keeps a child within span ``L``
    exactly when the child is in
    ``early[min(mn + L, top)] & late[max(mx - L, 0)]`` (see
    :func:`_bitset_pass`).  Memoized on the graph's mutation-cleared
    analysis cache beside the packed rows; the arrays are read-only.
    """
    if np is None:  # pragma: no cover - guarded by callers
        raise GraphError("packed bitset rows require numpy")
    cache = getattr(dfg, "_analysis_cache", None)
    if cache is not None and "packed_level_windows" in cache:
        return cache["packed_level_windows"]
    levels = LevelAnalysis.of(dfg)
    n = dfg.n_nodes
    stride = max(1, (n + 63) // 64) * 8
    top = levels.asap_max
    node = np.arange(n, dtype=np.int64)
    bit = np.left_shift(np.uint8(1), (node & 7).astype(np.uint8))

    def prefix_or(level, reverse: bool):
        # One level's nodes per row, then a running OR over the levels.
        flat = np.zeros((top + 1) * stride, dtype=np.uint8)
        np.bitwise_or.at(flat, level * stride + (node >> 3), bit)
        rows = flat.reshape(top + 1, stride)
        if reverse:
            rows = np.bitwise_or.accumulate(rows[::-1], axis=0)[::-1]
        else:
            rows = np.bitwise_or.accumulate(rows, axis=0)
        out = np.ascontiguousarray(rows).view(np.uint64)
        out.flags.writeable = False
        return out

    names = dfg.nodes
    asap = np.fromiter((levels.asap[v] for v in names), np.int64, count=n)
    alap = np.fromiter((levels.alap[v] for v in names), np.int64, count=n)
    out = (prefix_or(asap, False), prefix_or(alap, True), top)
    if cache is not None:
        cache["packed_level_windows"] = out
    return out


def _expand_rows(allowed, words: int, n: int):
    """Set-bit coordinates of ``allowed`` as ``(frame, node)`` int64 arrays.

    ``n`` is the node count, i.e. the number of meaningful bits per row.
    Frame-major, node-index ascending within each frame — the
    lexicographic extension order the scalar DFS visits children in.
    The rows are already masked to their frames' span windows, so every
    pair emitted is a kept child: the caller filters nothing and counts
    each pair toward ``max_count`` as it arrives.
    Processed in bounded chunks so the transient unpacked bit array never
    exceeds ~8x :data:`_EXPAND_CHUNK_BYTES` regardless of frontier size;
    yields ``(frame_offset, frames, nodes)`` per chunk.
    """
    native = _native_module()
    frames = len(allowed)
    step = max(1, _EXPAND_CHUNK_BYTES // (words * 8))
    for start in range(0, frames, step):
        chunk = allowed[start:start + step]
        if native is not None:
            pbytes, nbytes = native.expand(chunk, len(chunk), words)
            par = np.frombuffer(pbytes, dtype=np.int64)
            nod = np.frombuffer(nbytes, dtype=np.int64)
        else:
            # One flag byte per node; the flat set-bit positions of the
            # row-major matrix divide back into (frame, node) pairs.
            bits = np.unpackbits(
                chunk.view(np.uint8), axis=1, bitorder="little", count=n
            ).view(bool)
            flat = np.flatnonzero(bits).astype(np.int64, copy=False)
            par, nod = np.divmod(flat, n)
        yield start, par, nod


def classify_rows_bitset(
    enum: AntichainEnumerator,
    labels: Sequence[int],
    max_size: int,
    span_limit: int | None,
    root_groups: Sequence[Sequence[int]],
    *,
    max_count: int | None = DEFAULT_MAX_COUNT,
) -> list[list[tuple]]:
    """Classify several seed groups in one BFS pass, as sparse bucket rows.

    Returns one row list per group: ``(bag_key, count, first_seen,
    values)`` per bag in first-visit order, ``values`` aligned with
    ``first_seen`` — the classification the scalar
    ``enum.classify_by_label(..., roots=root_groups[g])`` gives, bit for
    bit, in the sparse plain-int form partition caches and the shard wire
    carry.  The groups' frontiers run side by side: a bucket is
    ``(group, bag)`` rather than ``bag``, and the positional keys are
    global, so each group's bag order and ``first_seen`` come out exactly
    as a separate call would give them, while the per-depth numpy work is
    paid once per pass instead of once per group.

    ``max_count`` bounds the antichains of the *whole pass*, summed over
    its groups; overflowing it raises the error merging the groups would
    raise.  Without the vectorized core every group runs the scalar
    classifier on its own (and a group only fails on its own overflow).
    """
    if not bitset_supported(enum.dfg.n_nodes, max_size):
        out = []
        for roots in root_groups:
            buckets = enum.classify_by_label(
                labels, max_size, span_limit, max_count=max_count, roots=roots
            )
            out.append(
                [
                    (
                        key,
                        cls.count,
                        list(cls.first_seen),
                        [int(cls.frequencies[i]) for i in cls.first_seen],
                    )
                    for key, cls in buckets.items()
                ]
            )
        return out
    return _bitset_pass(
        enum, labels, max_size, span_limit, root_groups, max_count=max_count
    )


def _bitset_pass(
    enum: AntichainEnumerator,
    labels: Sequence[int],
    max_size: int,
    span_limit: int | None,
    root_groups: Sequence[Sequence[int]],
    *,
    max_count: int | None = DEFAULT_MAX_COUNT,
) -> list[list[tuple]]:
    """The vectorized core: one BFS by cardinality over ``root_groups``.

    Returns ``rows``: ``rows[g]`` is group ``g``'s sparse bucket rows
    (see :func:`classify_rows_bitset`).  Requires
    :func:`bitset_supported`.
    """
    dfg = enum.dfg
    n = dfg.n_nodes
    enum._check_bounds(max_size, 1, span_limit)
    if len(labels) != n:
        raise GraphError(f"labels has {len(labels)} entries for {n} nodes")

    group_seeds: list[list[int]] = []
    for roots in root_groups:
        seed_ids = sorted(set(roots))
        for r in seed_ids:
            if not 0 <= r < n:
                raise GraphError(f"root index {r} out of range for {n} nodes")
        group_seeds.append(seed_ids)
    if not any(group_seeds):
        return [[] for _ in root_groups]

    inc, words = packed_incomparable_rows(dfg)
    labels_arr = np.asarray(labels, dtype=np.int64)
    n_labels = int(labels_arr.max()) + 1
    # Zero-padded positional weights: position d contributes
    # (node + 1) * (n+1)^(max_size-1-d); prefix < all of its extensions.
    scale = [(n + 1) ** (max_size - 1 - d) for d in range(max_size)]

    # Bag/bucket bookkeeping (python-level, touched once per *new*
    # (bucket, label) transition — never once per antichain).  A bucket
    # is one bag of one group.
    bag_keys: list[tuple[int, ...]] = []
    bag_group: list[int] = []
    bag_lookup: dict[tuple[int, tuple[int, ...]], int] = {}

    def bucket_of(group: int, bag: tuple[int, ...]) -> int:
        b = bag_lookup.get((group, bag))
        if b is None:
            b = len(bag_keys)
            bag_lookup[group, bag] = b
            bag_keys.append(bag)
            bag_group.append(group)
        return b

    # Depth-1 frontier: every group's seeds, group after group.
    seeds = [i for group in group_seeds for i in group]
    nodes_d = np.asarray(seeds, dtype=np.int64)
    parent_d = np.full(len(seeds), -1, dtype=np.int64)
    bucket_d = np.asarray(
        [
            bucket_of(g, (int(labels_arr[i]),))
            for g, group in enumerate(group_seeds)
            for i in group
        ],
        dtype=np.int64,
    )
    pk_d = (nodes_d + 1) * np.int64(scale[0])
    allowed_d = inc[nodes_d] if max_size > 1 else None

    # Span windows: a frame's allowed row only ever holds the children
    # that keep it within ``span_limit``.  With running ``(mx, mn) =
    # (max ASAP, min ALAP)`` and ``mx - mn <= L``, a child ``c`` keeps
    # ``max(mx, ASAP[c]) - min(mn, ALAP[c]) <= L`` iff ``ASAP[c] <= mn + L``
    # and ``ALAP[c] >= mx - L`` (``ASAP[c] <= ALAP[c]`` covers the last
    # term), i.e. iff ``c`` is in the two prefix rows ANDed below.  A
    # child's window is inside its parent's, so masking each new row
    # once keeps every allowed row span-feasible, and expansion emits
    # exactly the kept pairs in the same order.
    windowed = span_limit is not None and allowed_d is not None
    if windowed:
        early, late, top = packed_level_windows(dfg)
        asap = np.asarray(enum._asap, dtype=np.int64)
        alap = np.asarray(enum._alap, dtype=np.int64)

        def to_window(rows, mx, mn) -> None:
            rows &= early[np.minimum(mn + span_limit, top)]
            rows &= late[np.maximum(mx - span_limit, 0)]

        mx_d = asap[nodes_d]
        mn_d = alap[nodes_d]
        to_window(allowed_d, mx_d, mn_d)

    # Per-bucket accumulators, grown geometrically as bags appear.
    cap = 16
    cnt = np.zeros(cap, dtype=np.int64)
    minpk = np.full(cap, _INT64_MAX, dtype=np.int64)
    freq2d = np.zeros((cap, n), dtype=np.int64)
    minpk_node = np.full((cap, n), _INT64_MAX, dtype=np.int64)

    def grow(needed: int) -> None:
        nonlocal cap, cnt, minpk, freq2d, minpk_node
        if needed <= cap:
            return
        new_cap = cap
        while new_cap < needed:
            new_cap *= 2
        cnt = np.concatenate([cnt, np.zeros(new_cap - cap, dtype=np.int64)])
        minpk = np.concatenate(
            [minpk, np.full(new_cap - cap, _INT64_MAX, dtype=np.int64)]
        )
        freq2d = np.vstack(
            [freq2d, np.zeros((new_cap - cap, n), dtype=np.int64)]
        )
        minpk_node = np.vstack(
            [minpk_node, np.full((new_cap - cap, n), _INT64_MAX, dtype=np.int64)]
        )
        cap = new_cap

    hist: list[tuple] = []  # (nodes, parent) per completed depth
    produced = 0
    depth = 1
    while True:
        grow(len(bag_keys))
        produced += len(nodes_d)
        if max_count is not None and produced > max_count:
            raise enum._limit_error(max_count, max_size, span_limit)
        np.add.at(cnt, bucket_d, 1)
        np.minimum.at(minpk, bucket_d, pk_d)
        # Frequency + first-seen scatter for every member of every frame:
        # the last member directly, earlier members through the
        # parent-frame chain (one gather per ancestor level).  Flat
        # ``bucket * n + member`` codes keep ``ufunc.at`` on its 1-D fast
        # path; the views are taken after ``grow`` because it reallocates
        # both matrices.
        freq_flat = freq2d.reshape(-1)
        minpk_flat = minpk_node.reshape(-1)
        row0 = bucket_d * np.int64(n)
        code = row0 + nodes_d
        np.add.at(freq_flat, code, 1)
        np.minimum.at(minpk_flat, code, pk_d)
        idx = parent_d
        for d2 in range(depth - 1, 0, -1):
            nd, pd = hist[d2 - 1]
            code = row0 + nd[idx]
            np.add.at(freq_flat, code, 1)
            np.minimum.at(minpk_flat, code, pk_d)
            idx = pd[idx]
        if depth == max_size:
            break

        # Expand the frontier one node deeper (chunked; see _expand_rows).
        hist.append((nodes_d, parent_d))
        par_parts: list = []
        nod_parts: list = []
        kept = 0
        for offset, par, nod in _expand_rows(allowed_d, words, n):
            if not len(par):
                continue
            if offset:
                par = par + offset
            kept += len(par)
            if max_count is not None and produced + kept > max_count:
                # Every kept child is counted at the next depth; raising
                # is already inevitable — do it before materializing more.
                raise enum._limit_error(max_count, max_size, span_limit)
            par_parts.append(par)
            nod_parts.append(nod)
        if not kept:
            break
        parents = par_parts[0] if len(par_parts) == 1 else np.concatenate(par_parts)
        children = nod_parts[0] if len(nod_parts) == 1 else np.concatenate(nod_parts)

        # Bag transitions: mark the (bucket, label) pair codes in a dense
        # table first so the python work scales with distinct transitions,
        # not frames.  Resolving them in ascending code order numbers new
        # buckets exactly as a sorted dedupe would.  A bucket's bag size
        # is its depth, so no pair recurs at a later depth and each
        # distinct pair is resolved exactly once.
        pair = bucket_d[parents] * np.int64(n_labels) + labels_arr[children]
        seen = np.zeros(len(bag_keys) * n_labels, dtype=bool)
        seen[pair] = True
        codes = np.flatnonzero(seen)
        lut = np.zeros(len(seen), dtype=np.int64)
        lut[codes] = [
            bucket_of(bag_group[pb], tuple(sorted(bag_keys[pb] + (lab,))))
            for pb, lab in (divmod(c, n_labels) for c in codes.tolist())
        ]

        # Only frames that expand again need a row, and only windowed
        # rows need the running levels.
        nxt_allowed = None
        if depth + 1 < max_size:
            nxt_allowed = allowed_d[parents] & inc[children]
            if windowed:
                mx_d = np.maximum(mx_d[parents], asap[children])
                mn_d = np.minimum(mn_d[parents], alap[children])
                to_window(nxt_allowed, mx_d, mn_d)
        pk_d = pk_d[parents] + (children + 1) * np.int64(scale[depth])
        bucket_d = lut[pair]
        parent_d = parents
        nodes_d = children
        allowed_d = nxt_allowed
        depth += 1

    # Assembly: reconstruct the scalar first-visit orders from the keys,
    # for every bucket at once.  Buckets sort by first-visit key, so each
    # group's own subsequence is its scalar bag order; within a bucket,
    # (first-visit key, node) orders ``first_seen``.
    live = np.flatnonzero(cnt[:len(bag_keys)])
    order = live[np.argsort(minpk[live], kind="stable")]
    freq = freq2d[order]
    row, node = np.nonzero(freq)
    node = node[np.lexsort((node, minpk_node[order[row], node], row))]
    first_seen = node.tolist()
    values = freq[row, node].tolist()
    ends = np.cumsum(np.count_nonzero(freq, axis=1)).tolist()
    counts = cnt[order].tolist()
    rows: list[list[tuple]] = [[] for _ in root_groups]
    start = 0
    for k, b in enumerate(order.tolist()):
        end = ends[k]
        rows[bag_group[b]].append(
            (bag_keys[b], counts[k], first_seen[start:end], values[start:end])
        )
        start = end
    return rows
