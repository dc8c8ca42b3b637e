"""Pluggable cache stores behind the service's three cache levels.

:class:`~repro.service.service.SchedulerService` historically kept its
catalog/selection/result caches in private in-memory LRUs; this module
turns that storage decision into a seam:

:class:`MemoryCacheStore`
    The exact previous behaviour — a keyed LRU with
    most-recently-*used* eviction order.  The default.

:class:`DiskCacheStore`
    A disk-backed store: a ``put`` writes the value to a JSON file under
    ``<directory>/<namespace>/`` (atomically — temp file + ``os.replace``)
    unless that file already exists, and a ``get`` that misses the
    in-process memory front falls back to reading it from disk.  File
    names are :func:`repro.dfg.io.stable_key_digest` of the structured
    cache key, so two independent service instances — or one service
    across a restart — derive the same file for the same key: catalogs
    survive restarts and can be shared between shard instances via a
    common cache directory.

    Each file is written once.  Keys are content-addressed and a key's
    value is bit-identical whoever computes it, so a ``put`` over an
    existing file only refreshes its mtime: it neither encodes nor
    rewrites it.  (A fleet coordinator writing back a partial its shard
    already stored in the same directory pays one ``utime``.)  Corrupt,
    truncated or foreign files are misses, never errors: the ``get``
    that finds one removes it, so the next ``put`` writes the file
    again.  Two first writers racing on one key both write; that is
    harmless, because each ``os.replace`` installs a whole, identical
    file.  With ``max_bytes`` set, each ``put`` that writes prunes the
    namespace back under its byte budget, least-recently-used first
    (hits and skipped puts refresh the file's mtime, so recency survives
    process restarts); without it the directory grows without bound and
    :func:`gc_cache_dir` (CLI: ``repro cache-gc``) is the out-of-band
    pruner.

Values are domain objects (:class:`~repro.patterns.enumeration.PatternCatalog`,
:class:`~repro.core.selection.SelectionResult`,
:class:`~repro.service.jobs.JobResult`, shard partial-classification
bucket lists); the disk store serialises them through the same lossless
converters as the HTTP wire format (:mod:`repro.service.serialize`), so
a value read back from disk is bit-identical to the one computed —
Counter insertion order included.

Shard partials deserve a note on their keys: they are addressed by the
*partition's* subgraph digest
(:func:`repro.service.service.shard_partial_key`, built on
:func:`repro.dfg.io.subgraph_digest`) rather than the whole graph's
digest, so a graph edit invalidates only the partitions whose DFS
subtrees can observe it — the rest keep answering from memory, disk and
sibling instances bit-identically.  That partition-granular survival is
what makes the service's warm-edit rebuild O(dirty region).
"""

from __future__ import annotations

import itertools
import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable

from repro.dfg.io import from_payload, stable_key_digest, to_payload
from repro.exceptions import ServiceError
from repro.service.jobs import JobResult
from repro.service.serialize import (
    catalog_from_dict,
    catalog_to_dict,
    selection_result_from_dict,
    selection_result_to_dict,
)

__all__ = [
    "CacheStore",
    "MemoryCacheStore",
    "DiskCacheStore",
    "open_cache_stores",
    "gc_cache_dir",
]

#: On-disk payload format version; bump to invalidate old cache files.
DISK_FORMAT = 1


class CacheStore:
    """The storage contract behind one service cache level.

    A store maps hashable structured keys to values.  ``get`` returns
    ``None`` on a miss (values are never ``None``), ``put`` inserts or
    replaces.  Implementations are free to evict; the service treats any
    eviction as an ordinary miss.
    """

    def get(self, key: Any) -> Any | None:
        raise NotImplementedError

    def get_resident(self, key: Any) -> Any | None:
        """``get`` answered from process memory alone, never from a file.

        A hit refreshes recency as ``get`` does.  A store without an
        in-process front answers ``None``.
        """
        return None

    def put(self, key: Any, value: Any) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __contains__(self, key: Any) -> bool:
        return self.get(key) is not None

    def clear(self) -> None:
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        """Occupancy/config summary for :meth:`SchedulerService.describe`."""
        return {"kind": type(self).__name__, "size": len(self)}


class MemoryCacheStore(CacheStore):
    """A small keyed LRU (most-recently-*used* eviction order).

    This is the service's historical ``_LRU`` verbatim: ``get`` refreshes
    recency, ``put`` inserts most-recent and evicts from the least
    recently used end until within ``maxsize``.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ServiceError(f"cache size must be ≥ 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Any, Any] = OrderedDict()

    def get(self, key: Any) -> Any | None:
        try:
            self._data.move_to_end(key)
        except KeyError:
            return None
        return self._data[key]

    def get_resident(self, key: Any) -> Any | None:
        return self.get(key)

    def put(self, key: Any, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()

    def keys(self) -> list[Any]:
        """Current keys, least recently used first (tests/observability)."""
        return list(self._data)

    def describe(self) -> dict[str, Any]:
        return {
            "kind": "memory",
            "size": len(self),
            "max": self.maxsize,
        }


class DiskCacheStore(CacheStore):
    """A write-once disk store with an in-process LRU front.

    ``put`` installs the value in the memory front and writes its file
    only when the file is missing; ``get`` removes a file it cannot use,
    so the next ``put`` heals it (see the module docstring).

    Parameters
    ----------
    directory:
        Root cache directory (shared by all namespaces; created eagerly).
    namespace:
        Cache level name (``"catalog"`` / ``"selection"`` / ``"result"``)
        — each namespace is its own subdirectory.
    encode / decode:
        Lossless value ↔ JSON-safe-dict converters for this namespace.
    memory_size:
        Size of the in-process LRU front (decoded objects; a warm hit in
        the same process never re-reads the file).
    max_bytes:
        Optional byte budget for this namespace's directory.  When this
        instance's writes push the directory past it, the least recently
        *used* files (by mtime — refreshed on every hit) are pruned
        until the directory fits again.  Enforcement is per instance:
        on a directory shared between processes, another instance's
        writes are only counted when a prune's directory scan runs —
        use :func:`gc_cache_dir` (``repro cache-gc``) for a strict
        multi-writer budget.  ``None`` (default) never prunes.
    """

    _tmp_ids = itertools.count()

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        namespace: str,
        *,
        encode: Callable[[Any], dict],
        decode: Callable[[dict], Any],
        memory_size: int = 64,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ServiceError(
                f"max_bytes must be ≥ 1 (or None), got {max_bytes}"
            )
        self.directory = Path(directory) / namespace
        self.namespace = namespace
        self.maxsize = memory_size
        self.max_bytes = max_bytes
        self._encode = encode
        self._decode = decode
        self._memory = MemoryCacheStore(memory_size)
        # Running namespace-size estimate for max_bytes enforcement
        # (None = not yet scanned).  Only written files count, so a put
        # over an existing file adds nothing; a file healed by get and
        # put over-counts once (prune early, never late); sibling
        # instances writing to a shared directory are invisible until
        # the next prune, whose full directory scan re-syncs the
        # estimate with reality — so the budget is enforced strictly per
        # instance and only eventually for a shared directory
        # (`gc_cache_dir` / `repro cache-gc` is the strict multi-writer
        # pruner).  The walk runs when the estimate crosses the budget,
        # not on every put.
        self._disk_bytes: int | None = None
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    def path_for(self, key: Any) -> Path:
        """The cache file a key maps to (stable across processes)."""
        return self.directory / f"{stable_key_digest(key)}.json"

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh a cache file's mtime (missing/unwritable = no-op).

        Every hit — memory front included — touches the file so
        LRU-by-mtime pruning (this store's ``max_bytes``, a sibling
        instance's, or an out-of-band ``repro cache-gc``) sees recency
        across processes and restarts.  Were only disk reads to touch,
        the hottest entries (always answered by the memory front) would
        look coldest on disk and be pruned first.
        """
        try:
            os.utime(path)
        except OSError:
            pass

    def get_resident(self, key: Any) -> Any | None:
        # The memory front stores (path, value): the resolved path rides
        # along so a warm hit pays one utime, not a key re-digest.
        entry = self._memory.get(key)
        if entry is None:
            return None
        path, value = entry
        self._touch(path)
        return value

    def get(self, key: Any) -> Any | None:
        value = self.get_resident(key)
        if value is not None:
            return value
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if (
                not isinstance(payload, dict)
                or payload.get("format") != DISK_FORMAT
                or payload.get("namespace") != self.namespace
            ):
                raise ValueError("not a cache file of this namespace")
            value = self._decode(payload["value"])
        except FileNotFoundError:
            return None
        except Exception:
            # Corrupt, truncated or foreign file: a miss, never an error.
            # Remove it, or the next put would find it and skip the write.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        self._touch(path)
        self._memory.put(key, (path, value))
        return value

    def put(self, key: Any, value: Any) -> None:
        path = self.path_for(key)
        self._memory.put(key, (path, value))
        # The mtime refresh doubles as the existence probe: a file that
        # is already there holds this value (write once), so only a
        # missing one is encoded and written.
        try:
            os.utime(path)
            return
        except FileNotFoundError:
            pass
        except OSError:
            return  # there, but not ours to touch: nothing to write either
        payload = {
            "format": DISK_FORMAT,
            "namespace": self.namespace,
            "value": self._encode(value),
        }
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(self._tmp_ids)}.tmp")
        body = json.dumps(payload, separators=(",", ":"))
        try:
            tmp.write_text(body, encoding="utf-8")
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            msg = f"cannot persist cache entry to {path}: {exc}"
            raise ServiceError(msg) from exc
        if self.max_bytes is not None:
            if self._disk_bytes is None:
                total = 0
                for p in self.directory.glob("*.json"):
                    try:
                        total += p.stat().st_size
                    except OSError:
                        continue
                self._disk_bytes = total
            else:
                self._disk_bytes += len(body)
            if self._disk_bytes > self.max_bytes:
                stats = _prune_lru(
                    self.directory.glob("*.json"), self.max_bytes
                )
                self._disk_bytes = stats["kept_bytes"]

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def __contains__(self, key: Any) -> bool:
        """A cheap look: memory front or file present, never a decode.

        A file ``get`` would reject still counts until a ``get`` removes
        it; a caller that acts on the answer probes with ``get``.
        """
        return key in self._memory or self.path_for(key).exists()

    def clear(self) -> None:
        self._memory.clear()
        for path in self.directory.glob("*.json"):
            path.unlink(missing_ok=True)
        self._disk_bytes = 0 if self.max_bytes is not None else None

    def describe(self) -> dict[str, Any]:
        return {
            "kind": "disk",
            "size": len(self),
            "max": self.maxsize,
            "max_bytes": self.max_bytes,
            "directory": str(self.directory),
        }


# --------------------------------------------------------------------------- #
# eviction / GC
# --------------------------------------------------------------------------- #
def _prune_lru(
    paths: "Any", max_bytes: int, *, dry_run: bool = False
) -> dict[str, int]:
    """Prune ``paths`` oldest-mtime-first until their total fits ``max_bytes``.

    Files that vanish mid-scan (a concurrent writer's ``os.replace``, a
    parallel GC) are skipped, never errors.  Returns counters:
    ``files``/``bytes`` scanned, ``removed``/``removed_bytes`` pruned
    (with ``dry_run`` nothing is unlinked but the counters report what
    would have been).
    """
    entries: list[tuple[float, str, int, Path]] = []
    total = 0
    for path in paths:
        try:
            st = path.stat()
        except OSError:
            continue
        # Path as the mtime tie-break keeps pruning deterministic on
        # filesystems with coarse timestamps.
        entries.append((st.st_mtime, str(path), st.st_size, path))
        total += st.st_size
    entries.sort()
    removed = removed_bytes = 0
    kept = total
    for _mtime, _name, size, path in entries:
        if kept <= max_bytes:
            break
        if not dry_run:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                continue
        removed += 1
        removed_bytes += size
        kept -= size
    return {
        "files": len(entries),
        "bytes": total,
        "removed": removed,
        "removed_bytes": removed_bytes,
        "kept_bytes": kept,
    }


def gc_cache_dir(
    directory: "str | os.PathLike[str]",
    max_bytes: int,
    *,
    dry_run: bool = False,
) -> dict[str, Any]:
    """Prune a whole service cache directory to a byte budget (CLI backend).

    Walks every namespace subdirectory under ``directory`` (catalog /
    selection / result / shard — anything holding ``*.json`` cache
    files) and deletes least-recently-used files across all of them until
    the combined size fits ``max_bytes``; a hot shard partial outlives a
    cold catalog regardless of namespace.  Safe against live services on
    the same directory: a pruned entry is simply that service's next
    cache miss.  Returns the :func:`_prune_lru` counters plus the
    directory.
    """
    if max_bytes < 0:
        raise ServiceError(f"max_bytes must be ≥ 0, got {max_bytes}")
    root = Path(directory)
    if not root.is_dir():
        raise ServiceError(f"cache directory {root} does not exist")
    stats = _prune_lru(root.rglob("*.json"), max_bytes, dry_run=dry_run)
    stats["directory"] = str(root)
    stats["dry_run"] = dry_run
    return stats


# --------------------------------------------------------------------------- #
# per-level value codecs
# --------------------------------------------------------------------------- #
# Catalogs and selections reference their DFG; the graph payload is
# embedded so a cold process (or another service instance) can rebuild
# the object without the original graph in hand.
def _encode_catalog(catalog: Any) -> dict:
    return {
        "dfg": to_payload(catalog.dfg),
        "catalog": catalog_to_dict(catalog),
    }


def _decode_catalog(payload: dict) -> Any:
    return catalog_from_dict(payload["catalog"], from_payload(payload["dfg"]))


def _encode_selection(selection: Any) -> dict:
    return {
        "dfg": to_payload(selection.catalog.dfg),
        "selection": selection_result_to_dict(selection),
    }


def _decode_selection(payload: dict) -> Any:
    return selection_result_from_dict(
        payload["selection"], from_payload(payload["dfg"])
    )


# Shard partials are already wire-shaped: ``(bag_key, count, first_seen,
# values)`` tuples of ints (see SchedulerService.classify_shard), so the
# codec only swaps tuples ↔ lists.  No graph payload is embedded — the
# cache key carries the dfg digest, and a partial is only ever merged
# against the graph it was keyed under.
def _encode_shard_parts(buckets: Any) -> dict:
    return {
        "buckets": [
            [list(key), count, list(order), list(values)]
            for key, count, order, values in buckets
        ]
    }


def _decode_shard_parts(payload: dict) -> Any:
    return [
        (tuple(key), count, list(order), list(values))
        for key, count, order, values in payload["buckets"]
    ]


def open_cache_stores(
    cache_dir: "str | os.PathLike[str] | None",
    *,
    catalog_size: int,
    selection_size: int,
    result_size: int,
    shard_size: int = 256,
    max_bytes: int | None = None,
) -> tuple[CacheStore, CacheStore, CacheStore, CacheStore]:
    """The service's four cache stores, disk-backed when ``cache_dir`` is set.

    Returns ``(catalogs, selections, results, shard_parts)``.  With
    ``cache_dir=None`` each level is a plain :class:`MemoryCacheStore`
    (the historical behaviour); otherwise each level is a
    :class:`DiskCacheStore` under its own namespace with the LRU size as
    its memory front and ``max_bytes`` (when set) as each namespace's
    byte budget.
    """
    if cache_dir is None:
        return (
            MemoryCacheStore(catalog_size),
            MemoryCacheStore(selection_size),
            MemoryCacheStore(result_size),
            MemoryCacheStore(shard_size),
        )
    return (
        DiskCacheStore(
            cache_dir,
            "catalog",
            encode=_encode_catalog,
            decode=_decode_catalog,
            memory_size=catalog_size,
            max_bytes=max_bytes,
        ),
        DiskCacheStore(
            cache_dir,
            "selection",
            encode=_encode_selection,
            decode=_decode_selection,
            memory_size=selection_size,
            max_bytes=max_bytes,
        ),
        DiskCacheStore(
            cache_dir,
            "result",
            encode=lambda r: r.to_dict(),
            decode=JobResult.from_dict,
            memory_size=result_size,
            max_bytes=max_bytes,
        ),
        DiskCacheStore(
            cache_dir,
            "shard",
            encode=_encode_shard_parts,
            decode=_decode_shard_parts,
            memory_size=shard_size,
            max_bytes=max_bytes,
        ),
    )
