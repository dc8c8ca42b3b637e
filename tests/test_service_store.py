"""Cache-store seam tests: LRU semantics, disk persistence, corruption.

Pins the :mod:`repro.service.store` contract:

* :class:`MemoryCacheStore` preserves the historical LRU eviction order
  through the :class:`CacheStore` interface;
* :class:`DiskCacheStore` round-trips a :class:`JobResult` bit-identically
  (bytes-equal JSON) and survives a "restart" (a fresh store instance on
  the same directory);
* corrupt / truncated / foreign cache files are treated as misses, never
  errors: the ``get`` that finds one removes it and the next ``put``
  writes it again;
* each file is written once: a ``put`` over an existing file only
  refreshes its mtime and the memory front, never re-encodes or rewrites;
* two services sharing one ``cache_dir`` serve each other's warm hits —
  including over HTTP across a server restart (``X-Repro-Cache: result``);
* ``max_bytes`` eviction prunes least-recently-used files (mtime order,
  refreshed by disk reads) and :func:`repro.service.store.gc_cache_dir`
  does the same across every namespace of a cache directory (CLI:
  ``repro cache-gc``).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.config import SelectionConfig
from repro.exceptions import ServiceError
from repro.service import (
    AsyncServiceServer,
    JobRequest,
    SchedulerService,
    ServiceClient,
)
from repro.service.jobs import JobResult
from repro.service.store import (
    DiskCacheStore,
    MemoryCacheStore,
    gc_cache_dir,
    open_cache_stores,
)

CFG = SelectionConfig(span_limit=1)


def _job(pdef=4, **kwargs):
    kwargs.setdefault("workload", "3dft")
    kwargs.setdefault("config", CFG)
    return JobRequest(capacity=5, pdef=pdef, **kwargs)


def _result_store(tmp_path) -> DiskCacheStore:
    return DiskCacheStore(
        tmp_path,
        "result",
        encode=lambda r: r.to_dict(),
        decode=JobResult.from_dict,
        memory_size=4,
    )


# --------------------------------------------------------------------------- #
# memory store: the historical LRU, behind the seam
# --------------------------------------------------------------------------- #
class TestMemoryCacheStore:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ServiceError, match="cache size"):
            MemoryCacheStore(0)

    def test_evicts_least_recently_used(self):
        store = MemoryCacheStore(2)
        store.put("a", 1)
        store.put("b", 2)
        store.put("c", 3)
        assert store.get("a") is None
        assert store.keys() == ["b", "c"]

    def test_get_refreshes_recency(self):
        store = MemoryCacheStore(2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1  # a becomes most recent
        store.put("c", 3)
        assert store.get("b") is None
        assert store.get("a") == 1 and store.get("c") == 3

    def test_put_refreshes_recency(self):
        store = MemoryCacheStore(2)
        store.put("a", 1)
        store.put("b", 2)
        store.put("a", 10)  # overwrite refreshes too
        store.put("c", 3)
        assert store.get("b") is None
        assert store.get("a") == 10

    def test_len_contains_clear(self):
        store = MemoryCacheStore(4)
        store.put(("k", 1), "v")
        assert len(store) == 1 and ("k", 1) in store
        store.clear()
        assert len(store) == 0 and ("k", 1) not in store

    def test_describe(self):
        store = MemoryCacheStore(4)
        assert store.describe() == {"kind": "memory", "size": 0, "max": 4}


# --------------------------------------------------------------------------- #
# disk store
# --------------------------------------------------------------------------- #
class TestDiskCacheStore:
    @pytest.fixture()
    def result(self):
        with SchedulerService() as service:
            return service.submit(_job())

    def test_job_result_round_trips_bytes_equal(self, tmp_path, result):
        store = _result_store(tmp_path)
        store.put(result.job_key, result)
        again = store.get(result.job_key)
        assert again.to_json() == result.to_json()

    def test_survives_restart(self, tmp_path, result):
        _result_store(tmp_path).put(result.job_key, result)
        # A fresh store instance = a restarted process: the memory front
        # is cold, the file is the source of truth.
        again = _result_store(tmp_path).get(result.job_key)
        assert again is not None
        assert again.to_json() == result.to_json()

    def test_miss_returns_none(self, tmp_path):
        assert _result_store(tmp_path).get("absent") is None

    @pytest.mark.parametrize(
        "garbage",
        [
            b"not json at all {{{",
            b"",  # zero-byte file (e.g. a crashed writer)
            b'{"format": 1, "namespace": "result"',  # truncated
            b'{"format": 99, "namespace": "result", "value": {}}',
            b'{"format": 1, "namespace": "catalog", "value": {}}',
            b'{"format": 1, "namespace": "result", "value": {"nope": 1}}',
            b"[1, 2, 3]",
        ],
    )
    def test_corrupt_or_foreign_files_are_misses(self, tmp_path, result, garbage):
        store = _result_store(tmp_path)
        store.put(result.job_key, result)
        store.path_for(result.job_key).write_bytes(garbage)
        fresh = _result_store(tmp_path)  # cold memory front
        assert fresh.get(result.job_key) is None
        # The miss removed the unusable file, so the next put writes it
        # again (a put over an existing file would skip the write)...
        assert not fresh.path_for(result.job_key).exists()
        fresh.put(result.job_key, result)
        assert fresh.get(result.job_key).to_json() == result.to_json()
        # ...and a third instance reads the healed file back from disk.
        third = _result_store(tmp_path)
        assert third.get(result.job_key).to_json() == result.to_json()

    def test_contains_len_clear(self, tmp_path, result):
        store = _result_store(tmp_path)
        store.put(result.job_key, result)
        assert result.job_key in store and len(store) == 1
        assert store.describe()["kind"] == "disk"
        store.clear()
        assert result.job_key not in store and len(store) == 0

    def test_namespaces_are_disjoint(self, tmp_path, result):
        a = _result_store(tmp_path)
        b = DiskCacheStore(
            tmp_path,
            "other",
            encode=lambda r: r.to_dict(),
            decode=JobResult.from_dict,
        )
        a.put("k", result)
        assert b.get("k") is None

    def test_open_cache_stores_kinds(self, tmp_path):
        mem = open_cache_stores(None, catalog_size=2, selection_size=2, result_size=2)
        assert all(isinstance(s, MemoryCacheStore) for s in mem)
        disk = open_cache_stores(
            tmp_path, catalog_size=2, selection_size=2, result_size=2
        )
        assert [s.namespace for s in disk] == [
            "catalog",
            "selection",
            "result",
            "shard",
        ]


# --------------------------------------------------------------------------- #
# eviction and GC
# --------------------------------------------------------------------------- #
def _int_store(tmp_path, **kwargs) -> DiskCacheStore:
    kwargs.setdefault("encode", lambda v: {"v": v})
    return DiskCacheStore(
        tmp_path,
        "ints",
        decode=lambda d: d["v"],
        memory_size=2,
        **kwargs,
    )


def _age(path, seconds) -> None:
    """Backdate a cache file's mtime (mtime-resolution-proof recency)."""
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestDiskEviction:
    def test_rejects_non_positive_budget(self, tmp_path):
        with pytest.raises(ServiceError, match="max_bytes"):
            _int_store(tmp_path, max_bytes=0)

    def test_put_prunes_least_recently_used(self, tmp_path):
        store = _int_store(tmp_path)
        for k in range(3):
            store.put(k, k)
            _age(store.path_for(k), seconds=300 - k)
        one_file = store.path_for(0).stat().st_size
        capped = _int_store(tmp_path, max_bytes=2 * one_file + 1)
        capped.put(3, 3)
        # Budget fits two files: the oldest entries went first.
        assert len(capped) == 2
        assert not capped.path_for(0).exists()
        assert not capped.path_for(1).exists()
        assert capped.path_for(3).exists()

    def test_memory_front_hit_refreshes_recency(self, tmp_path):
        # A hot entry is always answered by the in-process memory front;
        # its file's mtime must still advance, or pruning (here or in a
        # sibling instance / cache-gc) would evict the hottest entries
        # first.
        store = _int_store(tmp_path)
        store.put("hot", 1)
        store.put("cold", 2)
        _age(store.path_for("hot"), seconds=600)
        _age(store.path_for("cold"), seconds=300)
        assert store.get("hot") == 1  # memory-front hit
        assert (
            store.path_for("hot").stat().st_mtime
            > store.path_for("cold").stat().st_mtime
        )

    def test_disk_read_refreshes_recency(self, tmp_path):
        store = _int_store(tmp_path)
        store.put("old", 1)
        store.put("newer", 2)
        _age(store.path_for("old"), seconds=600)
        _age(store.path_for("newer"), seconds=300)
        # A cold-front read of "old" must bump it ahead of "newer".
        fresh = _int_store(tmp_path)
        assert fresh.get("old") == 1
        one_file = store.path_for("old").stat().st_size
        capped = _int_store(tmp_path, max_bytes=2 * one_file + 1)
        capped.put("k", 3)
        assert capped.path_for("old").exists()
        assert not capped.path_for("newer").exists()

    def test_describe_reports_budget(self, tmp_path):
        assert _int_store(tmp_path).describe()["max_bytes"] is None
        assert _int_store(tmp_path, max_bytes=10).describe()["max_bytes"] == 10


class TestGcCacheDir:
    def _populate(self, tmp_path) -> list:
        paths = []
        for ns in ("catalog", "shard"):
            store = DiskCacheStore(
                tmp_path, ns,
                encode=lambda v: {"v": v},
                decode=lambda d: d["v"],
            )
            for k in range(2):
                store.put(k, f"{ns}-{k}")
                paths.append(store.path_for(k))
        for age, path in enumerate(paths):
            _age(path, seconds=600 - 100 * age)
        return paths

    def test_prunes_across_namespaces_oldest_first(self, tmp_path):
        paths = self._populate(tmp_path)
        sizes = [p.stat().st_size for p in paths]
        stats = gc_cache_dir(tmp_path, max_bytes=sum(sizes[2:]))
        assert stats["files"] == 4 and stats["removed"] == 2
        # The two oldest files died regardless of namespace.
        assert not paths[0].exists() and not paths[1].exists()
        assert paths[2].exists() and paths[3].exists()
        assert stats["kept_bytes"] <= sum(sizes[2:])

    def test_dry_run_removes_nothing(self, tmp_path):
        paths = self._populate(tmp_path)
        stats = gc_cache_dir(tmp_path, max_bytes=0, dry_run=True)
        assert stats["removed"] == 4 and stats["dry_run"] is True
        assert all(p.exists() for p in paths)

    def test_zero_budget_empties_the_dir(self, tmp_path):
        paths = self._populate(tmp_path)
        stats = gc_cache_dir(tmp_path, max_bytes=0)
        assert stats["removed"] == 4 and stats["kept_bytes"] == 0
        assert not any(p.exists() for p in paths)

    def test_missing_directory_is_typed(self, tmp_path):
        with pytest.raises(ServiceError, match="does not exist"):
            gc_cache_dir(tmp_path / "nope", max_bytes=10)

    def test_pruned_entry_is_just_a_miss(self, tmp_path):
        store = _int_store(tmp_path)
        store.put("k", 42)
        gc_cache_dir(tmp_path, max_bytes=0)
        fresh = _int_store(tmp_path)  # cold memory front
        assert fresh.get("k") is None
        fresh.put("k", 42)
        assert fresh.get("k") == 42


# --------------------------------------------------------------------------- #
# write once
# --------------------------------------------------------------------------- #
class TestWriteOnce:
    def test_put_over_an_existing_file_skips_encode_and_write(self, tmp_path):
        first = _int_store(tmp_path)
        first.put("k", 7)
        path = first.path_for("k")
        _age(path, seconds=600)
        before = path.stat()
        body = path.read_bytes()

        def refuse(value):
            raise AssertionError("a put over an existing file encoded")

        other = _int_store(tmp_path, encode=refuse)
        other.put("k", 7)
        after = path.stat()
        assert path.read_bytes() == body
        assert after.st_ino == before.st_ino
        assert after.st_mtime > before.st_mtime
        assert other.get_resident("k") == 7

    def test_skipped_put_adds_nothing_to_the_byte_estimate(self, tmp_path):
        store = _int_store(tmp_path, max_bytes=10_000)
        store.put("a", 1)
        store.put("b", 2)
        on_disk = sum(p.stat().st_size for p in store.directory.glob("*.json"))
        assert store._disk_bytes == on_disk
        for _ in range(3):
            store.put("a", 1)
            store.put("b", 2)
        assert store._disk_bytes == on_disk

    def test_file_vanishing_under_the_probe_is_written(self, tmp_path, monkeypatch):
        # A concurrent GC removes the file while the put probes it: the
        # probe misses, so the put writes a readable file again.
        store = _int_store(tmp_path)
        store.put("k", 5)
        path = store.path_for("k")
        utime = os.utime

        def racing_gc(target, *args, **kwargs):
            os.unlink(target)
            return utime(target, *args, **kwargs)

        monkeypatch.setattr(os, "utime", racing_gc)
        store.put("k", 5)
        monkeypatch.undo()
        assert path.exists()
        assert _int_store(tmp_path).get("k") == 5


# --------------------------------------------------------------------------- #
# shard-partial namespace codec
# --------------------------------------------------------------------------- #
def test_shard_partials_round_trip_bytes_equal(tmp_path):
    from repro.service import ShardTask

    with SchedulerService() as service:
        task = ShardTask(
            size=3, span_limit=1, max_count=None, ranges=((0, 1, 2, 3),),
            workload="3dft",
        )
        [buckets] = service.classify_shard(task)
    _, _, _, shard_store = open_cache_stores(
        tmp_path, catalog_size=2, selection_size=2, result_size=2
    )
    shard_store.put(("k",), buckets)
    # A fresh store (cold memory front) decodes the exact wire shape:
    # tuple bag keys, int counts, list orders/values.
    _, _, _, fresh = open_cache_stores(
        tmp_path, catalog_size=2, selection_size=2, result_size=2
    )
    again = fresh.get(("k",))
    assert again == buckets
    assert all(isinstance(row, tuple) and isinstance(row[0], tuple)
               for row in again)


# --------------------------------------------------------------------------- #
# the service against a disk cache
# --------------------------------------------------------------------------- #
class TestServiceWithDiskCache:
    def test_restart_serves_result_from_disk(self, tmp_path):
        with SchedulerService(cache_dir=tmp_path) as first:
            cold = first.submit_outcome(_job())
            assert cold.cache == "none"
        with SchedulerService(cache_dir=tmp_path) as second:
            warm = second.submit_outcome(_job())
        assert warm.cache == "result"
        assert warm.result.to_json() == cold.result.to_json()
        # Nothing was recomputed: a result hit carries no fresh timings.
        assert second.stats.catalog_misses == 0

    def test_result_written_with_a_policy_field_still_answers(self, tmp_path):
        # Results persisted before the policy layer was removed carry a
        # "policy" echo field; they stay readable under the same
        # DISK_FORMAT and answer identically.
        with SchedulerService(cache_dir=tmp_path) as first:
            cold = first.submit(_job())
        path = _result_store(tmp_path).path_for(cold.job_key)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["value"]["policy"] = "fixed-fused"
        path.write_text(json.dumps(envelope), encoding="utf-8")
        old = JobResult.from_json(json.dumps(envelope["value"]))
        assert old.answer_dict() == cold.answer_dict()
        with SchedulerService(cache_dir=tmp_path) as second:
            warm = second.submit_outcome(_job())
        assert warm.cache == "result"
        assert warm.result.answer_dict() == cold.answer_dict()

    def test_restart_reuses_catalog_and_selection_levels(self, tmp_path):
        with SchedulerService(cache_dir=tmp_path) as first:
            first.submit(_job())
        with SchedulerService(cache_dir=tmp_path) as second:
            # Same catalog+selection, different scheduler priority: the
            # result key misses but the selection level answers from disk.
            outcome = second.submit_outcome(_job(priority="f1"))
            assert outcome.cache == "selection"
            # Different pdef: selection misses, catalog level answers.
            outcome = second.submit_outcome(_job(pdef=2))
            assert outcome.cache == "catalog"
        assert second.stats.catalog_misses == 0

    def test_two_services_share_one_cache_dir(self, tmp_path):
        with SchedulerService(cache_dir=tmp_path) as writer:
            with SchedulerService(cache_dir=tmp_path) as reader:
                cold = writer.submit_outcome(_job())
                warm = reader.submit_outcome(_job())
        assert cold.cache == "none" and warm.cache == "result"
        assert warm.result.to_json() == cold.result.to_json()

    def test_describe_reports_disk_stores(self, tmp_path):
        with SchedulerService(cache_dir=tmp_path) as service:
            service.submit(_job())
            info = service.describe()
        assert info["caches"]["result"]["kind"] == "disk"
        assert info["caches"]["result"]["size"] == 1
        assert info["cache_dir"] == str(tmp_path)


# --------------------------------------------------------------------------- #
# acceptance: warm restart over HTTP
# --------------------------------------------------------------------------- #
class TestHTTPRestartWarm:
    def test_restarted_server_serves_cache_hit(self, tmp_path):
        server = AsyncServiceServer(port=0, cache_dir=tmp_path)
        server.start_background()
        try:
            client = ServiceClient(server.url, timeout=30)
            cold = client.submit(_job())
            assert client.last_cache == "none"
        finally:
            server.shutdown()

        # A brand-new server process-equivalent on the same cache dir.
        server = AsyncServiceServer(port=0, cache_dir=tmp_path)
        server.start_background()
        try:
            client = ServiceClient(server.url, timeout=30)
            warm = client.submit(_job())
            assert client.last_cache == "result"
            assert warm.to_json() == cold.to_json()
            stats = client.stats()
            assert stats["stats"]["catalog_misses"] == 0
        finally:
            server.shutdown()


# --------------------------------------------------------------------------- #
# stable key encoding sanity (full coverage in test_dfg_io.py)
# --------------------------------------------------------------------------- #
def test_same_key_same_file_across_store_instances(tmp_path):
    a = _result_store(tmp_path)
    b = _result_store(tmp_path)
    key = ("digest", 5, None, SelectionConfig(span_limit=1))
    assert a.path_for(key) == b.path_for(key)
    other = ("digest", 5, 1, SelectionConfig(span_limit=1))
    assert a.path_for(key) != a.path_for(other)
