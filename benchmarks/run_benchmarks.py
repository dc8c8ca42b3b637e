"""Engine benchmark runner — per-stage backend timings as JSON.

Runs the full :class:`repro.pipeline.Pipeline` (DFG → catalog → selection
→ schedule) under the serial, fused and bitset execution backends — the
pipeline's own per-stage timing hooks replace the hand-rolled timers this
script used to carry — verifies the outputs are bit-identical, and writes
a machine-readable ``BENCH_engine.json`` next to this file (compare the
file across commits / CI artifacts to catch regressions; see
``scripts/diff_bench.py``).  The bitset rows record
``bitset_speedup_vs_fast`` — the vectorized classifier against the fused
scalar baseline on the same single core; ``scripts/diff_bench.py
--bitset-floor`` gates the enumeration+classify row ≥ 2x on full reports
(machine-independent: both sides share the core).

With ``--backend process --jobs N`` the process backend is timed as well
and its enumeration+classify speedup over the fused single-threaded
engine is recorded.  With ``--shards N`` the sharded-enumeration path is
timed too: N real ``repro serve`` subprocesses are spawned and a
:class:`~repro.service.shard.ShardCoordinator` fans the catalog build
out over them via ``POST /v1/catalog:shard:stream``, verifying the merged
catalog bit-identical to the fused one — a cold row (every cache level
cleared per repeat) plus a ``shard catalog warm`` row measuring the
content-addressed shard-partial caches (coordinator-side and
server-side ``X-Repro-Cache: shard``; zero shard DFS verified).
Multi-core speedup obviously requires multiple cores; the report
records the machine's CPU count alongside, and ``scripts/diff_bench.py``
only gates process and cold-shard rows when ``cpus > 1`` (warm-shard
rows skip no DFS either way and are gated whenever present).

Every run also emits the **edit-churn scenario** — ``warm edit rebuild``
rows timing a single-node recolor submitted through
``SchedulerService.submit_edit`` against a cold full rebuild of the
edited graph.  Only partitions whose subgraph digest changed
re-enumerate; the rest are served bit-identically from the
partition-granular shard-partial store.  Like warm-shard rows, the
speedup is machine-independent (it elides DFS, not cores) and is gated
by ``scripts/diff_bench.py --warm-edit-floor`` on any machine.

Every run also emits the **serve scenario** — a ``serve`` section timing
concurrent warm submits through one live ``repro serve`` subprocess (the
default asyncio core): N persistent-connection clients hammer the same
result-cached job, and the report records the warm p50/p99 per-request
latency plus aggregate requests/sec.  ``scripts/diff_bench.py
--serve-floor`` gates the throughput on full multi-core reports only
(single-core runs measure client/server CPU contention, not the
service).

Every run also emits the **fault scenario** — a ``faults`` section
timing the FFT-8 sharded catalog build over four real ``repro serve``
subprocesses all healthy vs the same build with one server SIGKILLed:
the degraded pass must open the dead shard's circuit breaker, fail its
partitions over to the survivors, and merge bit-identically, and the
report records the degraded/healthy ``overhead`` ratio plus the
retry/failover/breaker counters.  ``scripts/diff_bench.py
--fault-overhead-ceiling`` caps the ratio on full reports.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py              # serial vs fused
    PYTHONPATH=src python benchmarks/run_benchmarks.py --backend process --jobs 4
    PYTHONPATH=src python benchmarks/run_benchmarks.py --shards 4   # + shard rows
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick      # CI smoke
    PYTHONPATH=src python benchmarks/run_benchmarks.py -o out.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro._version import __version__
from repro.core.config import SelectionConfig
from repro.core.selection import PatternSelector
from repro.dfg.antichains import AntichainEnumerator
from repro.pipeline import Pipeline
from repro.service import JobRequest, SchedulerService
from repro.workloads.fft import radix2_fft

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Pipeline stage → historical stage name in the JSON report.
STAGE_NAMES = {
    "catalog": "enumeration+classify",
    "selection": "selection",
    "schedule": "scheduling",
}


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(f"engine equivalence violated: {message}")


def _assert_equivalent(ref, other, label: str) -> None:
    """Pin two PipelineResults bit-identical (catalog, rounds, schedule)."""
    _check(
        ref.catalog.frequencies == other.catalog.frequencies
        and ref.catalog.antichain_counts == other.catalog.antichain_counts,
        f"catalog mismatch ({label})",
    )
    _check(
        ref.selection.library == other.selection.library
        and all(
            dict(a.priorities) == dict(b.priorities)
            and a.chosen == b.chosen
            and a.deleted == b.deleted
            for a, b in zip(ref.selection.rounds, other.selection.rounds)
        ),
        f"selection mismatch ({label})",
    )
    _check(
        ref.schedule.cycles == other.schedule.cycles
        and dict(ref.schedule.assignment) == dict(other.schedule.assignment),
        f"schedule mismatch ({label})",
    )


def _best_of(fn, repeats: int) -> tuple[float, object]:
    """Minimum wall time over ``repeats`` calls, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.collect()  # keep prior stages' garbage out of this stage's time
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best, result


def _run_pipeline(dfg, config, capacity, pdef, repeats, backend, jobs=None):
    """Best-of-``repeats`` per-stage timings for one backend, plus a result."""
    pipe = Pipeline(
        capacity, pdef, config=config, backend=backend, jobs=jobs,
        collect_metrics=False,
    )
    best: dict[str, float] = {}
    result = None
    for _ in range(repeats):
        gc.collect()
        result = pipe.run(dfg)
        for stage, seconds in result.timings.items():
            if seconds < best.get(stage, float("inf")):
                best[stage] = seconds
    return best, result


def bench_workload(name, dfg, config, capacity, pdef, repeats, process_jobs):
    """Time each pipeline stage per backend on one workload."""
    rows = []
    serial_t, serial_r = _run_pipeline(
        dfg, config, capacity, pdef, repeats, "serial"
    )
    fused_t, fused_r = _run_pipeline(
        dfg, config, capacity, pdef, repeats, "fused"
    )
    _assert_equivalent(serial_r, fused_r, "serial vs fused")

    bitset_t, bitset_r = _run_pipeline(
        dfg, config, capacity, pdef, repeats, "bitset"
    )
    _assert_equivalent(fused_r, bitset_r, "fused vs bitset")

    process_t = None
    if process_jobs:
        process_t, process_r = _run_pipeline(
            dfg, config, capacity, pdef, repeats, "process", jobs=process_jobs
        )
        _assert_equivalent(fused_r, process_r, "fused vs process")

    for stage, json_name in STAGE_NAMES.items():
        ref_s, fast_s = serial_t[stage], fused_t[stage]
        row = {
            "workload": name,
            "stage": json_name,
            "reference_s": round(ref_s, 6),
            "fast_s": round(fast_s, 6),
            "speedup": round(ref_s / fast_s, 2) if fast_s > 0 else None,
        }
        line = (
            f"  {name:>8} {json_name:<24} ref {ref_s:8.4f}s   "
            f"fast {fast_s:8.4f}s   {ref_s / fast_s:6.2f}x"
        )
        bit_s = bitset_t[stage]
        row["bitset_s"] = round(bit_s, 6)
        row["bitset_speedup_vs_fast"] = (
            round(fast_s / bit_s, 2) if bit_s > 0 else None
        )
        line += f"   bitset {bit_s:8.4f}s ({fast_s / bit_s:5.2f}x vs fast)"
        if process_t is not None:
            proc_s = process_t[stage]
            row["process_s"] = round(proc_s, 6)
            row["process_jobs"] = process_jobs
            row["process_speedup_vs_fast"] = (
                round(fast_s / proc_s, 2) if proc_s > 0 else None
            )
            line += f"   proc {proc_s:8.4f}s ({fast_s / proc_s:5.2f}x vs fast)"
        rows.append(row)
        print(line)

    # Table 5 census: counting-only DFS vs materializing enumeration
    # (an analysis path outside the pipeline; timed the classic way).
    size = capacity
    if config.max_pattern_size is not None:
        size = min(size, config.max_pattern_size)
    span = fused_r.catalog.span_limit
    enum = AntichainEnumerator(dfg)

    def count_reference():
        counts = {k: 0 for k in range(1, size + 1)}
        for members in enum.iter_index_antichains(size, span):
            counts[len(members)] += 1
        return counts

    ref_s, ref_counts = _best_of(count_reference, repeats)
    fast_s, fast_counts = _best_of(lambda: enum.count_by_size(size, span), repeats)
    _check(ref_counts == fast_counts, "census mismatch")
    rows.append(
        {
            "workload": name,
            "stage": "antichain census",
            "reference_s": round(ref_s, 6),
            "fast_s": round(fast_s, 6),
            "speedup": round(ref_s / fast_s, 2) if fast_s > 0 else None,
        }
    )
    print(
        f"  {name:>8} {'antichain census':<24} ref {ref_s:8.4f}s   "
        f"fast {fast_s:8.4f}s   {ref_s / fast_s:6.2f}x"
    )
    return rows


def _spawn_shard_servers(
    n: int, cache_dir: "str | None" = None
) -> tuple[list, list[str]]:
    """Spawn ``n`` real ``repro serve`` subprocesses on OS-assigned ports.

    Subprocesses (not threads) so the shard benchmark measures genuine
    multi-core fan-out — each server enumerates in its own interpreter.
    With ``cache_dir`` the instances share one disk-backed cache
    directory, so a shard partial computed by any of them answers the
    same partition on every other (the production multi-instance
    layout).  Returns ``(procs, urls)``; callers must terminate the
    procs.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    procs, urls = [], []
    try:
        for _ in range(n):
            cmd = [sys.executable, "-u", "-m", "repro.cli", "serve",
                   "--port", "0"]
            if cache_dir is not None:
                cmd += ["--cache-dir", cache_dir]
            proc = subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=env,
                text=True,
            )
            procs.append(proc)
            line = proc.stdout.readline()
            m = re.search(r"http://[\d.]+:\d+", line or "")
            if not m:
                raise RuntimeError(
                    f"shard server failed to start (got {line!r})"
                )
            urls.append(m.group(0))
            # Drain further output (per-request logs) so the pipe never
            # fills and blocks the server.
            threading.Thread(
                target=proc.stdout.read, daemon=True
            ).start()
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    return procs, urls


def bench_shards(shards, workloads, repeats_override=None):
    """Sharded catalog build over real server subprocesses vs fused.

    Two rows per workload:

    ``shard catalog``
        ``reference_s`` is the fused single-instance catalog build,
        ``fast_s`` the coordinator fanning the same build out **cold**
        over ``shards`` ``repro serve`` subprocesses — every cache level
        (coordinator-side and server-side) is cleared before each cold
        repeat so the row keeps measuring real fan-out.

    ``shard catalog warm``
        ``reference_s`` is that cold shard build, ``fast_s`` the same
        build repeated with the content-addressed shard-partial caches
        hot: the coordinator answers every partition from its own partial
        store, so no shard (or DFS) runs at all.  Verified: server-side
        ``shard_misses`` must not move during the warm pass, and a
        *fresh* coordinator over the still-warm servers must have every
        dispatched partition answered ``X-Repro-Cache: shard``
        (``remote_warm_s`` records that pass).  ``scripts/diff_bench.py``
        gates the warm speedup ≥ ``--warm-shard-floor`` (default 5x).

    Every catalog is checked bit-identical to the fused build before any
    number is reported.
    """
    import tempfile

    from repro.service import ServiceClient, ShardCoordinator
    from repro.service.serialize import catalog_to_dict

    rows = []
    # The shard instances share one disk cache directory — the
    # production multi-instance layout — so a partial computed by any
    # server answers the same partition on every other, regardless of
    # which shard the steal loop hands it to.
    shared_cache = tempfile.TemporaryDirectory(prefix="repro-shard-bench-")
    procs, urls = _spawn_shard_servers(shards, cache_dir=shared_cache.name)
    try:
        clients = [ServiceClient(url) for url in urls]

        def server_shard_misses():
            return sum(c.stats()["stats"]["shard_misses"] for c in clients)

        with ShardCoordinator(urls) as coord:
            for name, dfg, config, capacity, _pdef, repeats in workloads:
                repeats = repeats_override or repeats
                selector = PatternSelector(capacity, config=config)
                fused_s, fused_cat = _best_of(
                    lambda: selector.build_catalog(dfg), repeats
                )
                fused_bits = json.dumps(catalog_to_dict(fused_cat))

                cold_s = float("inf")
                for _ in range(repeats):
                    coord.service.clear_caches()
                    for client in clients:
                        client.clear_caches()
                    gc.collect()
                    t0 = time.perf_counter()
                    shard_cat = coord.build_catalog(dfg, capacity, config=config)
                    cold_s = min(cold_s, time.perf_counter() - t0)
                _check(
                    json.dumps(catalog_to_dict(shard_cat)) == fused_bits,
                    f"sharded catalog not bit-identical ({name})",
                )

                # Warm pass: partial caches are hot from the last cold
                # run; the coordinator must answer without shard traffic.
                misses_before = server_shard_misses()
                warm_s, warm_cat = _best_of(
                    lambda: coord.build_catalog(dfg, capacity, config=config),
                    max(2, repeats),
                )
                _check(
                    json.dumps(catalog_to_dict(warm_cat)) == fused_bits,
                    f"warm sharded catalog not bit-identical ({name})",
                )
                _check(
                    server_shard_misses() == misses_before,
                    f"warm shard pass ran a shard-side DFS ({name})",
                )

                # A fresh coordinator (cold coordinator-side cache) over
                # the still-warm servers: every dispatched partition must
                # come back X-Repro-Cache: shard — zero shard-side DFS.
                with ShardCoordinator(urls) as fresh:
                    gc.collect()
                    t0 = time.perf_counter()
                    remote_cat = fresh.build_catalog(
                        dfg, capacity, config=config
                    )
                    remote_warm_s = time.perf_counter() - t0
                    fresh_stats = fresh.stats
                _check(
                    json.dumps(catalog_to_dict(remote_cat)) == fused_bits,
                    f"remote-warm sharded catalog not bit-identical ({name})",
                )
                _check(
                    fresh_stats.dispatched > 0
                    and fresh_stats.remote_partial_hits
                    == fresh_stats.dispatched,
                    f"remote-warm dispatches not served from the shard "
                    f"partial cache ({name}): {fresh_stats.to_dict()}",
                )

                speedup = round(fused_s / cold_s, 2) if cold_s > 0 else None
                warm_speedup = (
                    round(cold_s / warm_s, 2) if warm_s > 0 else None
                )
                rows.append(
                    {
                        "workload": name,
                        "stage": "shard catalog",
                        "reference_s": round(fused_s, 6),
                        "fast_s": round(cold_s, 6),
                        "speedup": speedup,
                        "shards": shards,
                    }
                )
                rows.append(
                    {
                        "workload": name,
                        "stage": "shard catalog warm",
                        "reference_s": round(cold_s, 6),
                        "fast_s": round(warm_s, 6),
                        "speedup": warm_speedup,
                        "shards": shards,
                        "remote_warm_s": round(remote_warm_s, 6),
                        "remote_partial_hits": fresh_stats.remote_partial_hits,
                    }
                )
                print(
                    f"  {name:>8} {'shard catalog':<24} "
                    f"fused {fused_s:8.4f}s   "
                    f"x{shards} shards {cold_s:8.4f}s   {speedup:6.2f}x"
                )
                print(
                    f"  {name:>8} {'shard catalog warm':<24} "
                    f"cold {cold_s:8.4f}s   "
                    f"warm {warm_s:8.4f}s   {warm_speedup:6.2f}x "
                    f"(remote-warm {remote_warm_s:.4f}s, "
                    f"{fresh_stats.remote_partial_hits} partial hits)"
                )
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        shared_cache.cleanup()
    return rows


def _pick_edit(dfg):
    """The benchmark's single-node edit: an earliest interning-stable recolor.

    Picks the lowest-index node that is not the first occurrence of its
    color and recolors it to a color that already appeared earlier, so
    ``color_labels`` interning order is provably unchanged.  Support sets
    only look *upward* (``higher(s) & ~comp[s]``), so the earliest legal
    recolor yields the smallest honest dirty region — the edit an editor
    loop would actually make, not a degenerate no-op.
    """
    from repro.dfg.edit import DfgEdit

    labels, colors = dfg.color_labels()
    names = list(dfg.nodes)
    first: dict[str, int] = {}
    for i in range(dfg.n_nodes):
        first.setdefault(colors[labels[i]], i)
    for i in range(dfg.n_nodes):
        old = colors[labels[i]]
        if first[old] == i:
            continue
        for cand in colors:
            if cand != old and first[cand] < i:
                return DfgEdit.recolor(names[i], cand)
    raise RuntimeError(f"workload {dfg.name!r} has no interning-stable recolor")


def bench_edit(workloads, repeats_override=None):
    """Warm edit rebuild vs cold full rebuild — the edit-churn scenario.

    For each workload: apply a single-node recolor (:func:`_pick_edit`)
    to the graph and measure the end-to-end edit-to-schedule latency two
    ways, per repeat:

    ``reference_s`` (cold full rebuild)
        Every cache level cleared, then the edited graph submitted as a
        fresh job — catalog, selection and scheduling all recompute.

    ``fast_s`` (warm edit rebuild)
        Every cache level cleared, the *base* job submitted (priming the
        partition-granular shard-partial store with base-graph partials
        only), completion caches dropped again
        (``clear_caches(keep_shard_partials=True)``), then the edit
        submitted through ``submit_edit`` — only partitions whose
        subgraph digest the edit changed re-enumerate; the clean ones
        are served from the partial store.

    The warm result is checked bit-identical (``answer_dict``: selection,
    schedule, metrics, Counter order — timings and backend excluded) to
    the cold rebuild, the cache level must report ``edit``, and at least
    one partition must have been reused.  ``scripts/diff_bench.py`` gates
    the speedup ≥ ``--warm-edit-floor`` (default 5x) on any machine —
    like the warm-shard floor, no DFS is saved by core count.
    """
    import dataclasses

    from repro.dfg.edit import apply_edits
    from repro.service import EditRequest

    rows = []
    for name, dfg, config, capacity, pdef, repeats in workloads:
        repeats = repeats_override or repeats
        edit_op = _pick_edit(dfg)
        edited = apply_edits(dfg, [edit_op])
        base_job = JobRequest(
            capacity=capacity, pdef=pdef, dfg=dfg, config=config
        )
        edited_job = dataclasses.replace(base_job, dfg=edited)
        edit_request = EditRequest(job=base_job, edits=(edit_op,))

        with SchedulerService() as service:
            cold_s = float("inf")
            for _ in range(repeats):
                service.clear_caches()
                gc.collect()
                t0 = time.perf_counter()
                cold_outcome = service.submit_outcome(edited_job)
                cold_s = min(cold_s, time.perf_counter() - t0)
            _check(
                cold_outcome.cache == "none",
                f"cold edited rebuild hit a cache ({name})",
            )

            warm_s = float("inf")
            for _ in range(max(2, repeats)):
                # Prime the partial store with *base-graph* partials only,
                # then drop the completion caches — the state an editor
                # loop is in right after an edit.
                service.clear_caches()
                service.submit(base_job)
                service.clear_caches(keep_shard_partials=True)
                hits_before = service.stats.partition_hits
                gc.collect()
                t0 = time.perf_counter()
                warm_outcome = service.submit_edit_outcome(edit_request)
                warm_s = min(warm_s, time.perf_counter() - t0)
                partition_hits = service.stats.partition_hits - hits_before
            _check(
                warm_outcome.cache == "edit",
                f"warm edit rebuild did not reuse any partition ({name})",
            )
            _check(
                partition_hits > 0,
                f"warm edit rebuild reports zero partition hits ({name})",
            )
            _check(
                warm_outcome.result.answer_dict()
                == cold_outcome.result.answer_dict(),
                f"warm edit rebuild not bit-identical to cold ({name})",
            )

        speedup = round(cold_s / warm_s, 2) if warm_s > 0 else None
        rows.append(
            {
                "workload": name,
                "stage": "warm edit rebuild",
                "reference_s": round(cold_s, 6),
                "fast_s": round(warm_s, 6),
                "speedup": speedup,
                "edit": edit_op.to_dict(),
                "partition_hits": partition_hits,
            }
        )
        print(
            f"  {name:>8} {'warm edit rebuild':<24} "
            f"cold {cold_s:8.4f}s   warm {warm_s:8.4f}s   {speedup:6.2f}x "
            f"({partition_hits} partitions reused, "
            f"edit {edit_op.op} {edit_op.node}->{edit_op.color})"
        )
    return rows


def bench_service(warm_repeats: int = 3) -> dict:
    """Cold vs warm submit of one FFT-64 job through the service.

    The cold submit pays full catalog + selection + scheduling; the warm
    submit of the *same* job must return the bit-identical result from the
    service's content-addressed result cache ≥ 10x faster (the acceptance
    floor ``scripts/diff_bench.py`` enforces).  A ``pdef`` sweep via
    ``submit_many`` additionally pins the catalog-built-exactly-once
    guarantee.
    """
    config = SelectionConfig(
        span_limit=1, max_pattern_size=2, widen_to_capacity=True
    )
    request = JobRequest(capacity=5, pdef=5, workload="fft64", config=config)

    with SchedulerService() as service:
        gc.collect()
        t0 = time.perf_counter()
        cold_result = service.submit(request)
        cold_s = time.perf_counter() - t0

        warm_s = float("inf")
        for _ in range(warm_repeats):
            gc.collect()
            t0 = time.perf_counter()
            warm_result = service.submit(request)
            warm_s = min(warm_s, time.perf_counter() - t0)
        _check(
            warm_result == cold_result,
            "warm service submit is not bit-identical to the cold one",
        )
        _check(
            service.stats.result_hits == warm_repeats,
            "warm submits did not come from the result cache",
        )

    # pdef sweep on a fresh service: one catalog build for the whole batch.
    with SchedulerService() as sweep_service:
        sweep_pdefs = [3, 4, 5, 5]
        sweep_service.submit_many(
            [
                JobRequest(
                    capacity=5, pdef=p, workload="fft64", config=config
                )
                for p in sweep_pdefs
            ]
        )
        catalog_builds = sweep_service.stats.catalog_misses
        _check(
            catalog_builds == 1,
            f"pdef sweep built the catalog {catalog_builds} times, not once",
        )
        deduped = sweep_service.stats.deduped

    section = {
        "workload": "FFT-64",
        "job": {"capacity": 5, "pdef": 5, "workload": "fft64"},
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "warm_speedup": round(cold_s / warm_s, 2) if warm_s > 0 else None,
        "sweep_pdefs": sweep_pdefs,
        "sweep_catalog_builds": catalog_builds,
        "sweep_deduped": deduped,
    }
    print(
        f"  {'FFT-64':>8} {'service submit':<24} cold {cold_s:8.4f}s   "
        f"warm {warm_s:8.4f}s   {cold_s / warm_s:6.0f}x "
        f"(sweep: {catalog_builds} catalog build, {deduped} deduped)"
    )
    return section


def bench_serve(clients: int = 4, requests_per_client: int = 50,
                quick: bool = False) -> dict:
    """Warm-submit latency/throughput through a live ``repro serve``.

    Spawns one real server subprocess (the default asyncio core), primes
    the result cache with a cold submit, then ``clients`` threads — each
    holding one persistent keep-alive :class:`ServiceClient` — submit
    the same warm job ``requests_per_client`` times.  Records the warm
    per-request p50/p99 latency and the aggregate requests/sec, checking
    every response bit-identical to the cold result.
    ``scripts/diff_bench.py --serve-floor`` gates the throughput on full
    multi-core reports only: on a single core the server and all client
    threads fight for the same CPU, so the number measures contention,
    not the service.
    """
    from repro.service import ServiceClient

    if quick:
        clients, requests_per_client = 2, 20
    request = JobRequest(capacity=5, pdef=4, workload="3dft")
    procs, urls = _spawn_shard_servers(1)
    try:
        url = urls[0]
        with ServiceClient(url, timeout=30) as primer:
            gc.collect()
            t0 = time.perf_counter()
            cold_result = primer.submit(request)
            cold_s = time.perf_counter() - t0
            warm_check = primer.submit(request)
            _check(
                primer.last_cache == "result" and warm_check == cold_result,
                "serve warm-up submit did not hit the result cache",
            )

        latencies: list[float] = []
        failures: list[BaseException] = []
        lock = threading.Lock()
        barrier = threading.Barrier(clients + 1)

        def worker():
            try:
                with ServiceClient(url, timeout=30) as client:
                    client.health()  # open the pooled connection up front
                    barrier.wait()
                    mine = []
                    for _ in range(requests_per_client):
                        t0 = time.perf_counter()
                        result = client.submit(request)
                        mine.append(time.perf_counter() - t0)
                        if result != cold_result:
                            raise AssertionError(
                                "warm serve result not bit-identical"
                            )
                with lock:
                    latencies.extend(mine)
            except BaseException as exc:
                with lock:
                    failures.append(exc)
                try:
                    barrier.abort()
                except threading.BrokenBarrierError:
                    pass

        threads = [threading.Thread(target=worker) for _ in range(clients)]
        for t in threads:
            t.start()
        barrier.wait()
        wall0 = time.perf_counter()
        for t in threads:
            t.join()
        wall = time.perf_counter() - wall0
        if failures:
            raise failures[0]

        total = clients * requests_per_client
        _check(len(latencies) == total, "serve benchmark lost requests")
        ordered = sorted(latencies)
        p50 = ordered[len(ordered) // 2]
        p99 = ordered[min(len(ordered) - 1, int(0.99 * (len(ordered) - 1)))]
        rps = total / wall if wall > 0 else None
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()

    section = {
        "workload": "3dft",
        "core": "async",
        "clients": clients,
        "requests": total,
        "cold_s": round(cold_s, 6),
        "warm_p50_ms": round(p50 * 1e3, 3),
        "warm_p99_ms": round(p99 * 1e3, 3),
        "requests_per_s": round(rps, 1) if rps else None,
    }
    print(
        f"  {'3dft':>8} {'serve warm submit':<24} "
        f"{clients} clients x {requests_per_client}   "
        f"p50 {p50 * 1e3:7.2f}ms   p99 {p99 * 1e3:7.2f}ms   "
        f"{rps:8.1f} req/s"
    )
    return section


def bench_faults(quick: bool = False) -> dict:
    """Sharded catalog build with 1-of-4 shards dead vs all healthy.

    Spawns four real ``repro serve`` subprocesses and times the FFT-8
    sharded catalog build twice, each over a fresh (cold) fleet: once
    all healthy, once with one server SIGKILLed before dispatch.  The
    degraded pass must open the dead shard's circuit breaker, fail its
    partitions over to the three survivors, and still merge a catalog
    bit-identical to the fused single-instance build — ``overhead``
    records the degraded/healthy wall-time ratio, which
    ``scripts/diff_bench.py --fault-overhead-ceiling`` caps on full
    reports (losing a shard must cost failover latency, not a rebuild).
    """
    from repro.service import RetryPolicy, ShardCoordinator
    from repro.service.serialize import catalog_to_dict

    config = SelectionConfig(span_limit=1)
    dfg = radix2_fft(8)
    reference = catalog_to_dict(
        PatternSelector(5, config=config).build_catalog(dfg)
    )
    # One whole-call failure ejects the dead shard; the long cooldown
    # keeps it ejected for the rest of the (short) degraded pass.
    retry = RetryPolicy(
        connect_timeout=2.0,
        read_timeout=60.0,
        retries=1,
        backoff_base=0.01,
        backoff_cap=0.05,
        breaker_threshold=1,
        breaker_cooldown=300.0,
    )

    def timed_build(kill_one: bool):
        procs, urls = _spawn_shard_servers(4)
        try:
            if kill_one:
                procs[0].kill()
                procs[0].wait(timeout=10)
            with ShardCoordinator(urls, retry=retry) as coord:
                gc.collect()
                t0 = time.perf_counter()
                catalog = coord.build_catalog(
                    dfg, 5, config=config, workload="fft8"
                )
                elapsed = time.perf_counter() - t0
                stats = coord.stats
                health = coord.describe()["health"]
            _check(
                catalog_to_dict(catalog) == reference,
                "sharded catalog is not bit-identical to the fused build"
                + (" (degraded fleet)" if kill_one else ""),
            )
            return elapsed, stats, health
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()

    healthy_s, healthy_stats, _ = timed_build(kill_one=False)
    degraded_s, stats, health = timed_build(kill_one=True)
    _check(
        healthy_stats.failovers == 0 and healthy_stats.local_fallbacks == 0,
        "healthy fleet reported failovers",
    )
    _check(
        stats.retries + stats.failovers > 0,
        "degraded fleet never retried or failed over",
    )
    _check(health[0]["state"] == "open", "dead shard's breaker never opened")
    _check(
        stats.local_fallbacks == 0,
        "degraded fleet fell back to in-process classification",
    )

    overhead = round(degraded_s / healthy_s, 2) if healthy_s > 0 else None
    section = {
        "workload": "FFT-8",
        "shards": 4,
        "dead": 1,
        "healthy_s": round(healthy_s, 6),
        "degraded_s": round(degraded_s, 6),
        "overhead": overhead,
        "retries": stats.retries,
        "failovers": stats.failovers,
        "breaker_opens": sum(h["opens"] for h in health),
        "local_fallbacks": stats.local_fallbacks,
    }
    print(
        f"  {'FFT-8':>8} {'fault overhead':<24} "
        f"healthy {healthy_s:8.4f}s   1-dead {degraded_s:8.4f}s   "
        f"{overhead:6.2f}x ({stats.retries} retries, "
        f"{stats.failovers} failovers, breaker open)"
    )
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workloads / single repeat (CI smoke)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=["process"],
        help="additionally time this backend against the fused baseline",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker count for --backend process (default: all cores)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="additionally time sharded catalog building over N "
             "'repro serve' subprocesses (shard catalog rows)",
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    process_jobs = None
    if args.backend == "process":
        process_jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)

    if args.quick:
        workloads = [
            (
                "FFT-8",
                radix2_fft(8),
                SelectionConfig(span_limit=1, widen_to_capacity=True),
                4,
                4,
                1,
            ),
            (
                "FFT-16",
                radix2_fft(16),
                SelectionConfig(
                    span_limit=1, max_pattern_size=2, widen_to_capacity=True
                ),
                5,
                5,
                1,
            ),
        ]
    else:
        workloads = [
            (
                "FFT-16",
                radix2_fft(16),
                SelectionConfig(
                    span_limit=1, max_pattern_size=3, widen_to_capacity=True
                ),
                5,
                5,
                2,
            ),
            (
                "FFT-64",
                radix2_fft(64),
                SelectionConfig(
                    span_limit=1, max_pattern_size=2, widen_to_capacity=True
                ),
                5,
                5,
                2,
            ),
        ]

    print("engine benchmark: execution backends (serial / fused / bitset"
          + (f" / process x{process_jobs}" if process_jobs else "") + ")")
    rows = []
    for name, dfg, config, capacity, pdef, repeats in workloads:
        rows.extend(
            bench_workload(
                name, dfg, config, capacity, pdef, repeats, process_jobs
            )
        )

    if args.shards:
        print(
            f"shard benchmark: catalog build over {args.shards} "
            f"'repro serve' subprocesses vs fused"
        )
        rows.extend(bench_shards(args.shards, workloads))

    print(
        "edit benchmark: warm edit rebuild vs cold full rebuild "
        "(dirty-region re-classification)"
    )
    rows.extend(bench_edit(workloads))

    print("service benchmark: cold vs warm submit (content-addressed caches)")
    service_section = bench_service()

    print("serve benchmark: concurrent warm submits through a live "
          "'repro serve' (async core)")
    serve_section = bench_serve(quick=args.quick)

    print("fault benchmark: sharded build with 1-of-4 shards dead vs "
          "all healthy")
    faults_section = bench_faults(quick=args.quick)

    pipeline = {}
    for row in rows:
        if (
            row["stage"].startswith("shard catalog")
            or row["stage"] == "warm edit rebuild"
        ):
            continue  # an alternative strategy, not a pipeline stage sum
        agg = pipeline.setdefault(
            row["workload"], {"reference_s": 0.0, "fast_s": 0.0}
        )
        agg["reference_s"] += row["reference_s"]
        agg["fast_s"] += row["fast_s"]
        if "bitset_s" in row:
            agg["bitset_s"] = agg.get("bitset_s", 0.0) + row["bitset_s"]
        if "process_s" in row:
            agg["process_s"] = agg.get("process_s", 0.0) + row["process_s"]
    for name, agg in pipeline.items():
        agg["speedup"] = round(agg["reference_s"] / agg["fast_s"], 2)
        agg["reference_s"] = round(agg["reference_s"], 6)
        agg["fast_s"] = round(agg["fast_s"], 6)
        if "bitset_s" in agg:
            agg["bitset_s"] = round(agg["bitset_s"], 6)
        if "process_s" in agg:
            agg["process_s"] = round(agg["process_s"], 6)
        print(
            f"  {name:>8} {'TOTAL':<24} ref {agg['reference_s']:8.4f}s   "
            f"fast {agg['fast_s']:8.4f}s   {agg['speedup']:6.2f}x"
        )

    report = {
        "benchmark": "engine_speedup",
        "version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "quick": args.quick,
        "backends": ["serial", "fused", "bitset"]
        + (["process"] if process_jobs else []),
        "process_jobs": process_jobs,
        "shards": args.shards,
        "stages": rows,
        "pipeline": pipeline,
        "service": service_section,
        "serve": serve_section,
        "faults": faults_section,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
