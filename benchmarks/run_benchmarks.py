"""Engine benchmark runner — the rows perfbench cannot see, as JSON.

``perfbench/run.py`` is the benchmark of record for the served path: cold
compiles through the service, warm answers over the wire and edits over a
shard fleet, each judged against the bounds in ``BENCHMARK.json``.  This
runner keeps only the measurements no perfbench workload makes, and
checks every output bit-identical before it reports a number:

``enumeration+classify`` rows
    The monolithic catalog build (``PatternSelector.build_catalog``, the
    partitioned bitset build) against the same size/span policy on the
    sequential reference classifier (``_classify_reference``).
    ``speedup`` is reference over fast.
``antichain census`` rows
    ``AntichainEnumerator.count_by_size`` (the Table 5 analysis path)
    against counting a materializing enumeration.
``faults`` section
    The FFT-8 sharded catalog build over four real ``repro serve``
    subprocesses, all healthy vs one SIGKILLed before dispatch: the
    degraded pass must open the dead shard's circuit breaker, fail its
    partitions over to the survivors and merge bit-identically.
    ``overhead`` is the degraded/healthy wall-time ratio.

The report records the machine's CPU count; ``scripts/diff_bench.py``
gates it (``--floor``, ``--ratio``, ``--fault-overhead-ceiling`` on full
reports).

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py              # reference vs fast
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
from repro.patterns.enumeration import _classify_reference
from repro.workloads.fft import radix2_fft

DEFAULT_OUTPUT = (
    Path(__file__).resolve().parent.parent / ".bench-smoke" / "BENCH_engine.json"
)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(f"engine equivalence violated: {message}")


def _assert_same_catalog(ref, other, label: str) -> None:
    _check(
        ref.frequencies == other.frequencies
        and ref.antichain_counts == other.antichain_counts,
        f"catalog mismatch ({label})",
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


def _row(name, stage, ref_s, fast_s) -> dict:
    print(
        f"  {name:>8} {stage:<24} ref {ref_s:8.4f}s   "
        f"fast {fast_s:8.4f}s   {ref_s / fast_s:6.2f}x"
    )
    return {
        "workload": name,
        "stage": stage,
        "reference_s": round(ref_s, 6),
        "fast_s": round(fast_s, 6),
        "speedup": round(ref_s / fast_s, 2) if fast_s > 0 else None,
    }


def bench_workload(name, dfg, config, capacity, repeats):
    """The catalog build, reference then fast, then the census, on one workload."""
    selector = PatternSelector(capacity, config=config)

    def reference_build():
        return selector.build_catalog_with(
            dfg,
            lambda size, span: _classify_reference(
                dfg,
                AntichainEnumerator(dfg),
                size,
                span,
                config.max_antichains,
                False,
            ),
        )

    ref_s, ref_cat = _best_of(reference_build, repeats)
    fast_s, fast_cat = _best_of(lambda: selector.build_catalog(dfg), repeats)
    _assert_same_catalog(ref_cat, fast_cat, "reference vs fast")
    row = _row(name, "enumeration+classify", ref_s, fast_s)

    # Table 5 census: counting-only DFS vs materializing enumeration.
    size = capacity
    if config.max_pattern_size is not None:
        size = min(size, config.max_pattern_size)
    span = fast_cat.span_limit
    enum = AntichainEnumerator(dfg)

    def count_reference():
        counts = {k: 0 for k in range(1, size + 1)}
        for members in enum.iter_index_antichains(size, span):
            counts[len(members)] += 1
        return counts

    census_ref_s, ref_counts = _best_of(count_reference, repeats)
    census_fast_s, fast_counts = _best_of(
        lambda: enum.count_by_size(size, span), repeats
    )
    _check(ref_counts == fast_counts, "census mismatch")
    return [row, _row(name, "antichain census", census_ref_s, census_fast_s)]


def _spawn_shard_servers(n: int) -> tuple[list, list[str]]:
    """Spawn ``n`` real ``repro serve`` subprocesses on OS-assigned ports.

    Subprocesses (not threads), so a SIGKILL takes one shard down the way
    a crashed host would.  Returns ``(procs, urls)``; callers must
    terminate the procs.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    procs, urls = [], []
    try:
        for _ in range(n):
            proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.cli", "serve",
                 "--port", "0"],
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


def bench_faults() -> dict:
    """Sharded catalog build with 1-of-4 shards dead vs all healthy.

    Spawns four real ``repro serve`` subprocesses and times the FFT-8
    sharded catalog build twice, each over a fresh (cold) fleet: once
    all healthy, once with one server SIGKILLed before dispatch.  The
    degraded pass must open the dead shard's circuit breaker, fail its
    partitions over to the three survivors, and still merge a catalog
    bit-identical to the in-process single-instance build — ``overhead``
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
                "sharded catalog is not bit-identical to the in-process build"
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
        "-o", "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    if args.quick:
        workloads = [
            (
                "FFT-8",
                radix2_fft(8),
                SelectionConfig(span_limit=1, widen_to_capacity=True),
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
                2,
            ),
            (
                "FFT-64",
                radix2_fft(64),
                SelectionConfig(
                    span_limit=1, max_pattern_size=2, widen_to_capacity=True
                ),
                5,
                2,
            ),
        ]

    print("engine benchmark: catalog build (reference / fast) and antichain census")
    rows = []
    for name, dfg, config, capacity, repeats in workloads:
        rows.extend(bench_workload(name, dfg, config, capacity, repeats))

    print("fault benchmark: sharded build with 1-of-4 shards dead vs "
          "all healthy")
    faults_section = bench_faults()

    report = {
        "benchmark": "engine_speedup",
        "version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "quick": args.quick,
        "stages": rows,
        "faults": faults_section,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
