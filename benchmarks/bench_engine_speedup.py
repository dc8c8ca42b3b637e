"""Engine speedup — fused/incremental fast paths vs reference oracles.

The perf PR's contract, as a benchmark: each pipeline stage (pattern
generation, Table 5 census, Fig. 7 selection, Fig. 3 scheduling) is timed
under the reference implementation and the fast engine on the same
workload, asserting identical outputs and recording the speedup.  Run::

    pytest benchmarks/bench_engine_speedup.py --benchmark-only -s

For the machine-readable before/after record (``BENCH_engine.json``) use
``benchmarks/run_benchmarks.py``.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import record

from repro.analysis.tables import render_table
from repro.core.config import SelectionConfig
from repro.core.selection import PatternSelector
from repro.dfg.antichains import AntichainEnumerator
from repro.patterns.enumeration import classify_antichains
from repro.scheduling.scheduler import MultiPatternScheduler
from repro.workloads.fft import radix2_fft


@pytest.fixture(scope="module")
def fft16():
    return radix2_fft(16)


@pytest.fixture(scope="module")
def fft64():
    return radix2_fft(64)


def _time(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def test_engine_classification_fft16(benchmark, fft16):
    ref_s, ref = _time(
        lambda: classify_antichains(fft16, 3, 1, backend="serial")
    )
    fast = benchmark.pedantic(
        classify_antichains, args=(fft16, 3, 1), rounds=2, iterations=1
    )
    assert fast.frequencies == ref.frequencies
    assert fast.antichain_counts == ref.antichain_counts
    fast_s = benchmark.stats.stats.min
    record(
        benchmark, "Engine — fused classification (FFT-16)",
        render_table(
            ["stage", "antichains", "reference s", "fast s", "speedup"],
            [("enumerate+classify", ref.total_antichains(),
              f"{ref_s:.3f}", f"{fast_s:.3f}", f"{ref_s / fast_s:.1f}x")],
        ),
        speedup=ref_s / fast_s,
    )
    assert ref_s / fast_s > 2.0  # conservative floor; typically ~8x


def test_engine_census_fft16(benchmark, fft16):
    enum = AntichainEnumerator(fft16)

    def reference():
        counts = {k: 0 for k in range(1, 4)}
        for members in enum.iter_index_antichains(3, 1):
            counts[len(members)] += 1
        return counts

    ref_s, ref = _time(reference)
    fast = benchmark.pedantic(
        enum.count_by_size, args=(3, 1), rounds=2, iterations=1
    )
    assert fast == ref
    fast_s = benchmark.stats.stats.min
    record(
        benchmark, "Engine — counting-only census (FFT-16)",
        render_table(
            ["stage", "antichains", "reference s", "fast s", "speedup"],
            [("count_by_size", sum(ref.values()),
              f"{ref_s:.3f}", f"{fast_s:.3f}", f"{ref_s / fast_s:.1f}x")],
        ),
        speedup=ref_s / fast_s,
    )
    # The DFS itself dominates the census; counting-only mode only sheds
    # the member-tuple materialization (~1.2x) — just must never lose.
    assert ref_s / fast_s > 1.0


def test_engine_selection_fft16(benchmark, fft16):
    selector = PatternSelector(
        5,
        SelectionConfig(span_limit=1, max_pattern_size=3,
                        widen_to_capacity=True),
    )
    catalog = selector.build_catalog(fft16)
    ref_s, ref = _time(
        lambda: selector.select(fft16, 5, catalog=catalog, backend="serial")
    )
    fast = benchmark.pedantic(
        selector.select, args=(fft16, 5),
        kwargs={"catalog": catalog, "backend": "fused"}, rounds=3, iterations=1
    )
    assert fast.library == ref.library
    for fr, rr in zip(fast.rounds, ref.rounds):
        assert dict(fr.priorities) == dict(rr.priorities)
        assert (fr.chosen, fr.fallback, fr.deleted) == (
            rr.chosen, rr.fallback, rr.deleted
        )


def test_engine_scheduling_fft64(benchmark, fft64):
    selector = PatternSelector(
        5,
        SelectionConfig(span_limit=1, max_pattern_size=2,
                        widen_to_capacity=True),
    )
    library = selector.select(fft64, 5).library
    scheduler = MultiPatternScheduler(library)
    ref_s, ref = _time(lambda: scheduler.schedule(fft64, backend="serial"))
    fast = benchmark.pedantic(
        scheduler.schedule, args=(fft64,), kwargs={"backend": "fused"},
        rounds=3, iterations=1
    )
    assert fast.cycles == ref.cycles
    assert dict(fast.assignment) == dict(ref.assignment)
    fast_s = benchmark.stats.stats.min
    record(
        benchmark, "Engine — int scheduler hot loop (FFT-64)",
        render_table(
            ["stage", "cycles", "reference s", "fast s", "speedup"],
            [("schedule", ref.length,
              f"{ref_s:.3f}", f"{fast_s:.3f}", f"{ref_s / fast_s:.1f}x")],
        ),
        speedup=ref_s / fast_s,
    )


def test_engine_pipeline_fft64(benchmark, fft64):
    """End-to-end enumerate → select → schedule under the fast engines."""
    config = SelectionConfig(
        span_limit=1, max_pattern_size=2, widen_to_capacity=True
    )

    def pipeline(backend):
        selector = PatternSelector(5, config)
        catalog = classify_antichains(fft64, 2, 1, backend=backend)
        result = selector.select(fft64, 5, catalog=catalog, backend=backend)
        return MultiPatternScheduler(result.library).schedule(
            fft64, backend=backend
        )

    ref_s, ref = _time(lambda: pipeline("serial"))
    fast = benchmark.pedantic(
        pipeline, args=("fused",), rounds=2, iterations=1
    )
    assert fast.cycles == ref.cycles
    fast_s = benchmark.stats.stats.min
    record(
        benchmark, "Engine — full pipeline (FFT-64)",
        render_table(
            ["stage", "nodes", "reference s", "fast s", "speedup"],
            [("enumerate+select+schedule", fft64.n_nodes,
              f"{ref_s:.3f}", f"{fast_s:.3f}", f"{ref_s / fast_s:.1f}x")],
        ),
        speedup=ref_s / fast_s,
    )
    assert ref_s / fast_s > 2.0