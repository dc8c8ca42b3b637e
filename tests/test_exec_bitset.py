"""Bitset backend: vectorized classification pinned bit-identical.

The bitset backend replaces the scalar classify DFS with batched numpy
kernels; its whole value rests on producing *exactly* the scalar output —
bag dict insertion order, censuses, frequency arrays, first-seen orders,
selection priorities as exact floats, schedules, and the ``max_count``
error.  This suite pins that equivalence against the serial and fused
oracles over fixed random DAGs, the paper graphs, fft16/fft64, and a
hypothesis sweep of random layered/ER DAGs — then re-pins it with the
compiled expansion kernel forced away (pure numpy path) and with numpy
itself forced away (scalar fallback path).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SelectionConfig
from repro.core.selection import PatternSelector
from repro.dfg.antichains import AntichainEnumerator
from repro.exceptions import (
    BackendError,
    EnumerationLimitError,
    GraphError,
    PatternError,
)
from repro.exec import BitsetBackend, available_backends, get_backend
from repro.exec import bitset as bitset_mod
from repro.exec.bitset import (
    bitset_availability,
    bitset_supported,
    classify_by_label_bitset,
    classify_rows_bitset,
    packed_incomparable_rows,
    packed_level_windows,
)
from repro.exec.process import classify_partition_rows, estimate_seed_weights
from repro.patterns.enumeration import classify_antichains
from repro.workloads import small_example, three_point_dft_paper
from repro.workloads.fft import radix2_fft
from repro.workloads.synthetic import layered_dag, random_dag
from tests.test_exec_backends import (
    RANDOM_CASES,
    _case_graph,
    assert_catalogs_identical,
    assert_results_identical,
    run_flow,
)

np = pytest.importorskip("numpy")

BITSET = BitsetBackend()


def assert_classifications_identical(got, ref):
    """Raw classify_by_label output equality, insertion orders included."""
    assert list(got) == list(ref)
    for key in ref:
        assert got[key].count == ref[key].count, key
        assert got[key].first_seen == ref[key].first_seen, key
        assert list(got[key].frequencies) == list(ref[key].frequencies), key


def _check_graph(dfg, size, span, **kw):
    enum = AntichainEnumerator(dfg)
    labels, _ = dfg.color_labels()
    ref = enum.classify_by_label(labels, size, span, **kw)
    got = classify_by_label_bitset(enum, labels, size, span, **kw)
    assert_classifications_identical(got, ref)


# --------------------------------------------------------------------------- #
# registry / CLI surface
# --------------------------------------------------------------------------- #


def test_bitset_registered():
    assert "bitset" in available_backends()
    assert type(get_backend("bitset")) is BitsetBackend


def test_bitset_engine_string_accepted():
    dfg = small_example()
    ref = classify_antichains(dfg, 2, None, backend="fused")
    got = classify_antichains(dfg, 2, None, backend="bitset")
    assert_catalogs_identical(got, ref)


def test_unknown_engine_error_lists_bitset():
    with pytest.raises(BackendError, match="available: bitset"):
        classify_antichains(small_example(), 2, backend="bogus")


def test_availability_reports_numpy_and_native_state(monkeypatch):
    assert "numpy" in bitset_availability()
    monkeypatch.setattr(bitset_mod, "_native", None)
    assert "numpy expand" in bitset_availability()
    monkeypatch.setattr(bitset_mod, "np", None)
    assert "fallback" in bitset_availability()
    # The seam every backend exposes for `repro backends`.
    assert get_backend("serial").availability() == "pure python"
    assert "numpy" in get_backend("process").availability()


def test_describe_includes_availability():
    assert bitset_availability() in BITSET.describe()


def test_store_antichains_raises():
    with pytest.raises(PatternError, match="cannot store raw antichains"):
        classify_antichains(
            small_example(), 2, store_antichains=True, backend=BITSET
        )


# --------------------------------------------------------------------------- #
# support predicate / fallback routing
# --------------------------------------------------------------------------- #


def test_supported_bounds():
    assert bitset_supported(10, 3)
    # (n+1)**max_size past int64 → unsupported, scalar fallback.
    assert not bitset_supported(120, 10)


def test_unsupported_key_range_falls_back_to_scalar():
    from tests.conftest import chain

    dfg = chain(120)
    assert not bitset_supported(dfg.n_nodes, 10)
    ref = classify_antichains(dfg, 10, None, backend="fused")
    got = classify_antichains(dfg, 10, None, backend=BITSET)
    assert_catalogs_identical(got, ref)


def test_numpy_absent_falls_back_to_scalar(monkeypatch):
    monkeypatch.setattr(bitset_mod, "np", None)
    assert not bitset_supported(4, 2)
    dfg = three_point_dft_paper()
    ref = classify_antichains(dfg, 5, 1, backend="fused")
    got = classify_antichains(dfg, 5, 1, backend=BitsetBackend())
    assert_catalogs_identical(got, ref)


def test_single_job_process_build_runs_the_bitset_kernel(monkeypatch):
    # With one job the process backend classifies in-process and starts no
    # pool; it must run the partition step its workers run (the bitset
    # pass kernel over the 16-partition plan), in one call.
    from repro.exec import process as process_mod

    calls = []
    step = process_mod.classify_partition_rows

    def spy(*args, **kwargs):
        calls.append(len(args[2]))
        return step(*args, **kwargs)

    monkeypatch.setattr(process_mod, "classify_partition_rows", spy)
    dfg = radix2_fft(16)
    config = SelectionConfig(span_limit=1, max_pattern_size=3)
    backend = get_backend("process", jobs=1)
    got = PatternSelector(5, config=config).build_catalog(dfg, backend=backend)
    assert calls == [process_mod.EDIT_PARTITIONS]
    assert backend.pool_generation() == 0
    serial = PatternSelector(5, config=config).build_catalog(dfg, backend="serial")
    assert_catalogs_identical(got, serial)


def test_validation_matches_scalar():
    dfg = small_example()
    enum = AntichainEnumerator(dfg)
    labels, _ = dfg.color_labels()
    with pytest.raises(GraphError, match="labels has 2 entries"):
        classify_by_label_bitset(enum, labels[:2], 2)
    with pytest.raises(GraphError, match="out of range"):
        classify_by_label_bitset(enum, labels, 2, roots=[99])


def test_max_count_error_identical():
    dfg = radix2_fft(8)
    enum = AntichainEnumerator(dfg)
    labels, _ = dfg.color_labels()
    with pytest.raises(EnumerationLimitError) as ref:
        enum.classify_by_label(labels, 4, None, max_count=100)
    with pytest.raises(EnumerationLimitError) as got:
        classify_by_label_bitset(enum, labels, 4, None, max_count=100)
    assert str(got.value) == str(ref.value)


# --------------------------------------------------------------------------- #
# equivalence: fixed cases, paper graphs, fft16/fft64
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("kind, seed, a, b, capacity, span", RANDOM_CASES)
def test_catalog_equivalence_random(kind, seed, a, b, capacity, span):
    dfg = _case_graph(kind, seed, a, b)
    serial = classify_antichains(dfg, capacity, span, backend="serial")
    fused = classify_antichains(dfg, capacity, span, backend="fused")
    got = classify_antichains(dfg, capacity, span, backend=BITSET)
    assert_catalogs_identical(got, serial)
    assert_catalogs_identical(got, fused)


def test_catalog_equivalence_paper_graphs():
    for dfg, capacity, span in [
        (small_example(), 2, None),
        (three_point_dft_paper(), 5, 1),
        (three_point_dft_paper(), 5, None),
        (radix2_fft(8), 4, 1),
        (radix2_fft(8), 4, None),
    ]:
        serial = classify_antichains(dfg, capacity, span, backend="serial")
        got = classify_antichains(dfg, capacity, span, backend=BITSET)
        assert_catalogs_identical(got, serial)


@pytest.mark.parametrize("points, capacity", [(16, 3), (64, 2)])
def test_catalog_equivalence_fft(points, capacity):
    # The benchmark workloads; fused is the oracle here (itself pinned to
    # serial elsewhere) to keep the suite's runtime bounded.
    dfg = radix2_fft(points)
    fused = classify_antichains(dfg, capacity, 1, backend="fused")
    got = classify_antichains(dfg, capacity, 1, backend=BITSET)
    assert_catalogs_identical(got, fused)


def test_classifier_parameter_combos():
    for dfg, size, span in [
        (three_point_dft_paper(), 5, 1),
        (radix2_fft(8), 4, None),
        (layered_dag(23, layers=5, width=4, colors=("a", "b", "c")), 4, None),
        (random_dag(42, 12, edge_prob=0.45), 4, 1),
    ]:
        n = dfg.n_nodes
        _check_graph(dfg, size, span)
        _check_graph(dfg, size, span, roots=list(range(0, n, 3)))
        _check_graph(dfg, size, span, min_size=2)
        _check_graph(
            dfg, size, span, roots=list(range(0, n, 2)), min_size=2
        )


# --------------------------------------------------------------------------- #
# hypothesis sweep
# --------------------------------------------------------------------------- #


@st.composite
def _random_case(draw):
    if draw(st.booleans()):
        dfg = layered_dag(
            draw(st.integers(0, 2**31)),
            layers=draw(st.integers(2, 5)),
            width=draw(st.integers(2, 5)),
            colors=("a", "b", "c"),
        )
    else:
        dfg = random_dag(
            draw(st.integers(0, 2**31)),
            draw(st.integers(4, 16)),
            edge_prob=draw(st.floats(0.1, 0.6)),
        )
    capacity = draw(st.integers(2, 4))
    span = draw(st.one_of(st.none(), st.integers(0, 2)))
    return dfg, capacity, span


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_random_case())
def test_hypothesis_catalog_equivalence(case):
    dfg, capacity, span = case
    fused = classify_antichains(dfg, capacity, span, backend="fused")
    got = classify_antichains(dfg, capacity, span, backend=BITSET)
    assert_catalogs_identical(got, fused)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_random_case(), st.integers(2, 4))
def test_hypothesis_pipeline_bit_identical(case, pdef):
    dfg, capacity, span = case
    if pdef * capacity < len(dfg.colors()):
        pdef = -(-len(dfg.colors()) // capacity)
    config = SelectionConfig(span_limit=span, widen_to_capacity=True)
    ref = run_flow(dfg, capacity, pdef, config, "serial")
    got = run_flow(dfg, capacity, pdef, config, BITSET)
    assert_results_identical(got, ref)


# --------------------------------------------------------------------------- #
# forced fallback: compiled expansion kernel absent
# --------------------------------------------------------------------------- #


def _random_allowed_rows(rng, frames, n):
    """Random packed rows with no bit set at or above ``n``, as in a pass."""
    words = max(1, (n + 63) // 64)
    bits = rng.integers(0, 2, size=(frames, words * 64), dtype=np.uint8)
    bits[:, n:] = 0
    rows = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
    return np.ascontiguousarray(rows), words


def _reference_expand(rows):
    """Set-bit ``(frame, node)`` coordinates by the plain 2-D nonzero."""
    bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")
    return np.nonzero(bits)


def test_native_kernel_matches_numpy_expand():
    native = bitset_mod._native_module()
    if native is None:
        pytest.skip("compiled expansion kernel not built")
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 2**63, size=(37, 3), dtype=np.uint64)
    pbytes, nbytes = native.expand(np.ascontiguousarray(rows), 37, 3)
    par = np.frombuffer(pbytes, dtype=np.int64)
    nod = np.frombuffer(nbytes, dtype=np.int64)
    rpar, rnod = _reference_expand(rows)
    assert (par == rpar).all()
    assert (nod == rnod).all()


@pytest.mark.parametrize("n", [1, 7, 37, 64, 65, 150])
def test_numpy_expand_matches_reference(monkeypatch, n):
    # The pure numpy expansion is the path every host without the
    # compiled kernel runs, so it is pinned here whether or not the
    # kernel is built.  A small chunk size makes every call span several
    # chunks, so the per-chunk frame offsets are exercised too.
    monkeypatch.setattr(bitset_mod, "_native", None)
    monkeypatch.setattr(bitset_mod, "_EXPAND_CHUNK_BYTES", 24)
    rng = np.random.default_rng(n)
    rows, words = _random_allowed_rows(rng, 29, n)
    chunks = list(bitset_mod._expand_rows(rows, words, n))
    assert len(chunks) > 1
    for _, par, nod in chunks:
        assert par.dtype == np.int64 and nod.dtype == np.int64
    par = np.concatenate([off + par for off, par, _ in chunks])
    nod = np.concatenate([nod for _, _, nod in chunks])
    rpar, rnod = _reference_expand(rows)
    assert par.tolist() == rpar.tolist()
    assert nod.tolist() == rnod.tolist()


@pytest.mark.parametrize("kind, seed, a, b, capacity, span", RANDOM_CASES[:3])
def test_forced_fallback_equivalence(monkeypatch, kind, seed, a, b, capacity, span):
    monkeypatch.setattr(bitset_mod, "_native", None)
    dfg = _case_graph(kind, seed, a, b)
    fused = classify_antichains(dfg, capacity, span, backend="fused")
    got = classify_antichains(dfg, capacity, span, backend=BitsetBackend())
    assert_catalogs_identical(got, fused)


def test_repro_no_native_env_var():
    code = (
        "from repro.exec import bitset\n"
        "assert bitset._native is None, bitset._native\n"
        "print('fallback-active')\n"
    )
    env = dict(os.environ, REPRO_NO_NATIVE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert out.returncode == 0, out.stderr
    assert "fallback-active" in out.stdout


# --------------------------------------------------------------------------- #
# shared kernels: packed rows, partition rows, seed weights
# --------------------------------------------------------------------------- #


def test_packed_rows_memoized_and_match_masks():
    dfg = radix2_fft(8)
    rows, words = packed_incomparable_rows(dfg)
    assert packed_incomparable_rows(dfg)[0] is rows
    from repro.dfg.traversal import comparability_masks

    comp = comparability_masks(dfg)
    n = dfg.n_nodes
    full = (1 << n) - 1
    for i in range(n):
        expect = (full & ~((1 << (i + 1)) - 1)) & ~comp[i]
        got = int.from_bytes(rows[i].tobytes(), "little")
        assert got == expect, i


def _deep_graph():
    """67 nodes (two-word rows) over 13 ASAP levels, mobility 0 to 12.

    The two isolated nodes sit at ASAP 0 and ALAP 12, so for every
    ``L >= 1`` both window clips fire: ``mn + L > top`` and
    ``mx - L < 0``.
    """
    dfg = layered_dag(7, 13, 5, 0.4)
    dfg.add_node("float0", "a")
    dfg.add_node("float1", "b")
    return dfg


def _expand_paths():
    """The numpy expansion always; the compiled kernel when it is built."""
    native = bitset_mod._native_module()
    return [None] if native is None else [None, native]


def _window_bits(table):
    return [int.from_bytes(row.tobytes(), "little") for row in table]


def test_level_windows_memoized_match_levels_and_reset_on_mutation():
    dfg = _deep_graph()
    early, late, top = packed_level_windows(dfg)
    assert packed_level_windows(dfg)[0] is early
    assert packed_level_windows(dfg)[1] is late
    assert not early.flags.writeable and not late.flags.writeable

    def check(dfg, early, late, top):
        enum = AntichainEnumerator(dfg)
        _, words = packed_incomparable_rows(dfg)
        assert top == enum.levels.asap_max
        assert early.shape == late.shape == (top + 1, words)
        for t, (e, lt) in enumerate(zip(_window_bits(early), _window_bits(late))):
            assert e == sum(1 << c for c, a in enumerate(enum._asap) if a <= t)
            assert lt == sum(1 << c for c, a in enumerate(enum._alap) if a >= t)

    check(dfg, early, late, top)
    # One level deeper: the mutation drops the tables with the cache.
    dfg.add_node("tail", "c")
    dfg.add_edge(dfg.nodes[64], "tail")
    again = packed_level_windows(dfg)
    assert again[0] is not early and again[2] == top + 1
    check(dfg, *again)


@pytest.mark.parametrize("span", [0, 1, 2, "levels"])
def test_span_window_boundaries_match_scalar(monkeypatch, span):
    dfg = _deep_graph()
    enum = AntichainEnumerator(dfg)
    labels, _ = dfg.color_labels()
    top = enum.levels.asap_max
    assert top >= 12 and packed_incomparable_rows(dfg)[1] >= 2
    span = top if span == "levels" else span
    if span:
        assert any(al + span > top for al in enum._alap)
        assert any(a - span < 0 for a in enum._asap)
    n = dfg.n_nodes
    groups = [list(range(g, n, 3)) for g in range(3)]
    for size in range(2, 6):
        refs = {
            roots: enum.classify_by_label(labels, size, span, roots=roots)
            for roots in (None, tuple(range(1, n, 2)))
        }
        ref_rows = [_scalar_rows(enum, labels, g, size, span, None) for g in groups]
        for native in _expand_paths():
            monkeypatch.setattr(bitset_mod, "_native", native)
            for roots, ref in refs.items():
                got = classify_by_label_bitset(enum, labels, size, span, roots=roots)
                assert_classifications_identical(got, ref)
            assert classify_rows_bitset(enum, labels, size, span, groups) == ref_rows


@pytest.mark.parametrize("span", [0, 2, "levels"])
def test_span_window_max_count_one_below(monkeypatch, span):
    dfg = _deep_graph()
    enum = AntichainEnumerator(dfg)
    labels, _ = dfg.color_labels()
    span = enum.levels.asap_max if span == "levels" else span
    ref = enum.classify_by_label(labels, 4, span, max_count=None)
    total = sum(cls.count for cls in ref.values())
    with pytest.raises(EnumerationLimitError) as want:
        enum.classify_by_label(labels, 4, span, max_count=total - 1)
    groups = [[0, 1, 2], list(range(3, dfg.n_nodes))]
    for native in _expand_paths():
        monkeypatch.setattr(bitset_mod, "_native", native)
        with pytest.raises(EnumerationLimitError) as got:
            classify_by_label_bitset(enum, labels, 4, span, max_count=total - 1)
        assert str(got.value) == str(want.value)
        with pytest.raises(EnumerationLimitError) as got:
            classify_rows_bitset(enum, labels, 4, span, groups, max_count=total - 1)
        assert str(got.value) == str(want.value)
        exact = classify_by_label_bitset(enum, labels, 4, span, max_count=total)
        assert_classifications_identical(exact, ref)


def _scalar_rows(enum, labels, seeds, size, span, max_count):
    """Reference partition rows from the scalar in-DFS classifier."""
    buckets = enum.classify_by_label(
        labels, size, span, max_count=max_count, roots=seeds
    )
    return [
        (
            key,
            cls.count,
            list(cls.first_seen),
            [int(cls.frequencies[i]) for i in cls.first_seen],
        )
        for key, cls in buckets.items()
    ]


def test_classify_partition_rows_engines_identical():
    dfg = radix2_fft(8)
    labels, _ = dfg.color_labels()
    enum = AntichainEnumerator(dfg)
    partitions = [list(range(0, dfg.n_nodes, 2)), [1, 3, 5], [7], [59]]
    got = classify_partition_rows(enum, labels, partitions, 4, 1, None)
    assert got == [
        _scalar_rows(enum, labels, seeds, 4, 1, None) for seeds in partitions
    ]
    # JSON-safe plain ints.
    for rows in got:
        for key, count, first_seen, values in rows:
            assert type(count) is int
            assert all(type(v) is int for v in values)
            assert all(type(i) is int for i in first_seen)
    assert classify_partition_rows(enum, labels, [], 4, 1, None) == []


@st.composite
def _batched_case(draw):
    dfg, _, _ = draw(_random_case())
    seeds = list(range(dfg.n_nodes))
    cuts = sorted(draw(st.sets(st.integers(1, len(seeds) - 1), max_size=7)))
    bounds = [0, *cuts, len(seeds)]
    plan = [seeds[a:b] for a, b in zip(bounds, bounds[1:])]
    # Cache hits leave gaps: only the missed partitions reach the call.
    kept = [p for p in plan if draw(st.booleans())] or plan[:1]
    capacity = draw(st.integers(1, 5))
    span = draw(st.sampled_from([None, 0, 1]))
    budget = draw(st.integers(0, 3000))
    return dfg, kept, capacity, span, budget


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_batched_case(), st.booleans())
def test_hypothesis_batched_rows_equal_per_partition_scalar(case, planned):
    # One batched call (any pass budget; without weights, one pass per
    # partition) must give every partition exactly the rows the scalar
    # classifier gives it alone.
    from unittest import mock

    from repro.exec import process as process_mod

    dfg, partitions, capacity, span, budget = case
    labels, _ = dfg.color_labels()
    enum = AntichainEnumerator(dfg)
    weights = None
    if planned:
        seed_w = estimate_seed_weights(dfg, list(range(dfg.n_nodes)))
        weights = [sum(seed_w[i] for i in seeds) for seeds in partitions]
    with mock.patch.object(process_mod, "_PASS_WEIGHT_BUDGET", budget):
        got = classify_partition_rows(
            enum, labels, partitions, capacity, span, None, weights=weights
        )
    assert got == [
        _scalar_rows(enum, labels, seeds, capacity, span, None)
        for seeds in partitions
    ]


def test_batched_pass_growing_buckets_between_depths():
    # Four seed groups over fft8 start with at most 12 depth-1 buckets
    # (group x color) and end with far more than the initial 16, so the
    # per-bucket matrices are reallocated between depths; every scatter
    # after that must land in the new arrays.
    dfg = radix2_fft(8)
    labels, colors = dfg.color_labels()
    assert len(colors) <= 3
    enum = AntichainEnumerator(dfg)
    n = dfg.n_nodes
    groups = [list(range(g, n, 4)) for g in range(4)]
    got = classify_rows_bitset(enum, labels, 4, 1, groups)
    singletons = sum(1 for rows in got for key, *_ in rows if len(key) == 1)
    assert singletons <= 16 < sum(len(rows) for rows in got)
    assert got == [_scalar_rows(enum, labels, seeds, 4, 1, None) for seeds in groups]


#: fft8 at capacity 4 holds 151 437 antichains at span 1 (no partition
#: over 17 354) and 78 351 at span 0, so this cap overflows span 1 only
#: when partitions are summed, and the adaptive retry succeeds at span 0.
_FFT8_CAP = 100_000


@pytest.mark.parametrize("budget", [0, 10**12])
def test_overflowed_pass_raises_the_merge_error(monkeypatch, budget):
    # Budget 0 runs every partition alone, so only the merge sees the
    # overflow; an unbounded budget runs one pass, which must raise the
    # same error itself.
    from repro.exec import process as process_mod
    from repro.exec.process import merge_classified_parts, plan_seed_partitions

    monkeypatch.setattr(process_mod, "_PASS_WEIGHT_BUDGET", budget)
    dfg = radix2_fft(8)
    labels, _ = dfg.color_labels()
    enum = AntichainEnumerator(dfg)
    plan, weights = plan_seed_partitions(dfg, 16)
    scalar = [_scalar_rows(enum, labels, s, 4, 1, None) for s in plan]
    assert max(sum(r[1] for r in rows) for rows in scalar) <= _FFT8_CAP
    with pytest.raises(EnumerationLimitError) as merged:
        merge_classified_parts(
            dfg, scalar, capacity=4, span_limit=1, max_count=_FFT8_CAP
        )
    if budget == 0:
        rows = classify_partition_rows(
            enum, labels, plan, 4, 1, _FFT8_CAP, weights=weights
        )
        assert rows == scalar
        with pytest.raises(EnumerationLimitError) as batched:
            merge_classified_parts(
                dfg, rows, capacity=4, span_limit=1, max_count=_FFT8_CAP
            )
    else:
        with pytest.raises(EnumerationLimitError) as batched:
            classify_partition_rows(
                enum, labels, plan, 4, 1, _FFT8_CAP, weights=weights
            )
    assert str(batched.value) == str(merged.value)


@pytest.mark.parametrize("budget, cached", [(0, 32), (10**12, 16)])
def test_adaptive_span_retry_after_overflowed_pass(monkeypatch, budget, cached):
    # The span-1 attempt overflows (in one pass, or only at the merge);
    # the span-0 retry must give the monolithic fused catalog either way.
    # An overflowed pass caches none of its partitions' rows.
    from repro.exec import process as process_mod
    from repro.service import SchedulerService
    from repro.service.serialize import catalog_to_dict

    monkeypatch.setattr(process_mod, "_PASS_WEIGHT_BUDGET", budget)
    dfg = radix2_fft(8)
    config = SelectionConfig(max_antichains=_FFT8_CAP)
    backend = get_backend("fused")
    with SchedulerService() as svc:
        catalog, hits, misses = svc._build_catalog(
            dfg, PatternSelector(4, config=config), svc._classify_here(dfg, svc.backend)
        )
        assert hits == 0
        assert misses == 32  # both attempts probed
        assert len(svc._shard_parts) == cached
    assert catalog.span_limit == 0
    reference = PatternSelector(4, config=config).build_catalog(
        dfg, backend=backend
    )
    assert catalog_to_dict(catalog) == catalog_to_dict(reference)


def test_estimate_seed_weights_vectorized_matches_pure(monkeypatch):
    from repro.exec import process as process_mod

    dfg = radix2_fft(16)
    seeds = list(range(dfg.n_nodes))
    vec_all = estimate_seed_weights(dfg, seeds)
    vec_some = estimate_seed_weights(dfg, seeds[3:40])
    monkeypatch.setattr(process_mod, "_np", None)
    assert estimate_seed_weights(dfg, seeds) == vec_all
    assert estimate_seed_weights(dfg, seeds[3:40]) == vec_some
    assert all(type(w) is int for w in vec_all)


# --------------------------------------------------------------------------- #
# numpy spill regime
# --------------------------------------------------------------------------- #


def test_spill_regime_identical(monkeypatch):
    from repro.dfg import antichains

    dfg = radix2_fft(8)
    expected = classify_antichains(dfg, 4, 1, backend="serial")
    monkeypatch.setattr(antichains, "NUMPY_SPILL_THRESHOLD", 1)
    got = classify_antichains(dfg, 4, 1, backend=BITSET)
    assert_catalogs_identical(got, expected)
    for counter in got.frequencies.values():
        assert all(type(v) is int for v in counter.values())
    # Below the (patched) threshold boundary the raw classifier must hand
    # back numpy buffers exactly like the scalar one does.
    enum = AntichainEnumerator(dfg)
    labels, _ = dfg.color_labels()
    buckets = classify_by_label_bitset(enum, labels, 4, 1)
    assert all(
        isinstance(c.frequencies, np.ndarray) for c in buckets.values()
    )
