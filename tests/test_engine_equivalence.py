"""Fast-engine vs reference-engine equivalence (the perf-PR contract).

The fused enumeration/classification engine, the incremental selection loop
and the integer scheduler hot loop are pure optimizations: for every input
they must produce **identical** output to the straightforward reference
implementations they shadow — identical catalogs (including per-pattern
Counter insertion order, which the Eq. 8 float summation order depends on),
identical selection rounds (priorities compared as exact floats), and
identical schedules.

Property tests drive both paths over random layered and Erdős-Rényi DAGs
with varied capacity / span / pdef; paper workloads pin the named graphs.
The same contract extends to the process execution backend (seed-node
partitioned multiprocess classification, see ``repro.exec.process``):
its merged catalogs must equal the fused engine's bit for bit, driven
here by a reduced-example property test (pool startup per example is
expensive) and exhaustively in ``tests/test_exec_backends.py``.  At job
level, a :class:`~repro.service.SchedulerService` submit answers
bit-identically whichever backend the request names (serial, fused,
bitset, process), on random graphs and on fft16/fft64.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SelectionConfig
from repro.core.selection import PatternSelector
from repro.dfg.antichains import AntichainEnumerator
from repro.exceptions import BackendError
from repro.patterns.enumeration import classify_antichains
from repro.scheduling.scheduler import MultiPatternScheduler
from repro.service import JobRequest, SchedulerService
from repro.workloads import five_point_dft, small_example, three_point_dft_paper
from repro.workloads.fft import radix2_fft
from repro.workloads.synthetic import layered_dag, random_dag

COMMON = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

layered_params = st.tuples(
    st.integers(0, 10_000),    # seed
    st.integers(2, 6),         # layers
    st.integers(2, 6),         # width
    st.integers(2, 5),         # capacity
    st.sampled_from([None, 0, 1, 2]),  # span limit
    st.integers(1, 6),         # pdef
    st.integers(1, 4),         # distinct colors
)

er_params = st.tuples(
    st.integers(0, 10_000),    # seed
    st.integers(2, 14),        # nodes
    st.floats(0.05, 0.6),      # edge probability
    st.integers(1, 4),         # capacity
    st.sampled_from([None, 1]),  # span limit
)


def assert_catalogs_identical(fast, ref):
    """Equal patterns, counts and frequencies — and equal iteration order.

    Counter order matters downstream: Eq. 8 sums floats in counter
    insertion order, so the engines must not just agree on values.
    """
    assert list(fast.frequencies) == list(ref.frequencies)
    assert fast.antichain_counts == ref.antichain_counts
    for p, ref_counter in ref.frequencies.items():
        fast_counter = fast.frequencies[p]
        assert list(fast_counter.items()) == list(ref_counter.items()), p


def assert_selections_identical(fast, ref):
    assert fast.library == ref.library
    assert len(fast.rounds) == len(ref.rounds)
    for fr, rr in zip(fast.rounds, ref.rounds):
        assert fr.index == rr.index
        assert fr.chosen == rr.chosen
        assert fr.fallback == rr.fallback
        assert fr.deleted == rr.deleted
        # Exact float equality — both engines share the same summation
        # order by construction; any drift here is a real bug.
        assert dict(fr.priorities) == dict(rr.priorities)


def assert_schedules_identical(fast, ref):
    assert fast.cycles == ref.cycles
    assert dict(fast.assignment) == dict(ref.assignment)
    assert list(fast.assignment) == list(ref.assignment)


# --------------------------------------------------------------------------- #
# classification
# --------------------------------------------------------------------------- #


@COMMON
@given(layered_params)
def test_classification_equivalence_layered(params):
    seed, layers, width, capacity, span, _, n_colors = params
    dfg = layered_dag(seed, layers=layers, width=width,
                      colors=tuple("abcd"[:n_colors]))
    fast = classify_antichains(dfg, capacity, span)
    ref = classify_antichains(dfg, capacity, span, backend="serial")
    assert_catalogs_identical(fast, ref)


@COMMON
@given(er_params)
def test_classification_equivalence_random(params):
    seed, n, prob, capacity, span = params
    dfg = random_dag(seed, n, edge_prob=prob)
    fast = classify_antichains(dfg, capacity, span)
    ref = classify_antichains(dfg, capacity, span, backend="serial")
    assert_catalogs_identical(fast, ref)


@COMMON
@given(er_params)
def test_count_by_size_matches_enumeration(params):
    seed, n, prob, capacity, span = params
    dfg = random_dag(seed, n, edge_prob=prob)
    enum = AntichainEnumerator(dfg)
    counted = enum.count_by_size(capacity, span)
    expected = {k: 0 for k in range(1, capacity + 1)}
    for members in enum.iter_index_antichains(capacity, span):
        expected[len(members)] += 1
    assert counted == expected


@settings(
    max_examples=8,  # one worker pool per example — keep the count tight
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(layered_params)
def test_process_backend_classification_equivalence(params):
    from repro.exec import ProcessBackend

    seed, layers, width, capacity, span, _, n_colors = params
    dfg = layered_dag(seed, layers=layers, width=width,
                      colors=tuple("abcd"[:n_colors]))
    fast = classify_antichains(dfg, capacity, span)
    proc = classify_antichains(
        dfg, capacity, span, backend=ProcessBackend(jobs=2)
    )
    assert_catalogs_identical(proc, fast)


def test_classification_equivalence_paper_graphs():
    for dfg, capacity, span in [
        (small_example(), 2, None),
        (three_point_dft_paper(), 5, 1),
        (three_point_dft_paper(), 5, None),
        (five_point_dft(), 5, 2),
        (radix2_fft(8), 4, 1),
    ]:
        fast = classify_antichains(dfg, capacity, span)
        ref = classify_antichains(dfg, capacity, span, backend="serial")
        assert_catalogs_identical(fast, ref)


# --------------------------------------------------------------------------- #
# selection
# --------------------------------------------------------------------------- #


@COMMON
@given(layered_params)
def test_selection_equivalence(params):
    seed, layers, width, capacity, span, pdef, n_colors = params
    dfg = layered_dag(seed, layers=layers, width=width,
                      colors=tuple("abcd"[:n_colors]))
    if pdef * capacity < len(dfg.colors()):
        pdef = -(-len(dfg.colors()) // capacity)
    selector = PatternSelector(capacity, SelectionConfig(span_limit=span))
    catalog = selector.build_catalog(dfg)
    fast = selector.select(dfg, pdef, catalog=catalog, backend="fused")
    ref = selector.select(dfg, pdef, catalog=catalog, backend="serial")
    assert_selections_identical(fast, ref)


def test_selection_equivalence_paper_graphs():
    for dfg, capacity, pdef, config in [
        (small_example(), 2, 2, SelectionConfig()),
        (three_point_dft_paper(), 5, 5, SelectionConfig(span_limit=1)),
        (three_point_dft_paper(), 5, 3, SelectionConfig(span_limit=None)),
        (five_point_dft(), 5, 4, SelectionConfig(span_limit=2)),
        (radix2_fft(16), 5, 5,
         SelectionConfig(span_limit=1, max_pattern_size=3,
                         widen_to_capacity=True)),
    ]:
        selector = PatternSelector(capacity, config)
        catalog = selector.build_catalog(dfg)
        fast = selector.select(dfg, pdef, catalog=catalog, backend="fused")
        ref = selector.select(dfg, pdef, catalog=catalog, backend="serial")
        assert_selections_identical(fast, ref)


def test_selection_auto_uses_reference_for_custom_priority():
    from repro.core.variants import linear_size

    dfg = small_example()
    selector = PatternSelector(2, priority_fn=linear_size)
    result = selector.select(dfg, 2)  # auto → reference loop; must not raise
    assert result.patterns
    # The fused backend falls back to the reference loop for custom
    # priorities instead of refusing.
    via_backend = selector.select(dfg, 2, backend="fused")
    assert_selections_identical(via_backend, result)
    via_serial = selector.select(dfg, 2, backend="serial")
    assert_selections_identical(via_serial, result)


def test_selection_rejects_unknown_engine():
    with pytest.raises(BackendError, match="unknown execution backend 'bogus'"):
        PatternSelector(2).select(small_example(), 2, backend="bogus")


@pytest.mark.parametrize(
    "chosen_colors",
    ["abcdefgh",  # 2^8-2=254 sub-bags >> 4*(3+4): forces the pool scan
     "aab"],      # 10 sub-bags: stays on the sub-bag enumeration branch
)
def test_deleted_subpatterns_branches_agree(chosen_colors):
    """Both deletion strategies find exactly the reference sub-pattern set."""
    from collections import Counter

    from repro.patterns.pattern import Pattern

    chosen = Pattern.from_string(chosen_colors)
    pool_patterns = [
        Pattern.from_string(s)
        for s in ["a", "ab", "aa", "abcdefg", "az", "b"]
    ]
    pool = {p: Counter({"n0": 1}) for p in pool_patterns}
    by_key = {p.key: p for p in pool}
    got = PatternSelector._deleted_subpatterns(chosen, pool, by_key)
    expected = tuple(
        sorted(q for q in pool if q != chosen and q.is_subpattern_of(chosen))
    )
    assert got == expected
    assert expected  # the fixture really deletes something


# --------------------------------------------------------------------------- #
# scheduling
# --------------------------------------------------------------------------- #


@COMMON
@given(layered_params)
def test_full_pipeline_equivalence(params):
    """Enumerate → select → schedule: every stage pinned fast-vs-reference."""
    seed, layers, width, capacity, span, pdef, n_colors = params
    dfg = layered_dag(seed, layers=layers, width=width,
                      colors=tuple("abcd"[:n_colors]))
    if pdef * capacity < len(dfg.colors()):
        pdef = -(-len(dfg.colors()) // capacity)
    selector = PatternSelector(
        capacity, SelectionConfig(span_limit=span, widen_to_capacity=True)
    )
    fast_cat = selector.build_catalog(dfg)
    ref_cat = classify_antichains(
        dfg, capacity if selector.config.max_pattern_size is None
        else min(capacity, selector.config.max_pattern_size),
        fast_cat.span_limit, backend="serial",
    )
    assert_catalogs_identical(fast_cat, ref_cat)

    fast_sel = selector.select(dfg, pdef, catalog=fast_cat, backend="fused")
    ref_sel = selector.select(dfg, pdef, catalog=ref_cat, backend="serial")
    assert_selections_identical(fast_sel, ref_sel)

    scheduler = MultiPatternScheduler(fast_sel.library)
    fast_sched = scheduler.schedule(dfg, backend="fused")
    ref_sched = scheduler.schedule(dfg, backend="serial")
    assert_schedules_identical(fast_sched, ref_sched)


@pytest.mark.parametrize("priority", ["f1", "f2"])
def test_scheduling_equivalence_paper_graphs(priority):
    for dfg, patterns, capacity in [
        (three_point_dft_paper(), ["aabbc", "abc"], 5),
        (small_example(), ["aa", "bb"], 2),
        (five_point_dft(), ["aabbc", "ccc"], 5),
        (radix2_fft(16), ["aabbc", "abccc"], 5),
    ]:
        scheduler = MultiPatternScheduler(
            patterns, capacity=capacity, priority=priority
        )
        fast = scheduler.schedule(dfg, backend="fused")
        ref = scheduler.schedule(dfg, backend="serial")
        assert_schedules_identical(fast, ref)


def test_scheduler_rejects_unknown_engine():
    scheduler = MultiPatternScheduler(["aa"], capacity=2)
    with pytest.raises(BackendError, match="unknown execution backend 'bogus'"):
        scheduler.schedule(small_example(), backend="bogus")


# --------------------------------------------------------------------------- #
# supporting fast-path APIs
# --------------------------------------------------------------------------- #


def test_comparability_masks_cached_and_invalidated():
    from repro.dfg.traversal import comparability_masks

    dfg = small_example()
    first = comparability_masks(dfg)
    assert comparability_masks(dfg) is first  # memoized
    dfg.add_node("extra", "a")
    rebuilt = comparability_masks(dfg)
    assert rebuilt is not first  # mutation invalidates
    assert len(rebuilt) == len(first) + 1
    dfg.add_edge(dfg.nodes[0], "extra")
    assert comparability_masks(dfg) is not rebuilt


def test_level_analysis_cached_and_invalidated():
    from repro.dfg.levels import LevelAnalysis

    dfg = small_example()
    first = LevelAnalysis.of(dfg)
    assert LevelAnalysis.of(dfg) is first
    dfg.add_node("extra", "a")
    assert LevelAnalysis.of(dfg) is not first


def test_from_counts_fast_path_matches_init():
    from repro.exceptions import PatternError
    from repro.patterns.pattern import Pattern

    via_counts = Pattern.from_counts({"b": 2, "a": 1, "z": 0})
    via_init = Pattern(["a", "b", "b"])
    assert via_counts == via_init
    assert hash(via_counts) == hash(via_init)
    assert via_counts.key == via_init.key
    assert via_counts.size == 3
    assert via_counts.counts == via_init.counts
    with pytest.raises(PatternError):
        Pattern.from_counts({})
    with pytest.raises(PatternError):
        Pattern.from_counts({"a": 0})  # drops to empty
    with pytest.raises(PatternError):
        Pattern.from_counts({"-": 2})


def test_classify_rejects_unknown_engine():
    with pytest.raises(BackendError, match="unknown execution backend 'bogus'"):
        classify_antichains(small_example(), 2, backend="bogus")


def test_classify_rejects_explicit_fast_with_stored_antichains():
    from repro.exceptions import PatternError

    with pytest.raises(PatternError, match="cannot store raw antichains"):
        classify_antichains(
            small_example(), 2, store_antichains=True, backend="fused"
        )


def test_store_antichains_forces_reference_semantics():
    """Catalogs built with stored antichains equal fused catalogs otherwise."""
    dfg = three_point_dft_paper()
    stored = classify_antichains(dfg, 3, 1, store_antichains=True)
    fused = classify_antichains(dfg, 3, 1)
    assert_catalogs_identical(fused, stored)
    assert stored.antichains and not fused.antichains
    for p, chains in stored.antichains.items():
        assert len(chains) == stored.antichain_counts[p]


# --------------------------------------------------------------------------- #
# every backend through the service: a job's answer never depends on the
# backend its request names
# --------------------------------------------------------------------------- #
SERVICE_BACKENDS = ("serial", "fused", "bitset", "process")

service_graphs = st.one_of(
    st.builds(
        layered_dag,
        st.integers(0, 10_000),
        st.integers(1, 4),
        st.integers(1, 6),
    ),
    st.builds(
        random_dag,
        st.integers(0, 10_000),
        st.integers(2, 14),
        st.sampled_from([0.1, 0.3, 0.5]),
    ),
)


def assert_backends_agree(request):
    """Cold-submit ``request`` once per backend; answers must be identical,
    Counter insertion order included."""
    answers = {}
    with SchedulerService() as service:
        for name in SERVICE_BACKENDS:
            service.clear_caches()
            result = service.submit(dataclasses.replace(request, backend=name))
            assert result.backend == name
            answers[name] = json.dumps(result.answer_dict())
    for name, answer in answers.items():
        assert answer == answers["fused"], name


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(service_graphs, st.integers(1, 4))
def test_service_backends_agree(dfg, pdef):
    assert_backends_agree(JobRequest(capacity=5, pdef=pdef, dfg=dfg))


@pytest.mark.parametrize(
    "workload, pdef, config",
    [
        ("fft16", 4, SelectionConfig(span_limit=1, max_pattern_size=3)),
        ("fft64", 3, SelectionConfig(span_limit=1, max_pattern_size=2)),
    ],
    ids=["fft16", "fft64"],
)
def test_service_backends_agree_fft(workload, pdef, config):
    assert_backends_agree(
        JobRequest(capacity=5, pdef=pdef, workload=workload, config=config)
    )
