"""The partitioned build against the sequential references.

The equivalence tests pin the partitioned build (plan →
``classify_partition_rows`` → merge) bit-identical to the reference
classifier, and the whole fast pipeline to the reference loops — catalogs
(including Counter insertion order), selection rounds (exact floats) and
schedules — over random DAGs and paper graphs.  The ``test_process_*``
names are kept from the retired process backend, which ran the same
build.  The numpy bucket spill is exercised by forcing the threshold
down.
"""

from __future__ import annotations

import pytest

from repro.core.config import SelectionConfig
from repro.core.selection import PatternSelector
from repro.exceptions import EnumerationLimitError
from repro.patterns.enumeration import classify_antichains
from repro.scheduling.scheduler import MultiPatternScheduler
from repro.workloads import small_example, three_point_dft_paper
from repro.workloads.fft import radix2_fft
from repro.workloads.synthetic import layered_dag, random_dag
from tests.conftest import reference_build_catalog, reference_catalog, reference_select


def assert_catalogs_identical(a, b):
    assert list(a.frequencies) == list(b.frequencies)
    assert a.antichain_counts == b.antichain_counts
    for p, counter in b.frequencies.items():
        assert list(a.frequencies[p].items()) == list(counter.items()), p


def run_flow(dfg, capacity, pdef, config):
    """``(catalog, selection, schedule)`` of ``dfg`` on the fast paths."""
    selector = PatternSelector(capacity, config=config)
    catalog = selector.build_catalog(dfg)
    selection = selector.select(dfg, pdef, catalog=catalog)
    schedule = MultiPatternScheduler(selection.library).schedule(dfg)
    return catalog, selection, schedule


def run_reference_flow(dfg, capacity, pdef, config):
    """:func:`run_flow` on the three reference implementations."""
    selector = PatternSelector(capacity, config=config)
    catalog = reference_build_catalog(selector, dfg)
    selection = reference_select(selector, dfg, pdef, catalog=catalog)
    schedule = MultiPatternScheduler(selection.library)._schedule_reference(dfg)
    return catalog, selection, schedule


def assert_results_identical(a, b):
    """Full :func:`run_flow` comparison: catalog, selection rounds, schedule."""
    (cat_a, sel_a, sched_a), (cat_b, sel_b, sched_b) = a, b
    assert_catalogs_identical(cat_a, cat_b)
    assert sel_a.library == sel_b.library
    for fr, rr in zip(sel_a.rounds, sel_b.rounds):
        assert dict(fr.priorities) == dict(rr.priorities)
        assert (fr.chosen, fr.fallback, fr.deleted) == (
            rr.chosen, rr.fallback, rr.deleted
        )
    assert sched_a.cycles == sched_b.cycles
    assert dict(sched_a.assignment) == dict(sched_b.assignment)
    assert list(sched_a.assignment) == list(sched_b.assignment)


def test_jobs_keyword_is_gone():
    # Nothing has a worker count any more: ``jobs`` is accepted nowhere.
    from repro.service import AsyncServiceServer, SchedulerService

    with pytest.raises(TypeError, match="jobs"):
        SchedulerService(jobs=2)
    with pytest.raises(TypeError, match="jobs"):
        AsyncServiceServer(port=0, jobs=2)


# --------------------------------------------------------------------------- #
# the partitioned build: classification equivalence against the reference
# --------------------------------------------------------------------------- #

RANDOM_CASES = [
    # (kind, seed, a, b, capacity, span)
    ("layered", 7, 4, 5, 3, 1),
    ("layered", 23, 5, 4, 4, None),
    ("layered", 104, 3, 6, 5, 0),
    ("er", 11, 14, 0.2, 3, 1),
    ("er", 42, 12, 0.45, 4, None),
]


def _case_graph(kind, seed, a, b):
    if kind == "layered":
        return layered_dag(seed, layers=a, width=b, colors=("a", "b", "c"))
    return random_dag(seed, a, edge_prob=b)


@pytest.mark.parametrize("kind, seed, a, b, capacity, span", RANDOM_CASES)
def test_process_classification_equivalence_random(kind, seed, a, b, capacity, span):
    dfg = _case_graph(kind, seed, a, b)
    reference = reference_catalog(dfg, capacity, span)
    assert_catalogs_identical(classify_antichains(dfg, capacity, span), reference)


def test_process_classification_equivalence_paper_graphs():
    for dfg, capacity, span in [
        (small_example(), 2, None),
        (three_point_dft_paper(), 5, 1),
        (three_point_dft_paper(), 5, None),
        (radix2_fft(8), 4, 1),
    ]:
        reference = reference_catalog(dfg, capacity, span)
        fast = classify_antichains(dfg, capacity, span)
        assert_catalogs_identical(fast, reference)


def test_process_single_job_falls_back_in_process():
    # The retired process backend's one-job build is the partitioned build.
    dfg = three_point_dft_paper()
    assert_catalogs_identical(
        classify_antichains(dfg, 5, 1), reference_catalog(dfg, 5, 1)
    )


def test_build_catalog_store_antichains_routes_to_serial():
    # Only the sequential reference classifier can materialize raw
    # antichains; the selector's catalog build routes there.
    selector = PatternSelector(
        5, SelectionConfig(span_limit=1, store_antichains=True)
    )
    dfg = three_point_dft_paper()
    catalog = selector.build_catalog(dfg)
    reference = reference_build_catalog(selector, dfg)
    assert catalog.antichains  # raw antichains really stored
    assert_catalogs_identical(catalog, reference)
    assert catalog.antichains == reference.antichains


def test_process_max_count_limit_propagates():
    dfg = radix2_fft(8)
    with pytest.raises(EnumerationLimitError) as want:
        reference_catalog(dfg, 4, None, max_count=10)
    with pytest.raises(EnumerationLimitError) as got:
        classify_antichains(dfg, 4, None, max_count=10)
    assert str(got.value) == str(want.value)


# --------------------------------------------------------------------------- #
# fast paths vs references: full pipeline bit-identity
# --------------------------------------------------------------------------- #

PIPELINE_CASES = [
    ("layered", 5, 4, 4, 3, 1, 3),
    ("layered", 77, 3, 5, 4, None, 2),
    ("er", 19, 13, 0.3, 3, 1, 4),
]


@pytest.mark.parametrize(
    "kind, seed, a, b, capacity, span, pdef", PIPELINE_CASES
)
def test_pipeline_bit_identical_across_backends(
    kind, seed, a, b, capacity, span, pdef
):
    dfg = _case_graph(kind, seed, a, b)
    if pdef * capacity < len(dfg.colors()):
        pdef = -(-len(dfg.colors()) // capacity)
    config = SelectionConfig(span_limit=span, widen_to_capacity=True)
    assert_results_identical(
        run_flow(dfg, capacity, pdef, config),
        run_reference_flow(dfg, capacity, pdef, config),
    )


# --------------------------------------------------------------------------- #
# numpy bucket spill
# --------------------------------------------------------------------------- #


def test_freq_buffer_spills_to_numpy(monkeypatch):
    from repro.dfg import antichains

    if antichains._np is None:  # pragma: no cover - container ships numpy
        pytest.skip("numpy unavailable")
    monkeypatch.setattr(antichains, "NUMPY_SPILL_THRESHOLD", 4)
    buf = antichains._freq_buffer(10)
    assert isinstance(buf, antichains._np.ndarray)
    assert antichains._freq_buffer(3) == [0, 0, 0]


def test_freq_buffer_falls_back_without_numpy(monkeypatch):
    from repro.dfg import antichains

    monkeypatch.setattr(antichains, "_np", None)
    monkeypatch.setattr(antichains, "NUMPY_SPILL_THRESHOLD", 1)
    assert antichains._freq_buffer(4) == [0, 0, 0, 0]


def test_classification_identical_in_numpy_spill_regime(monkeypatch):
    from repro.dfg import antichains

    if antichains._np is None:  # pragma: no cover
        pytest.skip("numpy unavailable")
    dfg = radix2_fft(8)
    expected = reference_catalog(dfg, 4, 1)
    monkeypatch.setattr(antichains, "NUMPY_SPILL_THRESHOLD", 1)
    spilled = classify_antichains(dfg, 4, 1)
    assert_catalogs_identical(spilled, expected)
    # Counter values must be plain python ints even off numpy buffers.
    for counter in spilled.frequencies.values():
        assert all(type(v) is int for v in counter.values())
