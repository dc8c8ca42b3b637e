"""Execution backend subsystem: registry resolution + backend equivalence.

The registry tests pin name/alias resolution and error behavior; the
equivalence tests pin the process backend bit-identical to the fused and
serial backends — catalogs (including Counter insertion order), selection
rounds (exact floats) and schedules — over random DAGs and paper graphs.
The numpy bucket spill is exercised by forcing the threshold down.
"""

from __future__ import annotations

import pytest

from repro.core.config import SelectionConfig
from repro.core.selection import PatternSelector
from repro.exceptions import (
    BackendError,
    EnumerationLimitError,
    PatternError,
)
from repro.exec import (
    FusedBackend,
    ProcessBackend,
    SerialBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.patterns.enumeration import classify_antichains
from repro.scheduling.scheduler import MultiPatternScheduler
from repro.workloads import small_example, three_point_dft_paper
from repro.workloads.fft import radix2_fft
from repro.workloads.synthetic import layered_dag, random_dag


def assert_catalogs_identical(a, b):
    assert list(a.frequencies) == list(b.frequencies)
    assert a.antichain_counts == b.antichain_counts
    for p, counter in b.frequencies.items():
        assert list(a.frequencies[p].items()) == list(counter.items()), p


def run_flow(dfg, capacity, pdef, config, backend):
    """``(catalog, selection, schedule)`` of ``dfg`` on one backend."""
    selector = PatternSelector(capacity, config=config)
    catalog = selector.build_catalog(dfg, backend=backend)
    selection = selector.select(dfg, pdef, catalog=catalog, backend=backend)
    schedule = MultiPatternScheduler(selection.library).schedule(
        dfg, backend=backend
    )
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


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #


def test_available_backends_lists_builtins():
    names = available_backends()
    assert {"serial", "fused", "process"} <= set(names)


@pytest.mark.parametrize(
    "name, cls",
    [
        ("serial", SerialBackend),
        ("fused", FusedBackend),
        ("process", ProcessBackend),
    ],
)
def test_get_backend_resolves_names_and_aliases(name, cls):
    assert type(get_backend(name)) is cls


@pytest.mark.parametrize(
    "name", ["reference", "fast", "parallel", "mp", "vectorized"]
)
def test_get_backend_rejects_removed_aliases(name):
    with pytest.raises(BackendError, match=f"unknown execution backend '{name}'"):
        get_backend(name)


def test_get_backend_unknown_name_raises():
    with pytest.raises(BackendError, match="unknown execution backend 'bogus'"):
        get_backend("bogus")
    with pytest.raises(BackendError, match="available"):
        get_backend("bogus")


def test_get_backend_rejects_non_string_non_backend():
    with pytest.raises(BackendError, match="ExecutionBackend or a name"):
        get_backend(42)  # type: ignore[arg-type]


def test_get_backend_passes_instances_through():
    backend = ProcessBackend(jobs=3)
    assert get_backend(backend) is backend


def test_get_backend_forwards_jobs():
    assert get_backend("process", jobs=7).jobs == 7
    assert get_backend("process").jobs is None
    # serial/fused accept and ignore jobs uniformly
    assert get_backend("serial", jobs=7).name == "serial"


def test_process_backend_rejects_bad_jobs():
    with pytest.raises(BackendError, match="jobs must be"):
        ProcessBackend(jobs=0)


def test_register_backend_custom_and_replace():
    class Dummy(SerialBackend):
        name = "dummy-backend"

    register_backend("dummy-backend", Dummy)
    try:
        assert type(get_backend("dummy-backend")) is Dummy
        assert "dummy-backend" in available_backends()
    finally:
        from repro.exec import registry

        registry._FACTORIES.pop("dummy-backend", None)


def test_register_backend_rejects_bad_name():
    with pytest.raises(BackendError, match="non-empty string"):
        register_backend("", SerialBackend)


def test_describe():
    assert get_backend("serial").describe() == "serial"
    assert get_backend("process", jobs=2).describe() == "process(jobs=2)"


# --------------------------------------------------------------------------- #
# process backend: classification equivalence
# --------------------------------------------------------------------------- #

PROCESS = ProcessBackend(jobs=2)

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
    fused = classify_antichains(dfg, capacity, span)
    proc = classify_antichains(dfg, capacity, span, backend=PROCESS)
    assert_catalogs_identical(proc, fused)


def test_process_classification_equivalence_paper_graphs():
    for dfg, capacity, span in [
        (small_example(), 2, None),
        (three_point_dft_paper(), 5, 1),
        (three_point_dft_paper(), 5, None),
        (radix2_fft(8), 4, 1),
    ]:
        fused = classify_antichains(dfg, capacity, span)
        proc = classify_antichains(dfg, capacity, span, backend=PROCESS)
        assert_catalogs_identical(proc, fused)


def test_process_single_job_falls_back_in_process():
    dfg = three_point_dft_paper()
    backend = ProcessBackend(jobs=1)
    fused = classify_antichains(dfg, 5, 1)
    proc = classify_antichains(dfg, 5, 1, backend=backend)
    assert_catalogs_identical(proc, fused)


def test_build_catalog_store_antichains_routes_to_serial():
    # Only the serial classifier can materialize raw antichains; the
    # selector's catalog build routes there even on fused/process backends.
    selector = PatternSelector(
        5, SelectionConfig(span_limit=1, store_antichains=True)
    )
    for backend in ("fused", PROCESS):
        catalog = selector.build_catalog(three_point_dft_paper(), backend=backend)
        assert catalog.antichains  # raw antichains really stored


def test_process_store_antichains_raises():
    with pytest.raises(PatternError, match="cannot store raw antichains"):
        classify_antichains(
            small_example(), 2, store_antichains=True, backend=PROCESS
        )
    with pytest.raises(PatternError, match="cannot store raw antichains"):
        classify_antichains(
            small_example(), 2, store_antichains=True, backend="fused"
        )


def test_process_max_count_limit_propagates():
    dfg = radix2_fft(8)
    with pytest.raises(EnumerationLimitError):
        classify_antichains(dfg, 4, None, max_count=10, backend=PROCESS)


# --------------------------------------------------------------------------- #
# all three backends: full pipeline bit-identity
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
    serial, fused, process = (
        run_flow(dfg, capacity, pdef, config, backend)
        for backend in ("serial", "fused", PROCESS)
    )
    assert_results_identical(fused, serial)
    assert_results_identical(process, serial)


def test_selector_and_scheduler_accept_backend_objects():
    dfg = three_point_dft_paper()
    selector = PatternSelector(5, SelectionConfig(span_limit=1))
    ref = selector.select(dfg, 4, backend="serial")
    for backend in (SerialBackend(), FusedBackend(), PROCESS):
        got = selector.select(dfg, 4, backend=backend)
        assert got.library == ref.library
        sched_ref = MultiPatternScheduler(ref.library).schedule(
            dfg, backend="serial"
        )
        sched = MultiPatternScheduler(got.library).schedule(dfg, backend=backend)
        assert sched.cycles == sched_ref.cycles


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
    expected = classify_antichains(dfg, 4, 1, backend="serial")
    monkeypatch.setattr(antichains, "NUMPY_SPILL_THRESHOLD", 1)
    spilled = classify_antichains(dfg, 4, 1)
    assert_catalogs_identical(spilled, expected)
    # Counter values must be plain python ints even off numpy buffers.
    for counter in spilled.frequencies.values():
        assert all(type(v) is int for v in counter.values())
    proc = classify_antichains(dfg, 4, 1, backend=ProcessBackend(jobs=2))
    assert_catalogs_identical(proc, expected)


def test_get_backend_rejects_jobs_with_instance():
    from repro.exceptions import BackendError

    with pytest.raises(BackendError, match="cannot be combined"):
        get_backend(FusedBackend(), jobs=4)


def _one_pass_per_partition(monkeypatch):
    """Budget 0: every partition is a pass of its own, so even a 4-node
    chain has more than one pass and reaches the pool."""
    from repro.exec import process as process_mod

    monkeypatch.setattr(process_mod, "_PASS_WEIGHT_BUDGET", 0)


def test_process_persistent_pool_reused_across_calls(monkeypatch):
    from tests.conftest import chain

    _one_pass_per_partition(monkeypatch)
    dfg = chain(4)
    dfg2 = chain(5)
    with ProcessBackend(jobs=2) as backend:
        a = backend.classify(dfg, 2, None, max_count=None)
        gen_after_first = backend.pool_generation()
        # Same graph, different capacity/span: the pool survives.
        b = backend.classify(dfg, 3, 1, max_count=None)
        assert backend.pool_generation() == gen_after_first
        # A different graph retires the pool and starts a new one.
        backend.classify(dfg2, 2, None, max_count=None)
        assert backend.pool_generation() == gen_after_first + 1
    # Closed: a fresh call simply re-acquires.
    ref = FusedBackend().classify(dfg, 2, None, max_count=None)
    assert a.frequencies == ref.frequencies
    assert b.capacity == 3


def test_process_persistent_pool_retired_on_graph_mutation(monkeypatch):
    from tests.conftest import chain

    _one_pass_per_partition(monkeypatch)
    dfg = chain(4)
    with ProcessBackend(jobs=2) as backend:
        backend.classify(dfg, 2, None, max_count=None)
        gen = backend.pool_generation()
        # Workers hold the graph as pickled at pool creation; an in-place
        # mutation must retire the pool (stale workers would classify the
        # old graph), and the fresh pool must see the new node.
        dfg.add_node("a9", "a")
        catalog = backend.classify(dfg, 2, None, max_count=None)
        assert backend.pool_generation() == gen + 1
        assert any("a9" in counter for counter in catalog.frequencies.values())
