"""Tests for the large-graph selection knobs.

``max_pattern_size`` caps catalog generation, ``adaptive_span`` tightens
the span limit on enumeration blowups, ``widen_to_capacity`` pads the
selected patterns back to the full ALU width.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import selection
from repro.core.config import SelectionConfig
from repro.core.selection import PatternSelector, select_patterns
from repro.dfg.antichains import antichain_count_floor, count_antichains_by_size
from repro.dfg.graph import DFG
from repro.exceptions import CycleError, EnumerationLimitError, SelectionError
from repro.patterns.enumeration import classify_antichains
from repro.scheduling.scheduler import MultiPatternScheduler
from repro.service import JobRequest, SchedulerService, ShardCoordinator
from repro.workloads import WORKLOADS
from repro.workloads.fft import radix2_fft
from repro.workloads.synthetic import layered_dag, random_dag


class TestMaxPatternSize:
    def test_caps_catalog(self, paper_3dft):
        capped = PatternSelector(
            5, SelectionConfig(max_pattern_size=2)
        ).build_catalog(paper_3dft)
        assert max(p.size for p in capped.patterns) == 2

    def test_validation(self):
        with pytest.raises(SelectionError, match="max_pattern_size"):
            SelectionConfig(max_pattern_size=0)

    def test_never_exceeds_capacity(self, paper_3dft):
        catalog = PatternSelector(
            3, SelectionConfig(max_pattern_size=10)
        ).build_catalog(paper_3dft)
        assert max(p.size for p in catalog.patterns) <= 3


class TestAdaptiveSpan:
    def test_tightens_on_blowup(self):
        # FFT-16 at size ≤ 3: 726k antichains at span ≤ 3, 612k at ≤ 2,
        # 461k at ≤ 1 — under a 500k ceiling the adaptive path must land
        # on span ≤ 1 instead of raising.
        dfg = radix2_fft(16)
        cfg = SelectionConfig(
            span_limit=3, max_pattern_size=3, max_antichains=500_000,
        )
        catalog = PatternSelector(5, cfg).build_catalog(dfg)
        assert catalog.span_limit == 1
        assert catalog.total_antichains() <= 500_000

    def test_disabled_raises_immediately(self):
        from repro.exceptions import EnumerationLimitError

        dfg = radix2_fft(16)
        cfg = SelectionConfig(
            span_limit=3, max_pattern_size=3, max_antichains=10_000,
            adaptive_span=False,
        )
        with pytest.raises(EnumerationLimitError):
            PatternSelector(5, cfg).build_catalog(dfg)

    def test_hopeless_graph_gets_guidance(self, monkeypatch):
        # Level-width floor 1160 <= cap 2000 < 2736 antichains at span 0:
        # the pre-flight lets the job through, so the ladder walks span 1
        # and span 0 and raises its own final error.
        dfg = layered_dag(2, layers=4, width=6, edge_prob=0.3)
        cfg = SelectionConfig(span_limit=1, max_antichains=2_000)
        spans = []

        def counting(dfg, size, span, **kwargs):
            spans.append(span)
            return classify_antichains(dfg, size, span, **kwargs)

        monkeypatch.setattr(selection, "classify_antichains", counting)
        with pytest.raises(SelectionError, match="max_pattern_size") as exc:
            PatternSelector(5, cfg).build_catalog(dfg)
        assert spans == [1, 0]
        assert "span ≤ 0" in str(exc.value.__cause__)

    def test_small_graph_unaffected(self, paper_3dft):
        cfg = SelectionConfig(span_limit=1)
        catalog = PatternSelector(5, cfg).build_catalog(paper_3dft)
        assert catalog.span_limit == 1


def _limit(n: int, name: str, span: int) -> str:
    return (
        f"more than {n} antichains in {name!r} (size ≤ 5, span ≤ {span}); "
        f"raise max_count or tighten the span limit"
    )


def _guidance(n: int, name: str) -> str:
    return (
        f"pattern generation for {name!r} exceeds {n} antichains even at "
        f"span 0; lower SelectionConfig.max_pattern_size (currently 5) to "
        f"tame the C(width, size) growth"
    )


def _layered_2x8():
    return layered_dag(3, layers=2, width=8, edge_prob=0.3)


#: (graph, config, error type, message, cause type, cause message), each
#: pinned from the build that ran the full enumeration before failing.
DOOMED = {
    "fft16-adaptive": (
        lambda: WORKLOADS["fft16"](),
        SelectionConfig(max_antichains=100_000),
        SelectionError,
        _guidance(100_000, "fft16"),
        EnumerationLimitError,
        _limit(100_000, "fft16", 0),
    ),
    "layered-2x8-fixed-span": (
        _layered_2x8,
        SelectionConfig(span_limit=2, max_antichains=50, adaptive_span=False),
        EnumerationLimitError,
        _limit(50, "layered-2x8-s3", 2),
        None,
        None,
    ),
    "fft64-default": (
        lambda: WORKLOADS["fft64"](),
        SelectionConfig(),
        SelectionError,
        _guidance(5_000_000, "fft64"),
        EnumerationLimitError,
        _limit(5_000_000, "fft64", 0),
    ),
}


def _build_monolithic(dfg, cfg):
    PatternSelector(5, cfg).build_catalog(dfg)


def _build_service(dfg, cfg):
    with SchedulerService() as service:
        try:
            service.submit(JobRequest(capacity=5, pdef=4, dfg=dfg, config=cfg))
        finally:
            assert service.stats.partition_misses == 0


def _build_sharded(dfg, cfg):
    with ShardCoordinator.local(2) as coord:
        try:
            coord.build_catalog(dfg, 5, config=cfg)
        finally:
            assert coord.stats.planned == 0


def _cyclic() -> DFG:
    dfg = DFG("cyc")
    dfg.add_node("x", "a")
    dfg.add_node("y", "a")
    dfg.add_edge("x", "y")
    dfg.add_edge("y", "x")
    return dfg


def _never_called(size, span):
    raise AssertionError(f"classify ran at size {size}, span {span}")


class TestPreflight:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        layered=st.booleans(),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 6)),
        size=st.integers(1, 5),
        span=st.sampled_from([0, 1, 2, None]),
    )
    def test_floor_never_exceeds_the_count(
        self, seed, layered, shape, size, span
    ):
        layers, width = shape
        dfg = (
            layered_dag(seed, layers=layers, width=width, edge_prob=0.3)
            if layered
            else random_dag(seed, layers * width, 0.2)
        )
        count = count_antichains_by_size(dfg, size, span, max_count=None)
        assert antichain_count_floor(dfg, size) <= sum(count.values())

    def test_floor_is_exact_on_one_level(self):
        dfg = layered_dag(0, layers=1, width=8, colors=("a",))
        assert antichain_count_floor(dfg, 3) == 8 + 28 + 56

    @pytest.mark.parametrize(
        "build",
        [_build_monolithic, _build_service, _build_sharded],
        ids=["monolithic", "service", "sharded"],
    )
    @pytest.mark.parametrize("case", sorted(DOOMED))
    def test_rejection_keeps_the_error(self, case, build):
        graph, cfg, kind, message, cause_kind, cause_message = DOOMED[case]
        with pytest.raises(kind) as exc:
            build(graph(), cfg)
        assert type(exc.value) is kind
        assert str(exc.value) == message
        cause = exc.value.__cause__
        if cause_kind is None:
            assert cause is None
        else:
            assert type(cause) is cause_kind
            assert str(cause) == cause_message

    @pytest.mark.parametrize("case", sorted(DOOMED))
    def test_rejection_runs_zero_passes(self, case):
        graph, cfg, kind, *_ = DOOMED[case]
        with pytest.raises(kind):
            PatternSelector(5, cfg).build_catalog_with(graph(), _never_called)

    def test_cycle_error_unchanged(self):
        cfg = SelectionConfig(max_antichains=1)
        with pytest.raises(CycleError) as exc:
            _build_monolithic(_cyclic(), cfg)
        assert str(exc.value) == (
            "graph 'cyc' contains a cycle: [('x', 'y'), ('y', 'x')]"
        )
        with ShardCoordinator.local(2) as coord:
            with pytest.raises(CycleError) as exc:
                coord.build_catalog(_cyclic(), 5, config=cfg)
        assert str(exc.value) == "graph 'cyc' contains a cycle"

    def test_no_cap_never_rejects(self):
        dfg = layered_dag(0, layers=1, width=40, colors=("a",))
        sentinel = object()
        calls = []

        def classify(size, span):
            calls.append(span)
            return sentinel

        cfg = SelectionConfig(max_antichains=None)
        got = PatternSelector(5, cfg).build_catalog_with(dfg, classify)
        assert got is sentinel
        assert calls == [cfg.span_limit]


class TestWidening:
    def test_patterns_padded_to_capacity(self, paper_3dft):
        cfg = SelectionConfig(
            span_limit=1, max_pattern_size=2, widen_to_capacity=True
        )
        lib = select_patterns(paper_3dft, 4, 5, config=cfg)
        assert all(p.size == 5 for p in lib)

    def test_widened_library_schedules_better(self, paper_3dft):
        narrow_cfg = SelectionConfig(span_limit=1, max_pattern_size=2)
        wide_cfg = SelectionConfig(
            span_limit=1, max_pattern_size=2, widen_to_capacity=True
        )
        narrow = select_patterns(paper_3dft, 4, 5, config=narrow_cfg)
        wide = select_patterns(paper_3dft, 4, 5, config=wide_cfg)
        n_len = MultiPatternScheduler(narrow).schedule(paper_3dft).length
        w_len = MultiPatternScheduler(wide).schedule(paper_3dft).length
        assert w_len <= n_len

    def test_colors_preserved(self, paper_3dft):
        cfg = SelectionConfig(
            span_limit=1, max_pattern_size=2, widen_to_capacity=True
        )
        result = PatternSelector(5, cfg).select(paper_3dft, 4)
        # Widening only adds a pattern's own colors.
        for raw_round, wide in zip(result.rounds, result.library):
            assert raw_round.chosen.color_set() == wide.color_set()

    def test_duplicates_after_widening_dropped(self):
        # Single-color graph: every selected pattern widens to "aaaaa".
        dfg = layered_dag(3, layers=3, width=4, colors=("a",))
        cfg = SelectionConfig(widen_to_capacity=True)
        result = PatternSelector(5, cfg).select(dfg, 3)
        strings = result.library.as_strings()
        assert len(set(strings)) == len(strings)

    def test_off_by_default(self, paper_3dft):
        cfg = SelectionConfig(span_limit=1, max_pattern_size=2)
        lib = select_patterns(paper_3dft, 4, 5, config=cfg)
        assert all(p.size <= 2 for p in lib)


class TestEndToEndLargeGraph:
    def test_fft16_near_work_bound(self):
        dfg = radix2_fft(16)
        cfg = SelectionConfig(
            span_limit=1, max_pattern_size=3, widen_to_capacity=True
        )
        lib = select_patterns(dfg, 5, 5, config=cfg)
        schedule = MultiPatternScheduler(lib).schedule(dfg)
        schedule.verify()
        work_bound = -(-dfg.n_nodes // 5)  # 38 cycles for 188 ops
        assert schedule.length <= work_bound + 4
