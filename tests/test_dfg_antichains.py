"""Unit tests for :mod:`repro.dfg.antichains`."""

from __future__ import annotations

import pytest

from tests.conftest import brute_force_antichains, chain, diamond

from repro.dfg.antichains import (
    AntichainEnumerator,
    count_antichains_by_size,
    enumerate_antichains,
    is_antichain,
    is_executable,
)
from repro.exceptions import EnumerationLimitError, GraphError
from repro.workloads.synthetic import random_dag


class TestIsAntichain:
    def test_single_node(self, paper_3dft):
        assert is_antichain(paper_3dft, ["b3"])

    def test_empty_is_not(self, paper_3dft):
        assert not is_antichain(paper_3dft, [])

    def test_duplicates_are_not(self, paper_3dft):
        assert not is_antichain(paper_3dft, ["b3", "b3"])

    def test_comparable_pair_rejected(self, paper_3dft):
        assert not is_antichain(paper_3dft, ["b3", "a8"])

    def test_chain_has_no_multi_antichain(self):
        dfg = chain(4)
        assert not is_antichain(dfg, ["a0", "a2"])


class TestIsExecutable:
    def test_size_limit(self, paper_3dft):
        a1 = ["b1", "a4", "b3", "b6", "a16", "c10"]
        assert is_antichain(paper_3dft, a1)
        assert not is_executable(paper_3dft, a1, capacity=5)
        assert is_executable(paper_3dft, a1[:5], capacity=5)

    def test_non_antichain_never_executable(self, paper_3dft):
        assert not is_executable(paper_3dft, ["b6", "a17"], capacity=5)


class TestEnumeration:
    def test_chain_only_singletons(self):
        dfg = chain(5)
        result = enumerate_antichains(dfg, max_size=3)
        assert sorted(result) == [(f"a{i}",) for i in range(5)]

    def test_diamond(self):
        dfg = diamond()
        result = set(enumerate_antichains(dfg, max_size=2))
        assert result == {("a0",), ("b1",), ("c2",), ("a3",), ("b1", "c2")}

    def test_matches_brute_force_on_paper_graph(self, paper_3dft):
        got = {
            frozenset(a) for a in enumerate_antichains(paper_3dft, 3, span_limit=2)
        }
        want = brute_force_antichains(paper_3dft, 3, span_limit=2)
        assert got == want

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_on_random_dags(self, seed):
        dfg = random_dag(seed, n=10, edge_prob=0.3)
        got = {frozenset(a) for a in enumerate_antichains(dfg, 4)}
        want = brute_force_antichains(dfg, 4)
        assert got == want

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("limit", [0, 1, 2])
    def test_span_pruning_matches_brute_force(self, seed, limit):
        dfg = random_dag(100 + seed, n=9, edge_prob=0.25)
        got = {
            frozenset(a)
            for a in enumerate_antichains(dfg, 4, span_limit=limit)
        }
        want = brute_force_antichains(dfg, 4, span_limit=limit)
        assert got == want

    def test_min_size_filter(self, paper_3dft):
        pairs = enumerate_antichains(paper_3dft, 2, min_size=2)
        assert all(len(a) == 2 for a in pairs)
        assert len(pairs) == 226  # C(24,2) − 50 comparable pairs

    def test_members_sorted_by_index(self, paper_3dft):
        for a in enumerate_antichains(paper_3dft, 3, span_limit=1):
            idx = [paper_3dft.index(n) for n in a]
            assert idx == sorted(idx)

    def test_deterministic_order(self, paper_3dft):
        first = enumerate_antichains(paper_3dft, 3, span_limit=1)
        second = enumerate_antichains(paper_3dft, 3, span_limit=1)
        assert first == second

    def test_bad_arguments(self, paper_3dft):
        with pytest.raises(GraphError):
            enumerate_antichains(paper_3dft, 0)
        with pytest.raises(GraphError):
            enumerate_antichains(paper_3dft, 3, min_size=0)
        with pytest.raises(GraphError):
            enumerate_antichains(paper_3dft, 3, min_size=4)
        with pytest.raises(GraphError):
            enumerate_antichains(paper_3dft, 3, span_limit=-1)

    def test_max_count_guard(self, paper_3dft):
        with pytest.raises(EnumerationLimitError):
            enumerate_antichains(paper_3dft, 5, max_count=10)

    def test_max_count_none_disables_guard(self, paper_3dft):
        result = enumerate_antichains(paper_3dft, 2, max_count=None)
        assert len(result) == 24 + 226


class TestCountBySize:
    def test_matches_enumeration(self, paper_3dft):
        counts = count_antichains_by_size(paper_3dft, 4, span_limit=2)
        enumerated = enumerate_antichains(paper_3dft, 4, span_limit=2)
        for k in range(1, 5):
            assert counts[k] == sum(1 for a in enumerated if len(a) == k)

    def test_all_sizes_present(self, paper_3dft):
        counts = count_antichains_by_size(paper_3dft, 5)
        assert sorted(counts) == [1, 2, 3, 4, 5]

    def test_span_zero_is_smallest(self, paper_3dft):
        free = count_antichains_by_size(paper_3dft, 5, None)
        tight = count_antichains_by_size(paper_3dft, 5, 0)
        for k in range(1, 6):
            assert tight[k] <= free[k]


class TestEnumeratorReuse:
    def test_reuse_across_parameters(self, paper_3dft):
        enum = AntichainEnumerator(paper_3dft)
        a = list(enum.iter_antichains(2, 1))
        b = list(enum.iter_antichains(2, 1))
        assert a == b
        assert enum.count_by_size(2, 1)[2] == sum(
            1 for x in a if len(x) == 2
        )

    def test_rejects_cyclic_graph(self):
        from repro.dfg.graph import DFG
        from repro.exceptions import CycleError

        dfg = DFG()
        dfg.add_node("x", "a")
        dfg.add_node("y", "a")
        dfg.add_edge("x", "y")
        dfg.add_edge("y", "x")
        with pytest.raises(CycleError):
            AntichainEnumerator(dfg)
