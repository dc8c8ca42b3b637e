"""Unit tests for :mod:`repro.patterns.enumeration`."""

from __future__ import annotations

import pytest

from tests.conftest import PAPER_TABLE4, PAPER_TABLE6

from repro.patterns.enumeration import classify_antichains
from repro.patterns.pattern import Pattern


class TestClassification:
    @pytest.fixture(scope="class")
    def catalog(self, fig4):
        return classify_antichains(fig4, capacity=2, store_antichains=True)

    def test_patterns_found(self, catalog):
        assert {p.as_string() for p in catalog.patterns} == set(PAPER_TABLE4)

    def test_antichain_lists_exact(self, catalog):
        for pat_str, antichains in PAPER_TABLE4.items():
            got = catalog.antichains[Pattern.from_string(pat_str)]
            assert sorted(map(set, got), key=sorted) == sorted(
                map(set, antichains), key=sorted
            )

    def test_antichain_counts(self, catalog):
        got = {
            p.as_string(): c for p, c in catalog.antichain_counts.items()
        }
        assert got == {"a": 3, "b": 2, "aa": 2, "bb": 1}
        assert catalog.total_antichains() == 8

    def test_node_frequencies_table6(self, catalog):
        for pat_str, freqs in PAPER_TABLE6.items():
            p = Pattern.from_string(pat_str)
            for node, h in freqs.items():
                assert catalog.node_frequency(p, node) == h

    def test_frequency_vector_order(self, catalog, fig4):
        vec = catalog.frequency_vector(Pattern.from_string("aa"))
        assert vec == (1, 1, 2, 0, 0)  # nodes a1, a2, a3, b4, b5

    def test_unknown_pattern_zero(self, catalog):
        assert catalog.node_frequency(Pattern.from_string("ab"), "a1") == 0
        assert catalog.frequency_vector(Pattern.from_string("ab")) == (0,) * 5

    def test_contains_and_len(self, catalog):
        assert Pattern.from_string("aa") in catalog
        assert Pattern.from_string("ab") not in catalog
        assert len(catalog) == 4

    def test_patterns_sorted_deterministically(self, catalog):
        pats = catalog.patterns
        assert list(pats) == sorted(pats)


class TestOptions:
    def test_antichains_not_stored_by_default(self, fig4):
        catalog = classify_antichains(fig4, capacity=2)
        assert catalog.antichains == {}
        # frequencies still present
        assert catalog.node_frequency(Pattern.from_string("aa"), "a3") == 2

    def test_span_limit_forwarded(self, paper_3dft):
        tight = classify_antichains(paper_3dft, 5, span_limit=0)
        loose = classify_antichains(paper_3dft, 5, span_limit=None)
        assert tight.total_antichains() < loose.total_antichains()
        assert tight.span_limit == 0
        assert loose.span_limit is None

    def test_capacity_bounds_pattern_size(self, paper_3dft):
        catalog = classify_antichains(paper_3dft, capacity=3)
        assert max(p.size for p in catalog.patterns) == 3

    def test_3dft_pattern_universe(self, paper_3dft):
        # All single colors must be present as singleton patterns.
        catalog = classify_antichains(paper_3dft, capacity=5, span_limit=1)
        strings = {p.as_string() for p in catalog.patterns}
        assert {"a", "b", "c"} <= strings
        # The Table 2 patterns must be generated from the graph itself.
        assert "aabcc" in strings
        assert "aaacc" in strings
