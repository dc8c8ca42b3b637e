"""Unit tests for :mod:`repro.dfg.validate`."""

from __future__ import annotations

import pytest

from tests.conftest import chain

from repro.dfg.graph import DFG
from repro.dfg.validate import (
    check_acyclic,
    check_colors,
    check_nonempty,
    validate_dfg,
)
from repro.exceptions import ColorError, CycleError, GraphError


def test_valid_graph_passes(paper_3dft):
    validate_dfg(paper_3dft)
    validate_dfg(paper_3dft, allowed_colors=("a", "b", "c"))


def test_empty_graph_rejected():
    with pytest.raises(GraphError, match="no nodes"):
        check_nonempty(DFG())
    with pytest.raises(GraphError):
        validate_dfg(DFG())


def test_cycle_rejected():
    dfg = DFG()
    dfg.add_node("x", "a")
    dfg.add_node("y", "a")
    dfg.add_edge("x", "y")
    dfg.add_edge("y", "x")
    with pytest.raises(CycleError):
        check_acyclic(dfg)
    with pytest.raises(CycleError):
        validate_dfg(dfg)


def test_color_universe_enforced(paper_3dft):
    with pytest.raises(ColorError, match="outside"):
        check_colors(paper_3dft, allowed=("a", "b"))
    with pytest.raises(ColorError):
        validate_dfg(paper_3dft, allowed_colors=("a", "b"))


def test_color_check_skipped_when_universe_none(paper_3dft):
    check_colors(paper_3dft, allowed=None)


def test_chain_valid():
    validate_dfg(chain(3), allowed_colors=("a",))
