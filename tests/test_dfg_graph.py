"""Unit tests for :mod:`repro.dfg.graph`."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import chain, diamond, networkx_oracle

from repro.dfg.graph import DFG
from repro.exceptions import (
    CycleError,
    DuplicateNodeError,
    GraphError,
    UnknownNodeError,
)


class TestConstruction:
    def test_empty_graph(self):
        dfg = DFG(name="empty")
        assert len(dfg) == 0
        assert dfg.n_nodes == 0
        assert dfg.n_edges == 0
        assert dfg.nodes == ()

    def test_add_node_returns_record(self):
        dfg = DFG()
        node = dfg.add_node("a1", "a", op="add")
        assert node.name == "a1"
        assert node.color == "a"
        assert node.index == 0
        assert node.attrs["op"] == "add"

    def test_duplicate_node_rejected(self):
        dfg = DFG()
        dfg.add_node("a1", "a")
        with pytest.raises(DuplicateNodeError):
            dfg.add_node("a1", "b")

    def test_empty_color_rejected(self):
        dfg = DFG()
        with pytest.raises(GraphError):
            dfg.add_node("a1", "")

    def test_non_string_color_rejected(self):
        dfg = DFG()
        with pytest.raises(GraphError):
            dfg.add_node("a1", 3)  # type: ignore[arg-type]

    def test_edge_to_unknown_node_rejected(self):
        dfg = DFG()
        dfg.add_node("a1", "a")
        with pytest.raises(UnknownNodeError):
            dfg.add_edge("a1", "zz")
        with pytest.raises(UnknownNodeError):
            dfg.add_edge("zz", "a1")

    def test_self_loop_rejected(self):
        dfg = DFG()
        dfg.add_node("a1", "a")
        with pytest.raises(CycleError):
            dfg.add_edge("a1", "a1")

    def test_add_edges_bulk(self):
        dfg = diamond()
        assert dfg.n_edges == 4


class TestOrdering:
    def test_nodes_iterate_in_insertion_order(self):
        dfg = DFG()
        for name in ("z9", "a1", "m5"):
            dfg.add_node(name, "a")
        assert dfg.nodes == ("z9", "a1", "m5")
        assert list(dfg) == ["z9", "a1", "m5"]

    def test_index_is_stable(self):
        dfg = DFG()
        dfg.add_node("x", "a")
        dfg.add_node("y", "b")
        assert dfg.index("x") == 0
        assert dfg.index("y") == 1
        assert dfg.name_of(0) == "x"
        assert dfg.name_of(1) == "y"

    def test_name_of_out_of_range(self):
        dfg = chain(2)
        with pytest.raises(UnknownNodeError):
            dfg.name_of(5)

    def test_successors_in_edge_insertion_order(self):
        dfg = DFG()
        for n in ("s", "t3", "t1", "t2"):
            dfg.add_node(n, "a")
        dfg.add_edge("s", "t3")
        dfg.add_edge("s", "t1")
        dfg.add_edge("s", "t2")
        assert dfg.successors("s") == ("t3", "t1", "t2")

    def test_topological_order_smallest_index_first(self):
        dfg = DFG()
        for n in ("b", "a", "c"):
            dfg.add_node(n, "x")
        dfg.add_edge("b", "c")
        dfg.add_edge("a", "c")
        assert dfg.topological_order() == ("b", "a", "c")

    def test_topological_order_detects_cycle(self):
        dfg = DFG()
        dfg.add_node("x", "a")
        dfg.add_node("y", "a")
        dfg.add_edge("x", "y")
        dfg.add_edge("y", "x")  # a 2-cycle: add_edge does not check acyclicity
        with pytest.raises(CycleError):
            dfg.topological_order()


def _counted_walks(monkeypatch) -> list:
    """Count Kahn walks: each ``topological_order`` walk heapifies once."""
    import heapq

    walks = []
    real = heapq.heapify

    def counted(heap):
        walks.append(len(heap))
        return real(heap)

    monkeypatch.setattr(heapq, "heapify", counted)
    return walks


class TestTopologicalOrderMemo:
    def test_one_walk_per_graph_version(self, monkeypatch):
        from repro.dfg.levels import LevelAnalysis, alap, asap, height
        from repro.dfg.traversal import ancestor_masks, descendant_masks
        from repro.workloads import three_point_dft_paper

        walks = _counted_walks(monkeypatch)
        dfg = three_point_dft_paper()
        first = dfg.topological_order()
        LevelAnalysis.of(dfg)
        asap(dfg), alap(dfg), height(dfg)
        descendant_masks(dfg), ancestor_masks(dfg)
        assert dfg.topological_order() is first
        assert len(walks) == 1

    def test_mutation_clears_the_memo(self, monkeypatch):
        walks = _counted_walks(monkeypatch)
        dfg = DFG()
        for n in ("b", "a"):
            dfg.add_node(n, "x")
        assert dfg.topological_order() == ("b", "a")
        dfg.add_node("c", "x")
        assert dfg.topological_order() == ("b", "a", "c")
        dfg.add_edge("c", "b")
        assert dfg.topological_order() == ("a", "c", "b")
        assert len(walks) == 3

    def test_a_cycle_raises_on_every_call(self, monkeypatch):
        walks = _counted_walks(monkeypatch)
        dfg = DFG()
        dfg.add_node("x", "a")
        dfg.add_node("y", "a")
        dfg.add_edge("x", "y")
        dfg.add_edge("y", "x")  # a 2-cycle: add_edge does not check acyclicity
        for _ in range(2):
            with pytest.raises(CycleError):
                dfg.topological_order()
        assert "topological_order" not in dfg._analysis_cache
        assert len(walks) == 2

    def test_a_cold_job_walks_its_graph_once(self, monkeypatch):
        from repro.service import JobRequest, SchedulerService
        from repro.workloads import three_point_dft_paper

        dfg = three_point_dft_paper()
        walks = _counted_walks(monkeypatch)
        with SchedulerService() as service:
            service.submit(JobRequest(capacity=5, pdef=4, dfg=dfg))
        assert len(walks) == 1


class TestQueries:
    def test_color_and_attr(self):
        dfg = DFG()
        dfg.add_node("c1", "c", factor=2.5)
        assert dfg.color("c1") == "c"
        assert dfg.attr("c1", "factor") == 2.5
        assert dfg.attr("c1", "missing", 42) == 42
        dfg.set_attr("c1", "extra", "v")
        assert dfg.attr("c1", "extra") == "v"

    def test_node_data_separates_the_color_from_the_attrs(self):
        dfg = DFG()
        dfg.add_node("b1", "b")
        dfg.add_node("a1", "a", op="add", operands=("x", "y"))
        data = list(dfg.node_data())
        assert data == [
            ("b1", "b", {}),
            ("a1", "a", {"op": "add", "operands": ("x", "y")}),
        ]
        data[1][2]["op"] = "mul"  # the caller's copy, not the graph's
        assert dfg.attr("a1", "op") == "add"
        assert dfg.color("a1") == "a"

    def test_unknown_node_queries(self):
        dfg = chain(2)
        for fn in (dfg.color, dfg.successors, dfg.predecessors,
                   dfg.out_degree, dfg.in_degree, dfg.node, dfg.index):
            with pytest.raises(UnknownNodeError):
                fn("nope")

    def test_degrees(self):
        dfg = diamond()
        assert dfg.out_degree("a0") == 2
        assert dfg.in_degree("a3") == 2
        assert dfg.in_degree("a0") == 0

    def test_sources_sinks(self, paper_3dft):
        assert set(paper_3dft.sources()) == {"b1", "a2", "b3", "a4", "b5", "b6"}
        assert set(paper_3dft.sinks()) == {"a16", "a19", "a21", "a22", "a23", "a24"}

    def test_colors_first_appearance_order(self):
        dfg = DFG()
        dfg.add_node("c1", "c")
        dfg.add_node("a1", "a")
        dfg.add_node("c2", "c")
        assert dfg.colors() == ("c", "a")

    def test_color_census(self, paper_3dft):
        census = paper_3dft.color_census()
        assert census == {"a": 14, "b": 4, "c": 6}

    def test_contains(self):
        dfg = chain(2)
        assert "a0" in dfg
        assert "zz" not in dfg

    def test_repr_mentions_shape(self, paper_3dft):
        text = repr(paper_3dft)
        assert "nodes=24" in text and "edges=22" in text


class TestAcyclicity:
    def test_dag_passes(self, paper_3dft):
        assert paper_3dft.is_acyclic()
        paper_3dft.check_acyclic()

    def test_cycle_detected(self):
        dfg = DFG()
        dfg.add_node("x", "a")
        dfg.add_node("y", "a")
        dfg.add_edge("x", "y")
        dfg.add_edge("y", "x")
        assert not dfg.is_acyclic()
        with pytest.raises(CycleError):
            dfg.check_acyclic()

    def test_cached_answer_cleared_by_closing_edge(self):
        from repro.dfg.validate import validate_dfg

        dfg = chain(3)
        assert dfg.is_acyclic()
        validate_dfg(dfg)  # a cached True from here on
        names = dfg.nodes
        dfg.add_edge(names[-1], names[0])
        with pytest.raises(CycleError):
            dfg.check_acyclic()
        with pytest.raises(CycleError):
            validate_dfg(dfg)

    def test_one_walk_per_graph_version(self, monkeypatch):
        from repro.dfg.antichains import AntichainEnumerator
        from repro.dfg.validate import validate_dfg
        from repro.service import JobRequest, SchedulerService
        from repro.workloads import three_point_dft_paper

        walks = []
        real = DFG.topological_order

        def counted(self):
            if "topological_order" not in self._analysis_cache:
                walks.append(self)  # a cache miss is one Kahn walk
            return real(self)

        monkeypatch.setattr(DFG, "topological_order", counted)
        dfg = three_point_dft_paper()
        for _ in range(3):
            validate_dfg(dfg)
            AntichainEnumerator(dfg)
        assert len(walks) == 1
        dfg.add_node("extra", "a")
        validate_dfg(dfg)
        dfg.check_acyclic()
        assert len(walks) == 2
        # A cold job validates in the service, the selector and the
        # scheduler, and builds an enumerator per catalog attempt: one
        # walk over its graph in all.
        walks.clear()
        with SchedulerService() as service:
            service.submit(JobRequest(capacity=5, pdef=4, dfg=three_point_dft_paper()))
        assert len(walks) == 1


class TestStorage:
    def test_duplicate_edge_is_a_no_op(self):
        dfg = diamond()
        edges = dfg.edges()
        dfg.add_edge(*edges[0])
        assert dfg.edges() == edges
        assert dfg.n_edges == 4
        assert dfg.predecessors(edges[0][1]).count(edges[0][0]) == 1

    def test_node_attrs_are_a_live_view(self):
        dfg = DFG()
        node = dfg.add_node("a1", "a", op="add")
        dfg.set_attr("a1", "factor", 2.0)
        assert node.attrs["factor"] == 2.0
        dfg.node("a1").attrs["weight"] = 3
        assert dfg.attr("a1", "weight") == 3
        assert "color" not in node.attrs

    def test_extend_is_add_node_then_add_edge(self):
        one = DFG()
        one.add_node("b", "x")
        one.add_node("a", "y", op="add")
        one.add_node("c", "x")
        for u, v in (("a", "c"), ("b", "c"), ("b", "a"), ("b", "c")):
            one.add_edge(u, v)
        bulk = DFG()
        bulk.extend(
            [("b", "x", {}), ("a", "y", {"op": "add"}), ("c", "x", {})],
            [("a", "c"), ("b", "c"), ("b", "a"), ("b", "c")],
        )
        assert list(bulk.node_data()) == list(one.node_data())
        assert bulk.edges() == one.edges()
        assert bulk.n_edges == one.n_edges == 3
        for n in one:
            assert bulk.predecessors(n) == one.predecessors(n)

    @pytest.mark.parametrize(
        "nodes, edges, exc",
        [
            ([("a", "x", {}), ("a", "y", {})], [], DuplicateNodeError),
            ([("a", "", {})], [], GraphError),
            ([("a", "x", {})], [("a", "zz")], UnknownNodeError),
            ([("a", "x", {})], [("zz", "a")], UnknownNodeError),
            ([("a", "x", {})], [("a", "a")], CycleError),
        ],
    )
    def test_extend_runs_the_add_checks(self, nodes, edges, exc):
        dfg = DFG()
        with pytest.raises(exc):
            dfg.extend(nodes, edges)

    def test_extend_clears_the_analysis_cache(self):
        dfg = chain(3)
        first = dfg.topological_order()
        dfg.extend([("z", "a", {})], [("z", dfg.nodes[0])])
        assert dfg.topological_order() == ("z",) + first

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_adjacency_order_matches_networkx(self, data):
        import networkx as nx

        n = data.draw(st.integers(2, 8))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = [
            (f"n{u}", f"n{v}")
            for u, v in data.draw(st.lists(pairs, max_size=20))
            if u != v
        ]
        dfg, g = DFG(), nx.DiGraph()
        for i in range(n):
            dfg.add_node(f"n{i}", "a")
            g.add_node(f"n{i}")
        for u, v in edges:
            dfg.add_edge(u, v)
            g.add_edge(u, v)
        assert dfg.edges() == tuple(g.edges())
        assert dfg.n_edges == g.number_of_edges()
        for node in dfg:
            assert dfg.successors(node) == tuple(g.successors(node))
            assert dfg.predecessors(node) == tuple(g.predecessors(node))


class TestFindCycle:
    """``check_acyclic``'s message lists the cycle networkx's ``find_cycle``
    finds (the 2-cycle case is pinned in ``test_core_selection_scaling``)."""

    @pytest.mark.parametrize(
        "edges",
        [
            # The walk backtracks from a dead end to a side branch whose
            # edge re-enters the popped path; the cycle lies elsewhere.
            [(0, 1), (1, 2), (2, 3), (1, 4), (4, 2), (5, 6), (6, 5)],
            [(0, 1), (1, 2), (2, 0), (3, 1)],
            [(3, 0), (0, 1), (1, 2), (2, 1)],
        ],
    )
    def test_backtracking_matches_networkx(self, edges):
        import networkx as nx

        dfg = DFG(name="g")
        for i in range(1 + max(max(e) for e in edges)):
            dfg.add_node(f"n{i}", "a")
        dfg.add_edges((f"n{u}", f"n{v}") for u, v in edges)
        want = nx.find_cycle(networkx_oracle(dfg))
        with pytest.raises(CycleError) as exc:
            dfg.check_acyclic()
        assert str(exc.value) == f"graph 'g' contains a cycle: {want}"

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_networkx_find_cycle(self, data):
        import networkx as nx

        n = data.draw(st.integers(2, 9))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        drawn = data.draw(st.lists(pairs, min_size=1, max_size=24))
        dfg = DFG(name="g")
        for i in data.draw(st.permutations(range(n))):
            dfg.add_node(f"n{i}", "a")
        # Close at least one cycle: the first drawn pair in both directions.
        u, v = drawn[0]
        if u == v:
            v = (u + 1) % n
        for a, b in [(u, v)] + drawn[1:] + [(v, u)]:
            if a != b:
                dfg.add_edge(f"n{a}", f"n{b}")
        want = nx.find_cycle(networkx_oracle(dfg))
        with pytest.raises(CycleError) as exc:
            dfg.check_acyclic()
        assert str(exc.value) == f"graph 'g' contains a cycle: {want}"


def test_a_cold_submit_and_decode_never_import_networkx():
    code = (
        "import sys\n"
        "from repro.service import JobRequest, JobResult, SchedulerService\n"
        "from repro.workloads import three_point_dft_paper\n"
        "with SchedulerService() as service:\n"
        "    result = service.submit(JobRequest(\n"
        "        capacity=5, pdef=4, dfg=three_point_dft_paper()))\n"
        "assert JobResult.from_json(result.to_json()) == result\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"


class TestCopy:
    def test_copy_preserves_everything(self, paper_3dft):
        cp = paper_3dft.copy()
        assert cp.nodes == paper_3dft.nodes
        assert cp.edges() == paper_3dft.edges()
        assert cp.meta == paper_3dft.meta
        assert cp.name == paper_3dft.name

    def test_copy_is_independent(self):
        dfg = chain(3)
        cp = dfg.copy(name="clone")
        cp.add_node("extra", "z")
        assert "extra" not in dfg
        assert cp.name == "clone"



class TestEvaluate:
    def test_simple_expression(self):
        dfg = DFG()
        dfg.add_node("a1", "a", op="add",
                     operands=(("input", "x"), ("input", "y")))
        dfg.add_node("c1", "c", op="mul", operands=("a1",), factor=3.0)
        dfg.add_edge("a1", "c1")
        values = dfg.evaluate({"x": 2, "y": 5})
        assert values["a1"] == 7
        assert values["c1"] == 21

    def test_all_ops(self):
        dfg = DFG()
        dfg.add_node("k", "k", op="const", value=4.0)
        dfg.add_node("n", "n", op="neg", operands=("k",))
        dfg.add_node("cp", "p", op="copy", operands=("n",))
        dfg.add_node("s", "b", op="sub", operands=("cp", "k"))
        dfg.add_node("m", "c", op="mul", operands=("s", "k"))
        dfg.add_edges([("k", "n"), ("n", "cp"), ("cp", "s"), ("k", "s"),
                       ("s", "m"), ("k", "m")])
        values = dfg.evaluate({})
        assert values["m"] == (-4 - 4) * 4

    def test_missing_semantics_raises(self):
        dfg = chain(2)
        with pytest.raises(GraphError, match="no evaluable semantics"):
            dfg.evaluate({})

    def test_missing_input_raises(self):
        dfg = DFG()
        dfg.add_node("a1", "a", op="add",
                     operands=(("input", "x"), ("input", "y")))
        with pytest.raises(GraphError, match="missing external input"):
            dfg.evaluate({"x": 1})

    def test_unknown_op_raises(self):
        dfg = DFG()
        dfg.add_node("q", "q", op="frobnicate", operands=())
        with pytest.raises(GraphError, match="unknown op"):
            dfg.evaluate({})

    def test_malformed_operand_raises(self):
        dfg = DFG()
        dfg.add_node("q", "q", op="add", operands=(1, 2))
        with pytest.raises(GraphError, match="malformed operand"):
            dfg.evaluate({})
