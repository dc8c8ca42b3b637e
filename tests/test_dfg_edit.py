"""Graph-edit layer tests: DfgEdit wire form, apply_edits, dirty_mask.

The load-bearing contract (ISSUE 6): ``dirty_mask(old, new)`` and
single-seed :func:`repro.dfg.io.subgraph_digest` equality agree **bit for
bit** — a seed is flagged dirty exactly when the facts its antichain-DFS
subtree can observe changed.  Pinned here with hypothesis over random
edit sequences on Erdős-Rényi and layered DAGs plus the FFT workloads;
the service-level consequences (partition-granular cache survival,
bit-identical incremental catalogs) live in ``test_service_edit.py``.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dfg.edit import DfgEdit, apply_edits, dirty_mask
from repro.dfg.graph import DFG
from repro.dfg.io import subgraph_digest
from repro.dfg.levels import LevelAnalysis
from repro.dfg.traversal import comparability_masks, seed_subtree_support
from repro.exceptions import (
    DuplicateNodeError,
    GraphError,
    UnknownNodeError,
)
from repro.workloads import three_point_dft_paper
from repro.workloads.fft import radix2_fft
from repro.workloads.synthetic import layered_dag, random_dag

COMMON = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _diamond() -> DFG:
    dfg = DFG(name="diamond")
    dfg.add_node("a0", "a")
    dfg.add_node("b1", "b")
    dfg.add_node("c2", "c")
    dfg.add_node("a3", "a")
    dfg.add_edges([("a0", "b1"), ("a0", "c2"), ("b1", "a3"), ("c2", "a3")])
    return dfg


# --------------------------------------------------------------------------- #
# DfgEdit construction + wire form
# --------------------------------------------------------------------------- #
class TestDfgEdit:
    def test_constructors_round_trip_through_wire_form(self):
        edits = [
            DfgEdit.recolor("n1", "b"),
            DfgEdit.add_node("n9", "c"),
            DfgEdit.remove_node("n2"),
            DfgEdit.add_edge("n1", "n9"),
            DfgEdit.remove_edge("n1", "n3"),
        ]
        for edit in edits:
            assert DfgEdit.from_dict(edit.to_dict()) == edit

    def test_wire_form_omits_irrelevant_fields(self):
        assert DfgEdit.recolor("n1", "b").to_dict() == {
            "op": "recolor", "node": "n1", "color": "b",
        }
        assert DfgEdit.remove_edge("u", "v").to_dict() == {
            "op": "remove_edge", "u": "u", "v": "v",
        }

    @pytest.mark.parametrize(
        "bad",
        [
            dict(op="paint", node="n1", color="b"),
            dict(op="recolor", node="n1"),           # missing color
            dict(op="recolor", color="b"),           # missing node
            dict(op="recolor", node="n1", color=""),
            dict(op="remove_node", node="n1", color="b"),  # stray color
            dict(op="add_edge", u="a"),              # missing v
            dict(op="add_edge", u="a", v="b", node="x"),   # stray node
        ],
    )
    def test_invalid_combinations_are_typed_errors(self, bad):
        with pytest.raises(GraphError):
            DfgEdit(**bad)

    def test_from_dict_rejects_unknown_fields_and_non_objects(self):
        with pytest.raises(GraphError, match="unknown edit fields"):
            DfgEdit.from_dict({"op": "recolor", "node": "n", "color": "a",
                               "why": "?"})
        with pytest.raises(GraphError, match="missing required"):
            DfgEdit.from_dict({"node": "n"})
        with pytest.raises(GraphError, match="JSON object"):
            DfgEdit.from_dict(["recolor"])


# --------------------------------------------------------------------------- #
# apply_edits
# --------------------------------------------------------------------------- #
class TestApplyEdits:
    def test_recolor_is_functional_and_order_preserving(self):
        base = _diamond()
        new = apply_edits(base, [DfgEdit.recolor("b1", "c")])
        assert [base.node(n).color for n in base.nodes] == ["a", "b", "c", "a"]
        assert [new.node(n).color for n in new.nodes] == ["a", "c", "c", "a"]
        assert list(new.nodes) == list(base.nodes)
        assert list(new.edges()) == list(base.edges())

    def test_add_and_remove_node(self):
        base = _diamond()
        new = apply_edits(
            base,
            [DfgEdit.add_node("d4", "a"), DfgEdit.add_edge("a3", "d4")],
        )
        assert list(new.nodes) == ["a0", "b1", "c2", "a3", "d4"]
        assert ("a3", "d4") in list(new.edges())
        shrunk = apply_edits(new, [DfgEdit.remove_node("a3")])
        assert list(shrunk.nodes) == ["a0", "b1", "c2", "d4"]
        # incident edges went with the node
        assert all("a3" not in e for e in shrunk.edges())

    def test_edits_apply_in_sequence(self):
        base = _diamond()
        new = apply_edits(
            base,
            [
                DfgEdit.add_node("d4", "b"),
                DfgEdit.recolor("d4", "c"),
                DfgEdit.add_edge("b1", "d4"),
                DfgEdit.remove_edge("b1", "d4"),
                DfgEdit.remove_node("d4"),
            ],
        )
        assert list(new.nodes) == list(base.nodes)
        assert list(new.edges()) == list(base.edges())

    def test_meta_and_attrs_survive(self):
        base = _diamond()
        base.meta["origin"] = "test"
        base.node("a0").attrs["weight"] = 3
        new = apply_edits(base, [DfgEdit.recolor("a3", "b")])
        assert new.meta == {"origin": "test"}
        assert new.node("a0").attrs["weight"] == 3

    @pytest.mark.parametrize(
        "edit, exc",
        [
            (DfgEdit.recolor("ghost", "a"), UnknownNodeError),
            (DfgEdit.remove_node("ghost"), UnknownNodeError),
            (DfgEdit.add_node("a0", "a"), DuplicateNodeError),
            (DfgEdit.add_edge("a0", "ghost"), UnknownNodeError),
            (DfgEdit.add_edge("a0", "b1"), GraphError),  # duplicate edge
            (DfgEdit.remove_edge("b1", "c2"), GraphError),  # missing edge
        ],
    )
    def test_bad_edits_raise_typed_errors(self, edit, exc):
        with pytest.raises(exc):
            apply_edits(_diamond(), [edit])

    def test_self_loop_is_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            apply_edits(_diamond(), [DfgEdit.add_edge("a0", "a0")])


# --------------------------------------------------------------------------- #
# dirty_mask ⇔ single-seed subgraph digest
# --------------------------------------------------------------------------- #
def _random_edits(rng, dfg: DFG, count: int) -> list[DfgEdit]:
    """A sequence of `count` valid-by-construction edits against `dfg`."""
    names = list(dfg.nodes)
    colors = ["a", "b", "c"]
    edges = list(dfg.edges())
    edits: list[DfgEdit] = []
    fresh = 0
    for _ in range(count):
        op = rng.choice(
            ["recolor", "recolor", "add_node", "remove_node",
             "add_edge", "remove_edge"]
        )
        if op == "recolor" and names:
            edits.append(
                DfgEdit.recolor(rng.choice(names), rng.choice(colors))
            )
        elif op == "add_node":
            fresh += 1
            name = f"zz{fresh}"
            edits.append(DfgEdit.add_node(name, rng.choice(colors)))
            names.append(name)
        elif op == "remove_node" and len(names) > 2:
            victim = rng.choice(names)
            names.remove(victim)
            edges = [e for e in edges if victim not in e]
            edits.append(DfgEdit.remove_node(victim))
        elif op == "add_edge" and len(names) >= 2:
            u, v = rng.sample(names, 2)
            # keep it acyclic and fresh: only forward edges between
            # original-order nodes, no duplicates
            if (u, v) not in edges and (v, u) not in edges:
                order = {n: i for i, n in enumerate(names)}
                if order[u] < order[v]:
                    edges.append((u, v))
                    edits.append(DfgEdit.add_edge(u, v))
        elif op == "remove_edge" and edges:
            u, v = rng.choice(edges)
            edges.remove((u, v))
            edits.append(DfgEdit.remove_edge(u, v))
    return edits


def _assert_dirty_mask_matches_digests(old: DFG, new: DFG) -> None:
    mask = dirty_mask(old, new)
    for s in range(new.n_nodes):
        if s < old.n_nodes:
            digests_differ = subgraph_digest(old, [s]) != subgraph_digest(
                new, [s]
            )
        else:
            digests_differ = True  # seed beyond the old graph: always dirty
        assert bool(mask >> s & 1) == digests_differ, (
            f"seed {s}: dirty bit {bool(mask >> s & 1)} but "
            f"digest changed = {digests_differ}"
        )


class TestDirtyMask:
    def test_identity_edit_is_fully_clean(self):
        dfg = three_point_dft_paper()
        assert dirty_mask(dfg, apply_edits(dfg, [])) == 0

    def test_recolor_dirties_only_seeds_at_or_below(self):
        # Support sets only look upward: recoloring node k cannot dirty
        # any seed above k.
        dfg = radix2_fft(8)
        names = list(dfg.nodes)
        k = 4
        new = apply_edits(dfg, [DfgEdit.recolor(names[k], "c")])
        mask = dirty_mask(dfg, new)
        assert mask, "a recolor must dirty something"
        assert mask >> (k + 1) == 0, "no seed above the edited node is dirty"

    @COMMON
    @given(
        params=st.tuples(
            st.integers(0, 10_000),
            st.integers(4, 16),
            st.floats(0.1, 0.5),
        ),
        n_edits=st.integers(1, 4),
    )
    def test_random_dag_dirty_mask_matches_single_seed_digests(
        self, params, n_edits
    ):
        import random

        seed, n, p = params
        dfg = random_dag(seed, n, p)
        rng = random.Random(seed ^ 0xD1277)
        edits = _random_edits(rng, dfg, n_edits)
        if not edits:
            return
        new = apply_edits(dfg, edits)
        _assert_dirty_mask_matches_digests(dfg, new)

    @COMMON
    @given(
        params=st.tuples(
            st.integers(0, 10_000),
            st.integers(2, 4),
            st.integers(2, 5),
        ),
        n_edits=st.integers(1, 3),
    )
    def test_layered_dag_dirty_mask_matches_single_seed_digests(
        self, params, n_edits
    ):
        import random

        seed, layers, width = params
        dfg = layered_dag(seed, layers, width)
        rng = random.Random(seed ^ 0xED17)
        edits = _random_edits(rng, dfg, n_edits)
        if not edits:
            return
        new = apply_edits(dfg, edits)
        _assert_dirty_mask_matches_digests(dfg, new)

    def test_fft16_recolor_dirty_mask_matches_digests(self):
        dfg = radix2_fft(16)
        names = list(dfg.nodes)
        new = apply_edits(dfg, [DfgEdit.recolor(names[3], "c")])
        _assert_dirty_mask_matches_digests(dfg, new)


# --------------------------------------------------------------------------- #
# subgraph_digest itself
# --------------------------------------------------------------------------- #
class TestSubgraphDigest:
    def test_digest_ignores_graph_name_but_not_colors(self):
        a = three_point_dft_paper()
        b = three_point_dft_paper()
        b.name = "renamed"
        seeds = range(a.n_nodes)
        assert subgraph_digest(a, seeds) == subgraph_digest(b, seeds)
        c = apply_edits(a, [DfgEdit.recolor(list(a.nodes)[0], "c")])
        assert subgraph_digest(a, seeds) != subgraph_digest(c, seeds)

    def test_digest_is_memoized_per_seed_key(self):
        dfg = three_point_dft_paper()
        first = subgraph_digest(dfg, [0, 1])
        assert subgraph_digest(dfg, (0, 1)) == first
        cache = dfg._analysis_cache["subgraph_digest"]
        assert len(cache) == 1  # list vs tuple seeds share one entry

    def test_trailing_nodes_outside_support_do_not_alias(self):
        # Two graphs of different size whose low seeds have identical
        # support records must still produce the same digest for those
        # seeds — and the support helper pins what "outside" means.
        small = _diamond()
        grown = apply_edits(
            small,
            [DfgEdit.add_node("e4", "b"), DfgEdit.add_edge("a3", "e4")],
        )
        # seed 3's support in `grown` gains nothing: e4 is a descendant.
        assert seed_subtree_support(grown, [3]) == 1 << 3
        assert subgraph_digest(small, [3]) == subgraph_digest(grown, [3])

    def test_out_of_range_seed_is_typed(self):
        with pytest.raises(GraphError, match="out of range"):
            subgraph_digest(_diamond(), [99])


# --------------------------------------------------------------------------- #
# subgraph_digest's byte stream
# --------------------------------------------------------------------------- #
def _reference_digest(dfg: DFG, seeds) -> str:
    """The documented byte stream of ``subgraph_digest``, in plain Python."""
    seeds = tuple(seeds)
    if seeds and seeds == tuple(range(seeds[0], seeds[-1] + 1)):
        key = ("range", seeds[0], seeds[-1] + 1)
    else:
        key = seeds
    support = seed_subtree_support(dfg, seeds)
    members = [i for i in range(dfg.n_nodes) if support >> i & 1]
    width = (members[-1] // 64 + 1) * 8 if members else 0
    comp = comparability_masks(dfg)
    labels, colors = dfg.color_labels()
    levels = LevelAnalysis.of(dfg)
    stream = b"subgraph-digest/2" + f"\x1e{key!r}\x1e{len(members)}\x1e".encode()
    for i in members:
        name = dfg.name_of(i)
        color = colors[labels[i]]
        stream += (
            f"{i}\x1f{len(name)}\x1f{name}\x1f{labels[i]}\x1f{len(color)}"
            f"\x1f{color}\x1f{levels.asap[name]}\x1f{levels.alap[name]}\x1f"
        ).encode()
    for i in members:
        stream += (comp[i] & support).to_bytes(width, "little")
    return hashlib.sha256(stream).hexdigest()


def _two_layer(extra_children_of: Sequence[int] = (), extra: int = 0) -> DFG:
    """32 sources then 31 sinks (63 nodes), sink ``32 + k`` under source ``k``.

    ``extra`` more sinks follow, each a child of every source listed in
    ``extra_children_of``.  Those sources already have a child, so no
    level moves.
    """
    dfg = DFG(name="two-layer")
    for k in range(32):
        dfg.add_node(f"a{k}", "a")
    for k in range(31):
        dfg.add_node(f"b{32 + k}", "b")
        dfg.add_edge(f"a{k}", f"b{32 + k}")
    for k in range(extra):
        name = f"c{63 + k}"
        dfg.add_node(name, "c")
        for parent in extra_children_of:
            dfg.add_edge(f"a{parent}", name)
    return dfg


#: Seed sets whose supports start, end or straddle a 64-bit word edge.
_STRADDLING_SEEDS = [
    [],
    [0],
    [63],
    [64],
    [127],
    range(60, 70),
    range(120, 135),
    (10, 70, 130),
    (63, 64),
    range(150),
]


class TestSubgraphDigestEncoding:
    @pytest.mark.parametrize("graph_seed", [0, 7])
    def test_matches_the_plain_python_reference(self, graph_seed):
        dfg = random_dag(graph_seed, 150, 0.03)
        for seeds in _STRADDLING_SEEDS:
            assert subgraph_digest(dfg, seeds) == _reference_digest(dfg, seeds)

    def test_workloads_match_the_reference(self):
        for dfg in (three_point_dft_paper(), radix2_fft(8), _diamond()):
            for s in range(dfg.n_nodes):
                assert subgraph_digest(dfg, [s]) == _reference_digest(dfg, [s])
            whole = range(dfg.n_nodes)
            assert subgraph_digest(dfg, whole) == _reference_digest(dfg, whole)

    def test_pure_python_branch_emits_the_same_bytes(self, monkeypatch):
        from repro.dfg import io as io_mod

        monkeypatch.setattr(io_mod, "_np", None)
        dfg = random_dag(3, 150, 0.03)
        for seeds in _STRADDLING_SEEDS:
            assert subgraph_digest(dfg, seeds) == _reference_digest(dfg, seeds)

    @pytest.mark.parametrize("seeds", [[0], [0, 1], (0, 2), range(3)])
    def test_appending_outside_the_support_keeps_the_key(self, seeds):
        # 63 -> 65 nodes crosses a word edge; the support's highest index
        # stays 62, so its comparability rows stay one word wide.
        small = _two_layer()
        grown = _two_layer(extra_children_of=(0, 1, 2), extra=2)
        assert small.n_nodes == 63 and grown.n_nodes == 65
        support = seed_subtree_support(grown, seeds)
        assert support == seed_subtree_support(small, seeds)
        assert support.bit_length() == 63
        assert subgraph_digest(grown, seeds) == subgraph_digest(small, seeds)

    def test_appending_inside_the_support_changes_the_key(self):
        small = _two_layer()
        grown = _two_layer(extra_children_of=(5,), extra=2)
        assert seed_subtree_support(grown, [0]).bit_length() == 65
        assert subgraph_digest(grown, [0]) != subgraph_digest(small, [0])

    def test_range_and_tuple_seed_keys_do_not_alias(self):
        dfg = _two_layer()
        assert seed_subtree_support(dfg, (0, 2)) == seed_subtree_support(
            dfg, range(3)
        )
        contiguous = subgraph_digest(dfg, [0, 1, 2])
        assert subgraph_digest(dfg, range(3)) == contiguous
        assert subgraph_digest(dfg, (0, 1, 2)) == contiguous
        assert subgraph_digest(dfg, (0, 2)) != contiguous
        assert set(dfg._analysis_cache["subgraph_digest"]) == {
            ("range", 0, 3),
            (0, 2),
        }
