"""Unit tests for :mod:`repro.dfg.io`."""

from __future__ import annotations

import enum
import json
import math

import pytest

from repro.dfg.graph import DFG
from repro.dfg.io import (
    _json_safe,
    canonical_json,
    color_from_name,
    dfg_digest,
    from_edge_list,
    from_json,
    stable_key_digest,
    stable_key_json,
    to_dot,
    to_edge_list,
    to_json,
)
from repro.exceptions import GraphError


class TestColorFromName:
    def test_paper_convention(self):
        assert color_from_name("a24") == "a"
        assert color_from_name("c9") == "c"

    def test_rejects_non_letter(self):
        with pytest.raises(GraphError):
            color_from_name("9a")
        with pytest.raises(GraphError):
            color_from_name("")


class TestJson:
    def test_round_trip(self, paper_3dft):
        restored = from_json(to_json(paper_3dft))
        assert restored.nodes == paper_3dft.nodes
        assert restored.edges() == paper_3dft.edges()
        assert restored.name == paper_3dft.name
        assert [restored.color(n) for n in restored.nodes] == [
            paper_3dft.color(n) for n in paper_3dft.nodes
        ]

    def test_attrs_survive(self):
        dfg = DFG(name="g")
        dfg.add_node("a1", "a", op="add", weight=2)
        restored = from_json(to_json(dfg, indent=2))
        assert restored.attr("a1", "op") == "add"
        assert restored.attr("a1", "weight") == 2

    def test_non_json_attrs_skipped(self):
        dfg = DFG(name="g")
        dfg.add_node("a1", "a", op="add", operands=(("input", "x"),))
        # tuples are json-serialisable (as lists); sets are not.
        dfg.set_attr("a1", "bad", {1, 2})
        restored = from_json(to_json(dfg))
        assert restored.attr("a1", "bad") is None

    def test_invalid_json_rejected(self):
        with pytest.raises(GraphError, match="invalid DFG JSON"):
            from_json("{nope")

    def test_malformed_payload_rejected(self):
        with pytest.raises(GraphError, match="malformed"):
            from_json('{"nodes": [{"name": "x"}], "edges": []}')


class _Level(enum.IntEnum):
    LOW = 1


class _Name(str):
    pass


def _dumps_probe(value: object) -> bool:
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


def _self_containing_list() -> list:
    loop = [1]
    loop.append(loop)
    return loop


class TestJsonSafe:
    @pytest.mark.parametrize(
        "value",
        [
            "op",
            "",
            0,
            -7,
            2**1999 - 1,
            2**1999,
            10**5000,
            -(10**5000),
            1.5,
            math.nan,
            math.inf,
            True,
            None,
            _Level.LOW,
            _Name("x"),
            ("input", "x0"),
            [["input", "x0"], 1],
            {"k": 1},
            {1, 2},
            object(),
            b"raw",
            [10**5000],
        ],
        ids=lambda v: type(v).__name__,
    )
    def test_verdict_matches_the_dumps_probe(self, value):
        assert _json_safe(value) is _dumps_probe(value)

    @pytest.mark.parametrize(
        "build, probed",
        [
            (lambda: ("a1", 2, 2.5, None, True), False),
            (lambda: ["a1", -3], False),
            (lambda: (), False),
            (lambda: ((1, 2), ("input", "x0")), True),
            (_self_containing_list, True),
            (lambda: (1, 2**2001), True),
            (lambda: (1, 10**5000), True),
            (lambda: math.nan, False),
            (lambda: {"k": (1, 2)}, True),
        ],
        ids=[
            "scalar-tuple",
            "scalar-list",
            "empty",
            "nested-tuples",
            "self-containing-list",
            "wide-int-in-tuple",
            "huge-int-in-tuple",
            "nan",
            "dict",
        ],
    )
    def test_fast_path_agrees_with_the_probe(self, monkeypatch, build, probed):
        # A flat tuple/list of scalars is answered without json.dumps;
        # everything else still goes through the probe, so circular and
        # huge values answer exactly as the probe does.
        from repro.dfg import io as io_mod

        value = build()
        expected = _dumps_probe(value)
        calls = []
        real = io_mod.json.dumps

        def counted(obj, *args, **kwargs):
            calls.append(obj)
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(io_mod.json, "dumps", counted)
        assert _json_safe(value) is expected
        assert bool(calls) is probed


class TestEdgeList:
    def test_round_trip(self, paper_3dft):
        restored = from_edge_list(to_edge_list(paper_3dft), name="3dft")
        assert restored.nodes == paper_3dft.nodes
        assert restored.edges() == paper_3dft.edges()
        assert [restored.color(n) for n in restored.nodes] == [
            paper_3dft.color(n) for n in paper_3dft.nodes
        ]

    def test_comments_and_blanks_ignored(self):
        text = """
        # a comment
        a1
        a1 b2   # trailing comment

        """
        dfg = from_edge_list(text)
        assert dfg.nodes == ("a1", "b2")
        assert dfg.edges() == (("a1", "b2"),)

    def test_custom_color_fn(self):
        dfg = from_edge_list("x y\n", color_fn=lambda n: "mul")
        assert dfg.color("x") == "mul"

    def test_bad_line_rejected(self):
        with pytest.raises(GraphError, match="line 1"):
            from_edge_list("a b c\n")


def _abc_graph(
    *,
    node_order=("a1", "b2", "c3"),
    edge_order=(("a1", "b2"), ("a1", "c3")),
    attr_order="forward",
    name="g",
):
    """One structural content, many construction orders."""
    colors = {"a1": "a", "b2": "b", "c3": "c"}
    attrs = {"op": "add", "weight": 2}
    if attr_order == "reversed":
        attrs = dict(reversed(list(attrs.items())))
    dfg = DFG(name=name)
    for n in node_order:
        dfg.add_node(n, colors[n], **(attrs if n == "a1" else {}))
    dfg.add_edges(edge_order)
    return dfg


class TestCanonicalDigest:
    def test_invariant_under_node_insertion_order(self):
        a = _abc_graph(node_order=("a1", "b2", "c3"))
        b = _abc_graph(node_order=("c3", "a1", "b2"))
        assert a.nodes != b.nodes  # genuinely different insertion orders
        assert canonical_json(a) == canonical_json(b)
        assert dfg_digest(a) == dfg_digest(b)

    def test_invariant_under_edge_insertion_order(self):
        a = _abc_graph(edge_order=(("a1", "b2"), ("a1", "c3")))
        b = _abc_graph(edge_order=(("a1", "c3"), ("a1", "b2")))
        assert a.edges() != b.edges()
        assert dfg_digest(a) == dfg_digest(b)

    def test_invariant_under_attr_dict_ordering(self):
        a = _abc_graph(attr_order="forward")
        b = _abc_graph(attr_order="reversed")
        assert list(a.node("a1").attrs) != list(b.node("a1").attrs)
        assert dfg_digest(a) == dfg_digest(b)

    def test_name_is_not_structure(self):
        assert dfg_digest(_abc_graph(name="x")) == dfg_digest(
            _abc_graph(name="y")
        )

    def test_distinct_across_color_change(self):
        a = _abc_graph()
        b = DFG(name="g")
        b.add_node("a1", "a", op="add", weight=2)
        b.add_node("b2", "b")
        b.add_node("c3", "b")  # c3 recolored
        b.add_edges([("a1", "b2"), ("a1", "c3")])
        assert dfg_digest(a) != dfg_digest(b)

    def test_distinct_across_edge_change(self):
        a = _abc_graph(edge_order=(("a1", "b2"), ("a1", "c3")))
        b = _abc_graph(edge_order=(("a1", "b2"), ("b2", "c3")))
        assert dfg_digest(a) != dfg_digest(b)

    def test_distinct_across_attr_value_change(self):
        a = _abc_graph()
        b = _abc_graph()
        b.set_attr("a1", "weight", 3)
        assert dfg_digest(a) != dfg_digest(b)

    def test_canonical_form_is_compact_valid_json(self):
        import json

        text = canonical_json(_abc_graph())
        payload = json.loads(text)
        assert set(payload) == {"nodes", "edges"}
        assert ": " not in text and ", " not in text  # no whitespace

    def test_set_attr_invalidates_digest_memo(self):
        g = _abc_graph()
        before = dfg_digest(g)  # memoized on the analysis cache
        g.set_attr("a1", "weight", 99)
        assert dfg_digest(g) != before

    def test_digest_memoized_and_invalidated_on_mutation(self, paper_3dft):
        first = dfg_digest(paper_3dft)
        assert paper_3dft._analysis_cache["dfg_digest"] == first
        assert dfg_digest(paper_3dft) == first  # cached path
        mutated = paper_3dft.copy()
        assert dfg_digest(mutated) == first  # copies share content
        mutated.add_node("z99", "a")
        assert dfg_digest(mutated) != first  # mutation invalidates


#: ``dfg_digest`` of every registered workload.  Taken from the
#: per-``Node`` ``canonical_json`` the fast form replaced: existing cache
#: directories hit only while these hold.
_WORKLOAD_DIGESTS = {
    "3dft": "125f9754157530772539d8292633fefb7ad547420476debbfef3ec5b063e024f",
    "3dft-winograd": "db766c779633ec2dd656562da13a010d53aca6a33958668e7820c3a4ce0e3c78",
    "5dft": "df9ec25e2d013c7489932d948e7b9b4deb185179e94081fa4168408c1a96f3ca",
    "fft8": "f84fd9c58a86ba4b9288d5a8e3d0401fe0994aa027adf69974eb2ff6cb7323ec",
    "fft16": "e4276a7d97a1cb4f4623a0c7885dd85fb9cafea6b2e72543a5b5b78203ac6dbc",
    "fft64": "535c25bcdf7b56238a3238898c8ca5cd44379f60e11d47ea46b1397c9ed71c4a",
    "small-example": "ea37f0f36fa50018a1bfcad487418fa4df9d5d69cb1a68ba0b7b369aa93ee67d",
    "fir8": "a588ba9dfe82ae5c7c3198cc997c12d99aa06cf44680d6f9a6c2190c71ec57e3",
    "iir2": "b66260580b080a8a5de9fb6b27007e320bcaa7d23a2ad8d219ef71c7132915e4",
    "dot8": "be43f98696727dda0a6e44532694be4cfd90b9e79f0d66cec61a0049025d87ea",
    "matvec4": "3306e22d8b379d9a58f0479f93bb3f7b5d1c5c5ccac5b8ebfde6bbf946b05ce4",
    "dct4": "f8267cff5d43406f500ff08b723498272bd9703dcbe19ffe8fd4d54b2936a32a",
}


class TestCanonicalPins:
    def test_every_registered_workload_is_pinned(self):
        from repro.workloads import WORKLOADS

        assert set(_WORKLOAD_DIGESTS) == set(WORKLOADS)

    @pytest.mark.parametrize("name", sorted(_WORKLOAD_DIGESTS))
    def test_workload_digest_is_pinned(self, name):
        # If this fails, canonical_json changed bytes: every persisted
        # cache entry keyed by dfg_digest would silently miss.
        from repro.workloads import WORKLOADS

        assert dfg_digest(WORKLOADS[name]()) == _WORKLOAD_DIGESTS[name]

    def test_every_attr_kind_is_pinned(self):
        import hashlib

        loop = [1]
        loop.append(loop)
        dfg = DFG(name="odd")
        dfg.add_node(
            "b2",
            "b",
            op="sub",
            operands=("a1", "x", 2, 2.5, None, True),
            wide=(1 << 2001,),
            too_wide=(10**5000,),
            selfref=loop,
        )
        dfg.add_node(
            "a1",
            "a",
            operands=(("input", "x0"), ("input", "x1")),
            factor=complex(0, 1),
            nan=math.nan,
            table={"z": [1, 2], "a": (3,)},
            empty=[],
        )
        dfg.add_edge("a1", "b2")
        text = canonical_json(dfg)
        assert text.startswith(
            '{"edges":[["a1","b2"]],"nodes":[{"attrs":{"empty":[],'
            '"nan":NaN,"operands":[["input","x0"],["input","x1"]],'
            '"table":{"a":[3],"z":[1,2]}},"color":"a","name":"a1"},'
            '{"attrs":{"op":"sub","operands":["a1","x",2,2.5,null,true],'
            '"wide":[2296261390548509'
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "726819612b597911c0e163c8f3dc5513a3c7061ae14685835e38d218c8f3bfd1"
        )


class TestDot:
    def test_contains_nodes_and_edges(self, fig4):
        dot = to_dot(fig4)
        assert dot.startswith('digraph "small-example"')
        for n in fig4.nodes:
            assert f'"{n}"' in dot
        assert '"a1" -> "a2";' in dot

    def test_palette(self, fig4):
        dot = to_dot(fig4, color_palette={"a": "red"})
        assert 'fillcolor="red"' in dot
        # 'b' not in custom palette → no fill for b4.
        assert dot.count("fillcolor") == 3


class TestStableKeyEncoding:
    def test_equal_keys_equal_digests(self):
        key = ("digest", 5, None, 1, True)
        assert stable_key_digest(key) == stable_key_digest(("digest", 5, None, 1, True))

    def test_tuple_and_list_encode_identically(self):
        # The service builds keys as tuples; JSON round trips produce
        # lists — both must land on the same cache file.
        assert stable_key_json(("a", (1, 2))) == stable_key_json(["a", [1, 2]])

    def test_scalars_are_distinguished(self):
        assert stable_key_json(1) != stable_key_json("1")
        assert stable_key_json(1) != stable_key_json(True)
        assert stable_key_json(0) != stable_key_json(False)
        assert stable_key_json(None) != stable_key_json("None")

    def test_dataclasses_hash_by_content(self):
        from repro.core.config import SelectionConfig

        a = SelectionConfig(span_limit=1)
        b = SelectionConfig(span_limit=1)
        c = SelectionConfig(span_limit=2)
        assert stable_key_digest(("k", a)) == stable_key_digest(("k", b))
        assert stable_key_digest(("k", a)) != stable_key_digest(("k", c))

    def test_dict_key_types_do_not_collide(self):
        assert stable_key_json({1: "x"}) != stable_key_json({"1": "x"})

    def test_sets_are_order_independent(self):
        assert stable_key_json({3, 1, 2}) == stable_key_json({2, 3, 1})
        assert stable_key_json(frozenset({1})) == stable_key_json({1})

    def test_ranges_encode_compactly_and_distinctly(self):
        # A range is deliberately NOT its element list (shard-partial
        # keys rely on the O(1) form staying small on huge graphs)...
        assert stable_key_json(range(3)) != stable_key_json([0, 1, 2])
        assert len(stable_key_json(range(10**6))) < 40
        # ...but is deterministic and content-addressed like any key.
        assert stable_key_digest(range(2, 9)) == stable_key_digest(range(2, 9))
        assert stable_key_digest(range(2, 9)) != stable_key_digest(range(2, 8))
        assert stable_key_digest(range(0, 6, 2)) != stable_key_digest(
            range(0, 6, 3)
        )

    def test_unencodable_component_is_loud(self):
        with pytest.raises(GraphError, match="no stable encoding"):
            stable_key_json(("k", object()))

    def test_digest_is_pinned(self):
        # The on-disk cache contract: this digest must never drift, or
        # every persisted cache silently invalidates.  If this test
        # fails you have changed the stable-key encoding — bump
        # repro.service.store.DISK_FORMAT and update the literal.
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class K:
            x: int
            y: str

        key = (
            "d",
            5,
            None,
            True,
            1.5,
            {"a": 1, 2: "b"},
            frozenset({3, 2}),
            K(x=1, y="z"),
        )
        assert stable_key_digest(key) == (
            "55280e715b3088d2dbdf9029d76c623a"
            "1641383f22179f0d7c75f1553de34335"
        )
