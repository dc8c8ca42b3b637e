"""Property-based tests (hypothesis) for the core invariants.

Strategy: random DAGs are generated from (seed, size, density) triples so
shrinking stays fast and every failure is reproducible from the printed
example.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import brute_force_antichains, networkx_oracle

from repro.core.selection import select_patterns
from repro.dfg.antichains import enumerate_antichains
from repro.dfg.io import from_edge_list, from_json, to_edge_list, to_json
from repro.dfg.levels import LevelAnalysis
from repro.dfg.span import span, span_lower_bound
from repro.dfg.traversal import descendant_masks
from repro.patterns.multiset import bag, bag_difference, bag_key, bag_union, is_subbag
from repro.patterns.pattern import Pattern
from repro.patterns.random_gen import random_pattern_set
from repro.scheduling.node_priority import node_priorities, priority_rank_key
from repro.scheduling.scheduler import MultiPatternScheduler
from repro.workloads.synthetic import layered_dag, random_dag

# Deterministic, CI-friendly settings.
COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

dag_params = st.tuples(
    st.integers(0, 10_000),          # seed
    st.integers(2, 14),              # nodes
    st.sampled_from([0.1, 0.25, 0.5]),  # density
)

layered_params = st.tuples(
    st.integers(0, 10_000),
    st.integers(1, 5),   # layers
    st.integers(1, 5),   # width
)


# --------------------------------------------------------------------------- #
# level analysis
# --------------------------------------------------------------------------- #
@COMMON
@given(dag_params)
def test_levels_invariants(params):
    seed, n, p = params
    dfg = random_dag(seed, n, p)
    lv = LevelAnalysis.of(dfg)
    for node in dfg.nodes:
        assert 0 <= lv.asap[node] <= lv.alap[node] <= lv.asap_max
        assert 1 <= lv.height[node] <= lv.asap_max + 1
        assert lv.asap[node] + lv.height[node] <= lv.asap_max + 1
    for u, v in dfg.edges():
        assert lv.asap[u] < lv.asap[v]
        assert lv.alap[u] < lv.alap[v]
        assert lv.height[u] > lv.height[v]


@COMMON
@given(dag_params)
def test_asap_max_equals_longest_path(params):
    import networkx as nx

    seed, n, p = params
    dfg = random_dag(seed, n, p)
    lv = LevelAnalysis.of(dfg)
    assert lv.asap_max == nx.dag_longest_path_length(networkx_oracle(dfg))


# --------------------------------------------------------------------------- #
# antichains
# --------------------------------------------------------------------------- #
@COMMON
@given(dag_params, st.sampled_from([None, 0, 1, 2]))
def test_enumeration_matches_brute_force(params, limit):
    seed, n, p = params
    dfg = random_dag(seed, min(n, 11), p)
    got = {frozenset(a) for a in enumerate_antichains(dfg, 4, span_limit=limit)}
    assert got == brute_force_antichains(dfg, 4, span_limit=limit)


@COMMON
@given(dag_params)
def test_antichain_members_pairwise_parallel(params):
    seed, n, p = params
    dfg = random_dag(seed, n, p)
    desc = descendant_masks(dfg)
    for a in enumerate_antichains(dfg, 3):
        idx = [dfg.index(x) for x in a]
        for i in idx:
            for j in idx:
                if i != j:
                    assert not desc[i] >> j & 1


@COMMON
@given(dag_params)
def test_span_monotone_under_extension(params):
    seed, n, p = params
    dfg = random_dag(seed, n, p)
    lv = LevelAnalysis.of(dfg)
    antichains = [a for a in enumerate_antichains(dfg, 3) if len(a) >= 2]
    for a in antichains[:50]:
        for k in range(1, len(a)):
            assert span(lv, a[:k]) <= span(lv, a)


# --------------------------------------------------------------------------- #
# node priority
# --------------------------------------------------------------------------- #
@COMMON
@given(dag_params)
def test_priority_is_lexicographic(params):
    seed, n, p = params
    dfg = random_dag(seed, n, p)
    f = node_priorities(dfg)
    rank = priority_rank_key(dfg)
    nodes = list(dfg.nodes)
    for a in nodes:
        for b in nodes:
            if rank[a] > rank[b]:
                assert f[a] > f[b]
            elif rank[a] == rank[b]:
                assert f[a] == f[b]


# --------------------------------------------------------------------------- #
# scheduling
# --------------------------------------------------------------------------- #
def _feasible_pdef(colors: int, capacity: int, pdef: int) -> int:
    """Clamp pdef to the number of distinct capacity-slot patterns that
    exist over ``colors`` colors (multisets: C(capacity+colors-1, colors-1))."""
    from math import comb

    return min(pdef, comb(capacity + colors - 1, colors - 1))


@COMMON
@given(layered_params, st.integers(1, 4), st.integers(0, 999))
def test_scheduler_produces_valid_schedules(params, pdef, lib_seed):
    seed, layers, width = params
    dfg = layered_dag(seed, layers, width)
    rng = random.Random(lib_seed)
    pdef = _feasible_pdef(len(dfg.colors()), 4, pdef)
    lib = random_pattern_set(rng, 4, list(dfg.colors()), pdef)
    schedule = MultiPatternScheduler(lib).schedule(dfg)
    schedule.verify()  # dependencies + conformance + completeness
    lv = LevelAnalysis.of(dfg)
    assert lv.critical_path_length <= schedule.length <= dfg.n_nodes


@COMMON
@given(layered_params, st.integers(0, 999))
def test_theorem1_on_every_cycle(params, lib_seed):
    seed, layers, width = params
    dfg = layered_dag(seed, layers, width)
    rng = random.Random(lib_seed)
    pdef = _feasible_pdef(len(dfg.colors()), 4, 2)
    lib = random_pattern_set(rng, 4, list(dfg.colors()), pdef)
    schedule = MultiPatternScheduler(lib).schedule(dfg)
    lv = LevelAnalysis.of(dfg)
    for rec in schedule.cycles:
        assert schedule.length >= span_lower_bound(lv, rec.scheduled)


@COMMON
@given(layered_params)
def test_scheduling_is_deterministic(params):
    seed, layers, width = params
    dfg = layered_dag(seed, layers, width)
    lib_colors = list(dfg.colors())
    pdef = _feasible_pdef(len(lib_colors), 4, 2)
    lib = random_pattern_set(random.Random(0), 4, lib_colors, pdef)
    a = MultiPatternScheduler(lib).schedule(dfg)
    b = MultiPatternScheduler(lib).schedule(dfg)
    assert a.assignment == b.assignment


# --------------------------------------------------------------------------- #
# pattern selection
# --------------------------------------------------------------------------- #
@COMMON
@given(layered_params, st.integers(2, 4))
def test_selection_covers_all_colors(params, pdef):
    seed, layers, width = params
    dfg = layered_dag(seed, layers, width)
    lib = select_patterns(dfg, pdef=pdef, capacity=4)
    assert set(dfg.colors()) <= lib.color_set()


@COMMON
@given(layered_params, st.integers(2, 3))
def test_selected_library_schedules_graph(params, pdef):
    seed, layers, width = params
    dfg = layered_dag(seed, layers, width)
    lib = select_patterns(dfg, pdef=pdef, capacity=4)
    MultiPatternScheduler(lib).schedule(dfg).verify()


# --------------------------------------------------------------------------- #
# multiset / pattern algebra
# --------------------------------------------------------------------------- #
colors_st = st.lists(st.sampled_from("abcde"), min_size=1, max_size=6)


@COMMON
@given(colors_st, colors_st)
def test_subbag_partial_order(xs, ys):
    a, b = bag(xs), bag(ys)
    assert is_subbag(a, a)
    if is_subbag(a, b) and is_subbag(b, a):
        assert a == b
    union = bag_union(a, b)
    assert is_subbag(a, union) and is_subbag(b, union)
    diff = bag_difference(a, b)
    assert is_subbag(diff, a)


@COMMON
@given(colors_st)
def test_pattern_identity_is_bag(xs):
    p = Pattern(xs)
    q = Pattern(list(reversed(xs)))
    assert p == q
    assert hash(p) == hash(q)
    assert p.key == bag_key(Counter(xs))
    assert p.size == len(xs)


@COMMON
@given(colors_st, colors_st)
def test_subpattern_matches_subbag(xs, ys):
    p, q = Pattern(xs), Pattern(ys)
    assert p.is_subpattern_of(q) == is_subbag(bag(xs), bag(ys))


# --------------------------------------------------------------------------- #
# io round-trips
# --------------------------------------------------------------------------- #
@COMMON
@given(dag_params)
def test_json_round_trip(params):
    seed, n, p = params
    dfg = random_dag(seed, n, p)
    restored = from_json(to_json(dfg))
    assert restored.nodes == dfg.nodes
    assert restored.edges() == dfg.edges()
    assert [restored.color(x) for x in restored.nodes] == [
        dfg.color(x) for x in dfg.nodes
    ]


@COMMON
@given(dag_params)
def test_edge_list_round_trip(params):
    seed, n, p = params
    dfg = random_dag(seed, n, p)
    restored = from_edge_list(
        to_edge_list(dfg), color_fn=lambda name: dfg.color(name)
    )
    assert restored.nodes == dfg.nodes
    assert restored.edges() == dfg.edges()
