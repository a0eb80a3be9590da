import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from steinergut import (
    DreyfusWagner,
    EmptySet,
    IndexOutOfRange,
    OrderTooLarge,
    from_edge_list,
    induced_connected,
    iter_bits,
    mask_of,
    pairwise_distances,
    steiner_all_subsets,
    steiner_oracle,
    steiner_single,
)
from steinergut.steiner import INF
from strategies import connected_graphs, graphs


def test_path_table():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    t = steiner_all_subsets(g)
    assert t.dist[0b0001] == 0
    assert t.dist[0b0011] == 1
    assert t.dist[0b1001] == 3
    assert t.dist[0b1010] == 2
    assert t.dist[0b1111] == 3


def test_singletons_are_zero():
    g = from_edge_list(3, [(0, 1)])  # vertex 2 isolated
    t = steiner_all_subsets(g)
    assert t.dist[0b001] == 0
    assert t.dist[0b100] == 0
    assert t.dist[0b101] == INF


def test_every_engine_returns_the_int_inf_across_components():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    s = 0b0101
    got = [
        steiner_all_subsets(g).dist[s],
        steiner_single(g, s),
        DreyfusWagner(g).distance(0b1111),
        steiner_oracle(g, s),
        pairwise_distances(g)[0][2],
    ]
    assert got == [INF] * 5
    assert all(type(d) is int for d in got)
    assert INF > 2 * 61  # above any sum of two finite distances at MAX_ORDER = 62


def test_table_cap():
    g = from_edge_list(21, [(i, i + 1) for i in range(20)])
    with pytest.raises(OrderTooLarge) as err:
        steiner_all_subsets(g)
    assert str(err.value) == "full table wants n <= 20, got 21"


def test_query_guards():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    for fn in (steiner_single, steiner_oracle):
        with pytest.raises(EmptySet):
            fn(g, 0)
        with pytest.raises(IndexOutOfRange):
            fn(g, 1 << 3)


@given(graphs(max_n=5))
@settings(max_examples=60)
def test_table_matches_brute_oracle(g):
    h = brute.to_networkx(g)
    t = steiner_all_subsets(g)
    for s in range(1, 1 << g.n):
        assert t.dist[s] == brute.steiner_distance(h, iter_bits(s))


@given(graphs(max_n=6))
@settings(max_examples=60)
def test_three_engines_agree(g):
    t = steiner_all_subsets(g)
    dw = DreyfusWagner(g)
    for s in range(1, 1 << g.n):
        assert t.dist[s] == dw.distance(s) == steiner_oracle(g, s)


def test_fresh_and_cached_dreyfus_wagner_agree():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    dw = DreyfusWagner(g)
    for s in range(1, 1 << 5):
        assert dw.distance(s) == steiner_single(g, s)


@given(connected_graphs(max_n=6), st.data())
def test_monotone_under_superset(g, data):
    t = steiner_all_subsets(g)
    s = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    sup = data.draw(st.integers(min_value=s, max_value=g.full_mask).map(lambda x: x | s))
    assert t.dist[s] <= t.dist[sup]


@given(connected_graphs(max_n=7))
def test_pairs_equal_bfs(g):
    t = steiner_all_subsets(g)
    dm = pairwise_distances(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert t.dist[(1 << u) | (1 << v)] == dm[u][v]


@given(graphs(max_n=7), st.data())
def test_distance_floor_hits_exactly_on_connected_subsets(g, data):
    t = steiner_all_subsets(g)
    s = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    size = s.bit_count()
    d = t.dist[s]
    assert d >= size - 1
    assert (d == size - 1) == induced_connected(g, s)


@given(graphs(max_n=6))
def test_pairwise_distances_match_networkx(g):
    h = brute.to_networkx(g)
    spl = dict(nx.all_pairs_shortest_path_length(h))
    dm = pairwise_distances(g)
    for u in range(g.n):
        for v in range(g.n):
            assert dm[u][v] == spl[u].get(v, INF)


def _seeded_graph(seed, n, p):
    rng = random.Random(seed)
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def _sampled_subsets(seed, n, count, max_size):
    rng = random.Random(seed)
    return [mask_of(rng.sample(range(n), rng.randint(1, max_size))) for _ in range(count)]


@pytest.mark.parametrize(
    "seed,n,p",
    [(1, 10, 0.3), (2, 11, 0.5), (3, 12, 0.25), (4, 13, 0.4), (5, 14, 0.35)],
)
def test_table_matches_dreyfus_wagner_on_sampled_subsets(seed, n, p):
    g = _seeded_graph(seed, n, p)
    t = steiner_all_subsets(g)
    dw = DreyfusWagner(g)
    for s in _sampled_subsets(seed, n, 120, 6):
        assert t.dist[s] == dw.distance(s), bin(s)


def test_disconnected_table_keeps_inf_for_sets_across_components():
    # a 5-cycle, a 4-path and an isolated vertex: order 10, three components
    g = from_edge_list(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (7, 8)])
    t = steiner_all_subsets(g)
    assert isinstance(t.dist, tuple)
    dw = DreyfusWagner(g)
    comps = (0b0000011111, 0b0111100000, 0b1000000000)
    inside = [s for c in comps for s in range(1, c + 1) if s & c == s]
    for s in inside + _sampled_subsets(6, 10, 200, 6) + [g.full_mask, 0b1111100000]:
        d = t.dist[s]
        assert d == dw.distance(s)
        meets = sum(1 for c in comps if s & c)
        assert (d == INF) == (meets > 1)
        if meets == 1:
            assert type(d) is int


@pytest.mark.parametrize("n", [2, 3, 5, 9, 17])
def test_path_table_carries_into_each_new_count_slice(n):
    # the full path has distance n - 1 = 2^j, the first count that needs bit j
    g = from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    dist = steiner_all_subsets(g).dist
    assert dist[(1 << n) - 1] == n - 1
    # a subset of a path labelled in order spans its least to its greatest vertex
    assert dist == bytes(s.bit_length() - (s & -s).bit_length() for s in range(1 << n))


@pytest.mark.parametrize("n, across", [(5, 31), (9, 511), (17, 131_071)])
def test_path_plus_isolated_vertex_is_inf_exactly_across_components(n, across):
    g = from_edge_list(n + 1, [(i, i + 1) for i in range(n - 1)])
    dist = steiner_all_subsets(g).dist
    on_path = (1 << n) - 1
    assert sum(d == INF for d in dist) == across == (1 << n) - 1
    for s, d in enumerate(dist):
        path_part = s & on_path
        if s >> n and path_part:
            assert d == INF
        else:
            assert d == path_part.bit_length() - (path_part & -path_part).bit_length()
