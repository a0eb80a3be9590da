import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from steinergut import (
    Disconnected,
    DreyfusWagner,
    EmptySet,
    IndexOutOfRange,
    OrderTooLarge,
    from_edge_list,
    from_edge_mask,
    induced_connected,
    is_connected,
    iter_bits,
    mask_of,
    pairwise_distances,
    steiner_all_subsets,
    steiner_oracle,
    steiner_single,
)
from steinergut.steiner import INF, _tables
from strategies import connected_graphs, graphs


def test_path_table():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    t = steiner_all_subsets(g)
    assert t.dist[0b0001] == 0
    assert t.dist[0b0011] == 1
    assert t.dist[0b1001] == 3
    assert t.dist[0b1010] == 2
    assert t.dist[0b1111] == 3


def _refused(graphs):
    """The one-line refusal of a batch of tables holding a disconnected graph."""
    with pytest.raises(Disconnected) as err:
        _tables(graphs)
    assert str(err.value) == "Steiner tables are built for connected graphs only"


def _table_if_connected(g):
    """G's table, or None once the table of a disconnected G is refused."""
    if is_connected(g):
        return steiner_all_subsets(g)
    with pytest.raises(Disconnected):
        steiner_all_subsets(g)
    return None


def test_singletons_are_zero():
    dist = steiner_all_subsets(from_edge_list(3, [(0, 1), (1, 2)])).dist
    assert [dist[1 << v] for v in range(3)] == [0, 0, 0]
    g = from_edge_list(3, [(0, 1)])  # vertex 2 isolated
    _refused([g])
    for engine in (steiner_single, steiner_oracle):
        assert engine(g, 0b001) == engine(g, 0b100) == 0
        assert engine(g, 0b101) == INF


def test_every_engine_returns_the_int_inf_across_components():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    s = 0b0101
    with pytest.raises(Disconnected):
        steiner_all_subsets(g)
    got = [
        steiner_single(g, s),
        DreyfusWagner(g).distance(0b1111),
        steiner_oracle(g, s),
        pairwise_distances(g)[0][2],
    ]
    assert got == [INF] * 4
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
    t = _table_if_connected(g)
    dw = DreyfusWagner(g)
    for s in range(1, 1 << g.n):
        d = brute.steiner_distance(h, iter_bits(s))
        assert dw.distance(s) == d
        assert t is None or t.dist[s] == d


@given(graphs(max_n=6))
@settings(max_examples=60)
def test_three_engines_agree(g):
    t = _table_if_connected(g)
    dw = DreyfusWagner(g)
    for s in range(1, 1 << g.n):
        d = dw.distance(s)
        assert d == steiner_oracle(g, s)
        assert t is None or t.dist[s] == d


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
    t = _table_if_connected(g)
    s = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    size = s.bit_count()
    d = steiner_single(g, s)
    assert t is None or t.dist[s] == d
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
    # seed 3 draws a disconnected graph, whose table is refused; the oracle
    # stands in for it there
    g = _seeded_graph(seed, n, p)
    t = _table_if_connected(g)
    dw = DreyfusWagner(g)
    for s in _sampled_subsets(seed, n, 120, 6):
        assert dw.distance(s) == (steiner_oracle(g, s) if t is None else t.dist[s]), bin(s)


def test_disconnected_table_keeps_inf_for_sets_across_components():
    # a 5-cycle, a 4-path and an isolated vertex: order 10, three components
    # the table is refused; the DP, which takes any graph, keeps INF
    g = from_edge_list(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (7, 8)])
    _refused([g])
    dw = DreyfusWagner(g)
    comps = (0b0000011111, 0b0111100000, 0b1000000000)
    inside = [s for c in comps for s in range(1, c + 1) if s & c == s]
    for s in inside + _sampled_subsets(6, 10, 200, 6) + [g.full_mask, 0b1111100000]:
        d = dw.distance(s)
        assert d == steiner_oracle(g, s)
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
    # the table is refused only after the path part's last level; the DP
    # gives INF exactly across components, on every set where that is cheap
    g = from_edge_list(n + 1, [(i, i + 1) for i in range(n - 1)])
    _refused([g])
    dw = DreyfusWagner(g)
    on_path = (1 << n) - 1
    sets = range(1, 1 << (n + 1)) if n < 10 else _sampled_subsets(n, n + 1, 300, 5)
    dist = {s: dw.distance(s) for s in sets}
    if n < 10:
        assert sum(d == INF for d in dist.values()) == across == (1 << n) - 1
    for s, d in dist.items():
        path_part = s & on_path
        if s >> n and path_part:
            assert d == INF
        else:
            assert d == path_part.bit_length() - (path_part & -path_part).bit_length()


@st.composite
def batches_of_one_order(draw, min_n=2, max_n=9, max_size=70):
    """1..max_size connected graphs of one order: a random tree plus random edges."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    size = draw(st.integers(min_value=1, max_value=max_size))
    batch = []
    for _ in range(size):
        parents = draw(st.lists(st.integers(0, n), min_size=n - 1, max_size=n - 1))
        extra = draw(st.integers(min_value=0, max_value=(1 << n * (n - 1) // 2) - 1))
        g = from_edge_mask(n, extra)
        tree = [(p % v, v) for v, p in enumerate(parents, 1)]
        batch.append(from_edge_list(n, list(g.edges()) + tree))
    return batch


@given(batches_of_one_order())
@settings(max_examples=40)
def test_a_batch_of_tables_matches_each_graphs_own(batch):
    # each graph's 2^n-bit block evolves as its own table would alone
    assert [t.dist for t in _tables(batch)] == [steiner_all_subsets(g).dist for g in batch]


def test_a_disconnected_graph_as_a_batch_of_one_keeps_inf():
    # the table is refused; the oracle keeps INF exactly across components
    g = from_edge_list(5, [(0, 1), (1, 2), (3, 4)])
    _refused([g])
    assert [s for s in range(1, 32) if steiner_oracle(g, s) == INF] == [
        s for s in range(1, 32) if s & 0b00111 and s & 0b11000
    ]


def test_a_mixed_batch_keeps_inf_only_in_its_disconnected_blocks():
    # a batch holding a disconnected graph is refused wherever it stands,
    # also when the connected path needs more levels than it; the path's
    # own table stays exact
    split = from_edge_list(6, [(0, 1), (2, 3), (4, 5)])
    path = from_edge_list(6, [(i, i + 1) for i in range(5)])
    star_and_point = from_edge_list(6, [(0, 1), (0, 2), (0, 3), (0, 4)])
    for batch in ([split, path, star_and_point], [path, split], [path, star_and_point]):
        _refused(batch)
    (table,) = _tables([path])
    assert type(table.dist) is bytes
    assert tuple(table.dist) == tuple(steiner_oracle(path, s) if s else 0 for s in range(64))


def test_a_batch_of_tables_is_empty_or_of_one_order():
    assert _tables([]) == []
    with pytest.raises(ValueError):
        _tables([from_edge_list(3, [(0, 1), (1, 2)]), from_edge_list(2, [(0, 1)])])
