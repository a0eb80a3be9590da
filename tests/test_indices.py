import random
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from steinergut import (
    Disconnected,
    KOutOfRange,
    OrderTooLarge,
    from_edge_list,
    gutman,
    is_connected,
    index_report,
    steiner_all_subsets,
    steiner_degree_distance,
    steiner_gutman,
    steiner_wiener,
)
from steinergut.indices import _all_k_sums, _sums
from strategies import connected_graphs


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def test_small_path_values():
    g = path(3)
    assert steiner_gutman(g, 2) == 6
    assert steiner_wiener(g, 2) == 4
    assert steiner_degree_distance(g, 2) == 10
    assert gutman(g) == 6
    g = path(4)
    assert steiner_wiener(g, 3) == 10


def test_cycle5_values():
    g = cycle(5)
    assert steiner_gutman(g, 2) == 60
    assert steiner_gutman(g, 3) == 200
    assert steiner_gutman(g, 4) == 240
    assert steiner_gutman(g, 5) == 128


def test_wiener_k1_is_zero():
    assert steiner_wiener(path(4), 1) == 0


def test_k_guards(count_calls):
    from steinergut import steiner

    tables = count_calls(steiner, "_tables")
    g = path(4)
    with pytest.raises(KOutOfRange):
        steiner_gutman(g, 1)
    with pytest.raises(KOutOfRange):
        steiner_gutman(g, 5)
    with pytest.raises(KOutOfRange):
        steiner_wiener(g, 0)
    # at the table cap, a bad k is refused before the 2^20 table is built
    with pytest.raises(KOutOfRange) as err:
        steiner_gutman(path(20), 99)
    assert str(err.value) == "k must satisfy 2 <= k <= 20, got 99"
    with pytest.raises(KOutOfRange) as err:
        steiner_gutman(path(5), 9)
    assert str(err.value) == "k must satisfy 2 <= k <= 5, got 9"
    assert len(tables) == 0


def test_disconnected_rejected():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        steiner_gutman(g, 2)
    with pytest.raises(Disconnected):
        gutman(g)


@given(connected_graphs(min_n=2, max_n=6), st.data())
@settings(max_examples=60)
def test_indices_match_brute_oracles(g, data):
    k = data.draw(st.integers(min_value=2, max_value=g.n))
    h = brute.to_networkx(g)
    assert steiner_gutman(g, k) == brute.steiner_gutman(h, k)
    assert steiner_wiener(g, k) == brute.steiner_wiener(h, k)
    assert steiner_degree_distance(g, k) == brute.steiner_degree_distance(h, k)


@given(connected_graphs(min_n=2, max_n=7))
def test_gutman_is_the_k2_case(g):
    assert gutman(g) == steiner_gutman(g, 2)
    assert gutman(g) == brute.gutman(brute.to_networkx(g))


@pytest.mark.parametrize("n", range(2, 8))
def test_complete_graph_closed_values(n):
    # every k-subset induces a connected subgraph, so d(S) = k - 1 throughout
    from math import comb

    g = from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    for k in range(2, n + 1):
        assert steiner_wiener(g, k) == (k - 1) * comb(n, k)
        assert steiner_gutman(g, k) == (k - 1) * comb(n, k) * (n - 1) ** k


def test_index_report_bundles_everything():
    rep = index_report(path(3), 2, graph_id="Bg")
    assert (rep.sgut, rep.sw, rep.sdd, rep.gut) == (6, 4, 10, 6)
    assert rep.graph_id == "Bg"
    rep3 = index_report(path(3), 3)
    assert rep3.gut is None
    assert rep3.sgut == 4


def _subset_sums(dist, degs, k):
    """sgut, sw and sdd at k by a literal k-subset sum over ``dist``."""
    sgut = sw = sdd = 0
    for verts in combinations(range(len(degs)), k):
        d = dist[sum(1 << v for v in verts)]
        sgut += prod(degs[v] for v in verts) * d
        sw += d
        sdd += sum(degs[v] for v in verts) * d
    return sgut, sw, sdd


def _seeded_connected(rng, n):
    p = rng.uniform(0.2, 0.9)
    while True:
        g = from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        if is_connected(g):
            return g


@pytest.mark.parametrize("n", range(1, 15))
def test_all_k_sums_match_direct_subset_sums(n):
    rng = random.Random(n)
    for _ in range(4):
        g = _seeded_connected(rng, n)
        dist = steiner_all_subsets(g).dist
        (sums,) = _sums([g])
        assert sums.sw[1] == steiner_wiener(g, 1) == 0
        for k in range(2, n + 1):
            got = (sums.sgut[k], sums.sw[k], sums.sdd[k])
            assert got == _subset_sums(dist, g.degrees, k), (n, k)
        # each public index reads the same sums, at one k per graph
        if n >= 2:
            k = rng.randint(2, n)
            public = (steiner_gutman(g, k), steiner_wiener(g, k), steiner_degree_distance(g, k))
            assert public == (sums.sgut[k], sums.sw[k], sums.sdd[k]), (n, k)


def test_every_index_rejects_a_disconnected_graph(count_calls):
    from steinergut import steiner

    g = from_edge_list(5, [(0, 1), (1, 2), (3, 4)])
    tables = count_calls(steiner, "_tables")
    for index in (steiner_gutman, steiner_wiener, steiner_degree_distance):
        for k in range(2, 6):
            with pytest.raises(Disconnected):
                index(g, k)
        # a bad k on a disconnected graph still reports the disconnection first
        with pytest.raises(Disconnected):
            index(g, 9)
    with pytest.raises(Disconnected):
        steiner_wiener(g, 1)
    # at the table cap, one edge: each index and the report refuse the graph
    # before its 2^20 table is built
    one_edge = from_edge_list(20, [(0, 1)])
    for index in (steiner_gutman, steiner_wiener, steiner_degree_distance, index_report):
        with pytest.raises(Disconnected) as err:
            index(one_edge, 3)
        assert str(err.value) == "invariant defined for connected graphs only"
    assert len(tables) == 0


def complete(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_complete_graph_at_the_table_cap():
    # K20 has the largest lanes the cap allows: every degree is 19 and every
    # k-set has Steiner distance k - 1
    n = 20
    g = complete(n)
    (sums,) = _sums([g])
    for k in range(2, n + 1):
        sets = (k - 1) * comb(n, k)
        assert sums.sgut[k] == sets * 19**k
        assert sums.sw[k] == sets
        assert sums.sdd[k] == sets * 19 * k


@pytest.mark.parametrize("name", ["P20", "seeded"])
def test_order_20_closed_values(name):
    n = 20
    g = path(n) if name == "P20" else _seeded_connected(random.Random(20), n)
    (sums,) = _sums([g])
    # the whole vertex set spans a tree; k = 2 is the BFS Gutman index
    assert sums.sgut[n] == (n - 1) * prod(g.degrees)
    assert sums.sw[n] == n - 1
    assert sums.sdd[n] == (n - 1) * 2 * g.m
    assert sums.sgut[2] == gutman(g)


def test_lane_bound_is_exact_at_its_edge_and_refused_past_it():
    # order 4 splits into low {0, 1, 2} and high {3}; with every distance at
    # n - 1 a lane holds (n - 1) * (1 + D), which is 2^64 - 1 at the edge
    n = 4
    dist = bytes([0] + [n - 1] * ((1 << n) - 1))
    edge = (1 << 64) // (n - 1) - 1
    degs = (1, 1, 1, edge)
    sums = _all_k_sums(dist, n, degs)
    for k in range(n + 1):
        assert (sums.sgut[k], sums.sw[k], sums.sdd[k]) == _subset_sums(dist, degs, k)
    # the high half's check is kept with its weights, and refuses every call
    for _ in range(2):
        with pytest.raises(OrderTooLarge, match="64-bit lanes"):
            _all_k_sums(dist, n, (1, 1, 1, edge + 1))
    with pytest.raises(OrderTooLarge):
        _all_k_sums(bytes(1 << 20), 20, (10**6,) * 20)
    assert _all_k_sums(dist, n, degs) == sums


def test_the_sdd_free_pass_keeps_sgut_and_sw():
    # every connected graph through order 7, as a sweep reads them
    from steinergut import EnumerationSpec, enumerate_graphs

    for n in range(1, 8):
        graphs = enumerate_graphs(EnumerationSpec(n=n))
        for g, full, lean in zip(graphs, _sums(graphs), _sums(graphs, sdd=False)):
            assert (lean.sgut, lean.sw, lean.sdd) == (full.sgut, full.sw, None), g.adj


def test_kept_half_weights_are_bounded_and_shared():
    # every connected order-6 graph from cold caches, most reusing a degree
    # half an earlier graph left, against the direct subset sums; past the
    # kept orders nothing is kept
    from steinergut import EnumerationSpec, enumerate_graphs
    from steinergut.indices import _HALVES, _KEPT, _KEPT_ORDER

    assert [f.cache_info().maxsize for f in _KEPT] == [_HALVES] * 2
    for f in _KEPT:
        f.cache_clear()
    graphs = enumerate_graphs(EnumerationSpec(n=6))
    for g, sums in zip(graphs, _sums(graphs)):
        dist = steiner_all_subsets(g).dist
        for k in range(2, 7):
            assert (sums.sgut[k], sums.sw[k], sums.sdd[k]) == _subset_sums(dist, g.degrees, k)
    assert all(f.cache_info().hits > 0 for f in _KEPT)
    kept = [f.cache_info().currsize for f in _KEPT]
    _sums([path(_KEPT_ORDER + 1), cycle(_KEPT_ORDER + 1)])
    assert [f.cache_info().currsize for f in _KEPT] == kept


def test_batched_sums_match_each_graphs_own():
    graphs = [path(6), cycle(6), from_edge_list(6, [(0, v) for v in range(1, 6)])]
    for sdd in (True, False):
        assert _sums(graphs, sdd) == [_sums([g], sdd)[0] for g in graphs]
