import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

import brute
from steinergut import (
    Graph,
    IndexOutOfRange,
    LoopEdge,
    OrderTooLarge,
    complement,
    edge_mask,
    from_adjacency,
    from_edge_list,
    from_edge_mask,
    induced_connected,
    is_connected,
    is_k_connected,
    is_regular,
    iter_bits,
    mask_of,
    relabel,
)
from strategies import graphs


def path4() -> Graph:
    return from_edge_list(4, [(0, 1), (1, 2), (2, 3)])


def test_from_edge_list_basics():
    g = path4()
    assert g.n == 4
    assert g.m == 3
    assert g.degrees == (1, 2, 2, 1)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.edges() == ((0, 1), (1, 2), (2, 3))
    assert g.neighbors[1] == (0, 2)
    assert g.full_mask == 0b1111


def test_duplicate_edges_collapse():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_from_edge_list_rejects_loop():
    with pytest.raises(LoopEdge):
        from_edge_list(3, [(1, 1)])


def test_from_edge_list_rejects_bad_endpoint():
    with pytest.raises(IndexOutOfRange):
        from_edge_list(3, [(0, 3)])


@pytest.mark.parametrize("n", [0, 63, -1])
def test_order_limits(n):
    with pytest.raises(OrderTooLarge):
        from_edge_list(n, [])


def test_from_adjacency_checks_symmetry():
    with pytest.raises(IndexOutOfRange):
        from_adjacency([0b010, 0b000, 0b000])
    with pytest.raises(LoopEdge):
        from_adjacency([0b001])
    g = from_adjacency([0b010, 0b101, 0b010])
    assert g.edges() == ((0, 1), (1, 2))


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(iter_bits(0b100101)) == [0, 2, 5]
    assert list(iter_bits(0)) == []


def test_complement_of_path():
    g = complement(path4())
    assert g.m == 3
    assert g.edges() == ((0, 2), (0, 3), (1, 3))


@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(graphs())
def test_complement_degrees(g):
    degs = g.degrees
    cdegs = complement(g).degrees
    assert all(d + cd == g.n - 1 for d, cd in zip(degs, cdegs))


@given(graphs())
def test_is_connected_matches_networkx(g):
    assert is_connected(g) == nx.is_connected(brute.to_networkx(g))


@given(graphs(max_n=6), st.data())
def test_induced_connected_matches_networkx(g, data):
    s = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    verts = list(iter_bits(s))
    sub = brute.to_networkx(g).subgraph(verts)
    assert induced_connected(g, s) == nx.is_connected(sub)


@given(graphs(min_n=2, max_n=6), st.data())
def test_is_k_connected_matches_networkx(g, data):
    t = data.draw(st.integers(min_value=1, max_value=g.n - 1))
    expected = is_connected(g) and nx.node_connectivity(brute.to_networkx(g)) >= t
    # complete graphs have no cutset at all; connectivity convention is n-1
    assert is_k_connected(g, t) == expected


def test_is_k_connected_requires_room():
    g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert is_k_connected(g, 2)
    assert not is_k_connected(g, 3)  # n <= t


def test_is_regular():
    assert is_regular(from_edge_list(3, [(0, 1), (1, 2), (0, 2)]))
    assert not is_regular(path4())


@given(graphs(max_n=6), st.data())
def test_relabel_preserves_structure(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    h = relabel(g, perm)
    assert h.m == g.m
    assert sorted(h.degrees) == sorted(g.degrees)
    for u, v in g.edges():
        assert h.has_edge(perm[u], perm[v])


def test_relabel_rejects_non_permutation():
    with pytest.raises(IndexOutOfRange):
        relabel(path4(), [0, 0, 1, 2])


@given(graphs())
def test_edge_mask_round_trip(g):
    assert from_edge_mask(g.n, edge_mask(g)) == g


def test_edge_mask_is_column_major():
    # pair (i, j) with i < j sits at bit j(j-1)/2 + i
    g = from_edge_list(4, [(1, 3)])
    assert edge_mask(g) == 1 << (3 * 2 // 2 + 1)


def test_from_edge_mask_rejects_stray_bits():
    with pytest.raises(IndexOutOfRange):
        from_edge_mask(3, 1 << 3)


def test_connectivity_read_off_an_edge_mask_matches_the_flood():
    # every labeled graph through order 6, and the order-1 graph
    from steinergut.graph import _edge_mask_connected

    for n in range(1, 7):
        for em in range(1 << n * (n - 1) // 2):
            assert _edge_mask_connected(n, em) == is_connected(from_edge_mask(n, em)), (n, em)
