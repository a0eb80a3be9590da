import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinergut import (
    OrderTooLarge,
    canonical_graph,
    canonical_key,
    canonical_key_and_perms,
    from_edge_list,
    relabel,
)
from steinergut.canon import CANON_CAP, relabel_rows
from strategies import graphs


def test_single_vertex():
    key, perms = canonical_key_and_perms((0,))
    assert key == ()
    assert perms == ((0,),)


def test_automorphism_counts_on_canonical_graphs():
    k4 = canonical_graph(from_edge_list(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]))
    assert len(canonical_key_and_perms(k4.adj)[1]) == 24
    c5 = canonical_graph(from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)]))
    assert len(canonical_key_and_perms(c5.adj)[1]) == 10
    p3 = canonical_graph(from_edge_list(3, [(0, 1), (1, 2)]))
    assert len(canonical_key_and_perms(p3.adj)[1]) == 2


@given(graphs(max_n=6), st.data())
@settings(max_examples=80)
def test_canonical_key_is_isomorphism_invariant(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_key(relabel(g, perm).adj) == canonical_key(g.adj)


@given(graphs(max_n=6))
def test_canonical_graph_is_idempotent_and_isomorphic(g):
    cg = canonical_graph(g)
    assert cg.m == g.m
    assert sorted(cg.degrees) == sorted(g.degrees)
    assert canonical_graph(cg) == cg
    assert canonical_key(cg.adj) == canonical_key(g.adj)


def test_relabel_rows_places_seq_positions():
    g = from_edge_list(3, [(0, 1)])
    # put original vertex 2 first: edge moves to positions (1, 2)
    rows = relabel_rows(g.adj, (2, 0, 1))
    assert rows == (0, 0b100, 0b010)


def test_distinguishes_cospectral_degree_twins():
    # K(3,3) and the triangular prism are both cubic on six vertices
    k33 = from_edge_list(6, [(i, j) for i in range(3) for j in range(3, 6)])
    prism = from_edge_list(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    assert sorted(k33.degrees) == sorted(prism.degrees)
    assert canonical_key(k33.adj) != canonical_key(prism.adj)


def test_certificate_separates_graphs_refinement_cannot_split():
    # both cubic: color refinement leaves each as one cell of six vertices, so
    # the canonical key (the certificate every class is stored under) must
    # split them by search, and still equate relabeled copies
    k33 = from_edge_list(6, [(i, j) for i in range(3) for j in range(3, 6)])
    prism = from_edge_list(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    assert canonical_key(k33.adj) != canonical_key(prism.adj)
    swapped = relabel(k33, [0, 3, 1, 4, 2, 5])
    assert swapped != k33
    assert canonical_key(swapped.adj) == canonical_key(k33.adj)


def test_perms_all_achieve_the_key():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    key, perms = canonical_key_and_perms(g.adj)
    for seq in perms:
        assert canonical_key(relabel_rows(g.adj, seq)) == key
        rows = relabel_rows(g.adj, seq)
        # every optimal ordering lands on the same canonical adjacency
        assert rows == relabel_rows(g.adj, perms[0])


def _complete(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_complete_graph_above_the_cap_is_rejected_at_once():
    k10 = _complete(CANON_CAP + 1)
    start = time.monotonic()
    for search in (canonical_key_and_perms, canonical_key):
        with pytest.raises(OrderTooLarge):
            search(k10.adj)
    with pytest.raises(OrderTooLarge):
        canonical_graph(k10)
    assert time.monotonic() - start < 1.0


def test_path_at_the_cap_still_canonicalizes():
    p9 = from_edge_list(CANON_CAP, [(i, i + 1) for i in range(CANON_CAP - 1)])
    cg = canonical_graph(p9)
    assert cg.m == CANON_CAP - 1
    assert len(canonical_key_and_perms(cg.adj)[1]) == 2
    assert canonical_graph(relabel(p9, [(2 * i + 1) % CANON_CAP for i in range(CANON_CAP)])) == cg
