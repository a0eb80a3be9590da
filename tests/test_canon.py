import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from steinergut import OrderTooLarge, canonical_graph, from_edge_list, relabel
from steinergut.canon import CANON_CAP, _search
from strategies import graphs


def _key(adj):
    return _search(adj)[0]


def _optimal(adj):
    """Every ordering that reaches the key: the search's, twins expanded."""
    return brute.expand_twins(adj, _search(adj)[1])


def _matches_brute(adj):
    """The search's key is the least over all orderings, its orderings are
    exactly the optimal ones with each twin class in increasing order, and
    those expand to every optimal ordering."""
    key, orderings, classes = _search(adj)
    least, every = brute.canonical_key_and_perms(adj)
    assert key == least
    assert classes == brute.twin_classes(adj)

    def increasing(seq):
        return all([v for v in seq if v in cls] == list(cls) for cls in classes)

    assert orderings == tuple(seq for seq in every if increasing(seq))
    assert brute.expand_twins(adj, orderings) == every


def test_single_vertex():
    assert _search((0,)) == ((), ((0,),), ())


def test_automorphism_counts_on_canonical_graphs():
    k4 = canonical_graph(from_edge_list(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]))
    assert len(_optimal(k4.adj)) == 24
    c5 = canonical_graph(from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)]))
    assert len(_optimal(c5.adj)) == 10
    p3 = canonical_graph(from_edge_list(3, [(0, 1), (1, 2)]))
    assert len(_optimal(p3.adj)) == 2


@given(graphs(max_n=6), st.data())
@settings(max_examples=80)
def test_canonical_key_is_isomorphism_invariant(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    assert _key(relabel(g, perm).adj) == _key(g.adj)


@given(graphs(max_n=6))
def test_canonical_graph_is_idempotent_and_isomorphic(g):
    cg = canonical_graph(g)
    # the form read off the key is g relabeled by an optimal ordering
    assert cg == relabel(g, brute.placing(_search(g.adj)[1][0]))
    assert cg.m == g.m
    assert sorted(cg.degrees) == sorted(g.degrees)
    assert canonical_graph(cg) == cg
    assert _key(cg.adj) == _key(g.adj)


def test_distinguishes_cospectral_degree_twins():
    # K(3,3) and the triangular prism are both cubic on six vertices
    k33 = from_edge_list(6, [(i, j) for i in range(3) for j in range(3, 6)])
    prism = from_edge_list(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    assert sorted(k33.degrees) == sorted(prism.degrees)
    assert _key(k33.adj) != _key(prism.adj)


def test_certificate_separates_graphs_refinement_cannot_split():
    # both cubic: color refinement leaves each as one cell of six vertices, so
    # the canonical key (the certificate every class is stored under) must
    # split them by search, and still equate relabeled copies
    k33 = from_edge_list(6, [(i, j) for i in range(3) for j in range(3, 6)])
    prism = from_edge_list(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    assert _key(k33.adj) != _key(prism.adj)
    swapped = relabel(k33, [0, 3, 1, 4, 2, 5])
    assert swapped != k33
    assert _key(swapped.adj) == _key(k33.adj)


def test_perms_all_achieve_the_key():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    key = _key(g.adj)
    perms = _optimal(g.adj)
    assert len(perms) == 8
    for seq in perms:
        h = relabel(g, brute.placing(seq))
        assert _key(h.adj) == key
        # every optimal ordering lands on the canonical form read off the key
        assert h == canonical_graph(g)


def _complete(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_complete_graph_above_the_cap_is_rejected_at_once():
    k10 = _complete(CANON_CAP + 1)
    start = time.monotonic()
    with pytest.raises(OrderTooLarge):
        _search(k10.adj)
    with pytest.raises(OrderTooLarge):
        canonical_graph(k10)
    assert time.monotonic() - start < 1.0


def test_path_at_the_cap_still_canonicalizes():
    p9 = from_edge_list(CANON_CAP, [(i, i + 1) for i in range(CANON_CAP - 1)])
    cg = canonical_graph(p9)
    assert cg.m == CANON_CAP - 1
    assert len(_optimal(cg.adj)) == 2
    assert canonical_graph(relabel(p9, [(2 * i + 1) % CANON_CAP for i in range(CANON_CAP)])) == cg


@given(graphs(max_n=6))
@settings(max_examples=60)
def test_key_and_orderings_match_the_least_over_all_orderings(g):
    _matches_brute(g.adj)


def _twin_rich():
    def edges(n, pairs):
        return from_edge_list(n, list(pairs))

    for n in range(1, 8):
        yield f"K{n}", _complete(n)
        yield f"empty{n}", edges(n, [])
        yield f"star{n}", edges(n, [(0, v) for v in range(1, n)])
    for a in range(1, 4):
        for b in range(a, 8 - a):
            yield f"K{a},{b}", edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])
    for n in (2, 4, 6):
        yield f"K{n}-matching", edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if v != u ^ 1]
        )
    # a triangle of true twins 0, 1, 2 and leaves 4, 5, 6, false twins, on 3
    yield "true+false", edges(7, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
                                  (3, 4), (3, 5), (3, 6)])


@pytest.mark.parametrize("name,g", list(_twin_rich()), ids=[name for name, _ in _twin_rich()])
def test_twin_rich_graphs_match_the_least_over_all_orderings(name, g):
    # the pruned search places twins in increasing order only, so under every
    # labeling of the classes its orderings must still expand to all optimal ones
    for perm in (list(range(g.n)), random.Random(g.n).sample(range(g.n), g.n)):
        _matches_brute(relabel(g, perm).adj)


def test_twin_classes_of_a_graph_with_true_and_false_twins():
    g = dict(_twin_rich())["true+false"]
    key, orderings, classes = _search(g.adj)
    assert classes == ((0, 1, 2), (4, 5, 6))
    # 3! * 3! automorphisms, all of them twin permutations
    assert len(orderings) == 1
    assert len(brute.expand_twins(g.adj, orderings)) == 36


def test_complete_graph_at_the_cap_searches_one_ordering():
    k9 = _complete(CANON_CAP)
    start = time.monotonic()
    key, orderings, classes = _search(k9.adj)
    assert time.monotonic() - start < 0.1
    assert orderings == (tuple(range(CANON_CAP)),)
    assert classes == (tuple(range(CANON_CAP)),)
