"""Hypothesis strategies shared across the test modules."""

from hypothesis import strategies as st

from steinergut import edge_mask, from_edge_list, from_edge_mask


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 7):
    """An arbitrary simple graph drawn as (order, upper-triangle bitmask)."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    bits = n * (n - 1) // 2
    em = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    return from_edge_mask(n, em)


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 7):
    """A connected graph drawn with no filter: the order, a vertex order, an
    earlier parent for each later vertex (a spanning tree), and an
    upper-triangle bitmask of extra edges OR'd in.

    Every connected labeled graph can be drawn: its breadth-first order from
    any vertex, each vertex's parent in that search, and its own edge mask.
    """
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    order = draw(st.permutations(range(n)))
    tree = [(order[draw(st.integers(0, i - 1))], order[i]) for i in range(1, n)]
    bits = n * (n - 1) // 2
    extra = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    return from_edge_mask(n, edge_mask(from_edge_list(n, tree)) | extra)
