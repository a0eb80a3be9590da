"""Canonical labeling and isomorphism certificates.

The canonical form of a graph is the vertex order whose upper-triangle
adjacency bitstring, read column by column with the bits of each column
packed most-significant-first, is lexicographically smallest.  A
branch-and-bound search keeps every tied prefix alive level by level, so
the final frontier is exactly the set of optimal orderings: applied to an
already canonical graph those are its automorphisms.

The search (``_lexmin``) takes one allowed-vertex mask per position.  For a
prefix it finds every minimizing candidate in a single walk over the prefix:
at each placed vertex the candidates not adjacent to it survive if there are
any (bit 0), otherwise all of them stay (bit 1).

``certificate`` is the cheap isomorphism test used to dedup enumeration.
Color refinement, started from the degrees, splits the vertices into an
isomorphism-invariant ordered sequence of cells; the certificate is the
lex-min key over the orderings that list the cells in that order.  Two
graphs of one order have equal certificates exactly when they are
isomorphic, and refinement usually leaves cells so small that the search
is a handful of steps, so enumeration runs the full canon only once per new
class.

Both searches keep every optimal ordering, so a highly symmetric graph costs
factorial time and memory (K_10 has 3.6 million optimal orderings).  Every
public entry point therefore refuses orders above ``CANON_CAP`` before any
search starts.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .errors import OrderTooLarge
from .graph import Graph, iter_bits

# Largest order the lex-min searches accept: the order-9 enumeration target.
CANON_CAP = 9

Key = Tuple[int, ...]


def _require_order(n: int) -> None:
    if n > CANON_CAP:
        raise OrderTooLarge(f"canonical labeling handles orders up to {CANON_CAP}, got {n}")


def _lexmin(
    adj: Sequence[int], allowed: Sequence[int]
) -> Tuple[Key, Tuple[Tuple[int, ...], ...]]:
    """Lex-min column key over the orderings with position i drawn from allowed[i].

    Returns the key and every ordering that achieves it, in the order the
    level-by-level search finds them (frontier order, then ascending vertex).
    """
    n = len(adj)
    frontier: List[Tuple[Tuple[int, ...], int]] = [((u,), 1 << u) for u in iter_bits(allowed[0])]
    key: List[int] = []
    for i in range(1, n):
        allow = allowed[i]
        best = -1
        next_frontier: List[Tuple[Tuple[int, ...], int]] = []
        for seq, used in frontier:
            cand = allow & ~used
            bits = 0
            for u in seq:
                c0 = cand & ~adj[u]
                if c0:
                    cand = c0
                    bits <<= 1
                else:
                    bits = bits << 1 | 1
            if best < 0 or bits < best:
                best = bits
                next_frontier = []
            elif bits > best:
                continue
            while cand:
                low = cand & -cand
                next_frontier.append((seq + (low.bit_length() - 1,), used | low))
                cand ^= low
        key.append(best)
        frontier = next_frontier
    return tuple(key), tuple(seq for seq, _ in frontier)


def canonical_key_and_perms(adj: Tuple[int, ...]) -> Tuple[Key, Tuple[Tuple[int, ...], ...]]:
    """Return the canonical column key and all orderings that achieve it.

    Each ordering is a tuple seq with seq[i] = the original vertex placed at
    canonical position i.  The key has one integer per column 1..n-1.
    Orders above CANON_CAP raise OrderTooLarge.
    """
    n = len(adj)
    _require_order(n)
    return _lexmin(adj, [(1 << n) - 1] * n)


def canonical_key(adj: Tuple[int, ...]) -> Key:
    return canonical_key_and_perms(adj)[0]


def _refined_cells(adj: Sequence[int]) -> List[int]:
    """Cell mask of each position under the stable color refinement.

    Colors start as the degrees.  Each round names a vertex's new color by
    the rank of its signature (own color, neighbour count in each color class
    in color order), which splits classes and never merges them; refinement
    stops when a round splits nothing.  Position i gets the cell of the i-th
    vertex in color order.
    """
    n = len(adj)
    colors = [row.bit_count() for row in adj]
    count = len(set(colors))
    while True:
        cells = {}
        for v, c in enumerate(colors):
            cells[c] = cells.get(c, 0) | 1 << v
        if count == n:
            break
        masks = [cells[c] for c in sorted(cells)]
        sigs = [(c, *[(row & mask).bit_count() for mask in masks]) for c, row in zip(colors, adj)]
        rank = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
        if len(rank) == count:
            break
        colors = [rank[sig] for sig in sigs]
        count = len(rank)
    return [cells[c] for c in sorted(colors)]


def certificate(adj: Tuple[int, ...]) -> Key:
    """An isomorphism certificate: equal for two graphs of one order iff isomorphic.

    The lex-min key over the orderings that respect the refined color
    classes.  It is not the canonical key, but costs far less to find.
    Orders above CANON_CAP raise OrderTooLarge.
    """
    _require_order(len(adj))
    return _lexmin(adj, _refined_cells(adj))[0]


def relabel_rows(adj: Tuple[int, ...], seq: Tuple[int, ...]) -> Tuple[int, ...]:
    """Adjacency rows after placing original vertex seq[i] at position i."""
    n = len(adj)
    out = [0] * n
    for i, u in enumerate(seq):
        row = adj[u]
        for j, v in enumerate(seq):
            if row >> v & 1:
                out[i] |= 1 << j
    return tuple(out)


def canonical_graph(g: Graph) -> Graph:
    """Relabel g into its canonical form; orders above CANON_CAP raise OrderTooLarge."""
    _, perms = canonical_key_and_perms(g.adj)
    return Graph(g.n, relabel_rows(g.adj, perms[0]), g.m)
