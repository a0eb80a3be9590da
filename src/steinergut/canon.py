"""Canonical labeling.

The canonical form of a graph is the vertex order whose upper-triangle
adjacency bitstring, read column by column with the bits of each column
packed most-significant-first, is lexicographically smallest.  A
branch-and-bound search keeps every tied prefix alive level by level, up to
the twin pruning below, so its final frontier holds optimal orderings:
applied to an already canonical graph those are automorphisms.

Twins, vertices u and v with N(u) - {v} = N(v) - {u}, prune the search.
Any permutation inside a twin class is an automorphism, so it maps an
optimal prefix to an optimal prefix with the same column codes; the search
therefore places a vertex only after its smaller twins.  The least code at
every level, and with it the key, stays the same, and the orderings kept are
the optimal ones in which each twin class appears in increasing order.  On
K_n, the empty graph or a star the frontier never holds more than one
ordering.

For a prefix the search finds every minimizing candidate in a single walk
along the placed vertices, the prefix's filter chain: the candidates not
adjacent to a placed vertex survive if there are any (bit 0), otherwise all
of them stay (bit 1).  Each frontier entry keeps its unplaced set, its
least-code candidate cell and that cell's code.  Placing a member x of a
cell of two or more leaves the chain's decisions unchanged, so the child's
cell is the rest of the cell filtered by x alone, in O(1); only the child of
a one-member cell walks its chain again.

Enumeration reads only the pruned search: a child its orderings and twin
classes, for its canonical form and the canonical-deletion test that
accepts it, a parent generators of its automorphism group (its
non-identity orderings and one transposition per consecutive pair of each
twin class), never the whole group.  No entry point expands the twin
classes.  The canonical form is read off the key alone (``_key_mask``),
for ``canonical_graph`` and enumeration alike.

The search has no refinement, so on a graph without twins it keeps every
tied prefix, and its frontier can grow exponentially with the order (up to
384 entries among sampled order-9 graphs).  Every entry point therefore
refuses orders above ``CANON_CAP`` before any search starts.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .errors import OrderTooLarge
from .graph import Graph, from_edge_mask

# Largest order the lex-min search accepts, the order-9 enumeration target:
# without refinement the tied prefixes of a twin-free graph can multiply
# with each order, so the cap bounds the frontier a public caller can ask for.
CANON_CAP = 9

Key = Tuple[int, ...]
Ordering = Tuple[int, ...]


def _twin_classes(adj: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """The twin classes of two or more vertices, each in increasing order.

    Twinship is an equivalence: a vertex cannot have both an adjacent and
    a non-adjacent twin, so each class is all true or all false twins.
    """
    n = len(adj)
    classes = []
    seen = 0
    for u in range(n):
        if seen >> u & 1:
            continue
        cls = [u]
        for v in range(u + 1, n):
            if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                cls.append(v)
                seen |= 1 << v
        if len(cls) > 1:
            classes.append(tuple(cls))
    return tuple(classes)


def _search(adj: Tuple[int, ...]) -> Tuple[Key, Tuple[Ordering, ...], Tuple[Tuple[int, ...], ...]]:
    """The canonical key, the optimal orderings with every twin class in
    increasing order (in lexicographic order), and the twin classes.

    Each ordering is a tuple seq with seq[i] = the original vertex placed at
    canonical position i.  The key has one integer per column 1..n-1.
    Orders above CANON_CAP raise OrderTooLarge.
    """
    n = len(adj)
    if n > CANON_CAP:
        raise OrderTooLarge(f"canonical labeling handles orders up to {CANON_CAP}, got {n}")
    classes = _twin_classes(adj)
    # smaller[x]: the twins of x that must be placed before it
    smaller = [0] * n
    for cls in classes:
        below = 0
        for x in cls:
            smaller[x] = below
            below |= 1 << x
    full = (1 << n) - 1
    # entries: (placed prefix, unplaced set, least-code cell, its code)
    frontier: List[Tuple[Ordering, int, int, int]] = [((), full, full, 0)]
    key: List[int] = []
    for _ in range(1, n):
        best = -1
        kept: List[Tuple[Ordering, int, int, int]] = []
        for seq, rest, cell, code in frontier:
            many = cell & (cell - 1)
            todo = cell
            while todo:
                low = todo & -todo
                todo ^= low
                x = low.bit_length() - 1
                if smaller[x] & rest:
                    continue  # a smaller twin of x is still unplaced
                if many:
                    # the chain keeps its decisions and ends at the cell less x
                    cand, bits = cell ^ low, code
                else:
                    cand, bits = rest ^ low, 0
                    for u in seq:
                        c0 = cand & ~adj[u]
                        if c0:
                            cand = c0
                            bits <<= 1
                        else:
                            bits = bits << 1 | 1
                c0 = cand & ~adj[x]
                if c0:
                    cand, bits = c0, bits << 1
                else:
                    bits = bits << 1 | 1
                if best < 0 or bits < best:
                    best = bits
                    kept = []
                elif bits > best:
                    continue
                kept.append((seq + (x,), rest ^ low, cand, bits))
        key.append(best)
        frontier = kept
    orderings = tuple(seq + (rest.bit_length() - 1,) for seq, rest, _, _ in frontier)
    return tuple(key), orderings, classes


# _MIRROR[j][code]: the j bits of ``code`` in reverse order
_MIRROR = [[0]] + [[int(f"{c:0{j}b}"[::-1], 2) for c in range(1 << j)] for j in range(1, CANON_CAP)]


def _key_mask(key: Sequence[int]) -> int:
    """The edge mask of the canonical form whose column key is ``key``.

    Column j of the key holds the adjacency of canonical position j to
    positions 0..j-1, position 0 the most significant of its j bits; the
    edge mask holds that column at bit j(j-1)/2 with position 0 the least
    significant (``edge_mask``), so each column is reversed.
    """
    em = 0
    for j, code in enumerate(key, 1):
        em |= _MIRROR[j][code] << (j * (j - 1) // 2)
    return em


def canonical_graph(g: Graph) -> Graph:
    """Relabel g into its canonical form; orders above CANON_CAP raise OrderTooLarge."""
    return from_edge_mask(g.n, _key_mask(_search(g.adj)[0]))
