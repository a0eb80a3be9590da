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
twin class), never the whole group.

``canonical_key_and_perms`` still returns every optimal ordering, each
pruned one expanded by the permutations of every twin class, so factorial
time and memory remain there (K_10 has 3.6 million optimal orderings).
Every entry point therefore refuses orders above ``CANON_CAP`` before any
search starts.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import List, Tuple

from .errors import OrderTooLarge
from .graph import Graph

# Largest order the lex-min search accepts: the order-9 enumeration target.
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


def canonical_key_and_perms(adj: Tuple[int, ...]) -> Tuple[Key, Tuple[Ordering, ...]]:
    """Return the canonical column key and all orderings that achieve it.

    Each ordering is a tuple seq with seq[i] = the original vertex placed at
    canonical position i, in lexicographic order.  The key has one integer
    per column 1..n-1.  Orders above CANON_CAP raise OrderTooLarge.
    """
    key, orderings, classes = _search(adj)
    images = []
    for moves in product(*(permutations(cls) for cls in classes)):
        to = list(range(len(adj)))
        for cls, move in zip(classes, moves):
            for a, b in zip(cls, move):
                to[a] = b
        images += [tuple([to[v] for v in seq]) for seq in orderings]
    return key, tuple(sorted(images))


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
    _, orderings, _ = _search(g.adj)
    return Graph(g.n, relabel_rows(g.adj, orderings[0]), g.m)
