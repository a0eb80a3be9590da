"""Canonical labeling.

The canonical form of a graph is the vertex order whose upper-triangle
adjacency bitstring, read column by column with the bits of each column
packed most-significant-first, is lexicographically smallest.  A
branch-and-bound search keeps every tied prefix alive level by level, so
the final frontier is exactly the set of optimal orderings: applied to an
already canonical graph those are its automorphisms.

For a prefix the search finds every minimizing candidate in a single walk:
at each placed vertex the candidates not adjacent to it survive if there are
any (bit 0), otherwise all of them stay (bit 1).

Enumeration dedups children by the canonical key itself: its deletion rule
leaves so few children per class that a cheaper isomorphism test in front
of the canon would cost more than it saves.

The search keeps every optimal ordering, so a highly symmetric graph costs
factorial time and memory (K_10 has 3.6 million optimal orderings).  Every
public entry point therefore refuses orders above ``CANON_CAP`` before any
search starts.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import OrderTooLarge
from .graph import Graph

# Largest order the lex-min search accepts: the order-9 enumeration target.
CANON_CAP = 9

Key = Tuple[int, ...]


def canonical_key_and_perms(adj: Tuple[int, ...]) -> Tuple[Key, Tuple[Tuple[int, ...], ...]]:
    """Return the canonical column key and all orderings that achieve it.

    Each ordering is a tuple seq with seq[i] = the original vertex placed at
    canonical position i, listed in the order the level-by-level search
    finds them (frontier order, then ascending vertex).  The key has one
    integer per column 1..n-1.  Orders above CANON_CAP raise OrderTooLarge.
    """
    n = len(adj)
    if n > CANON_CAP:
        raise OrderTooLarge(f"canonical labeling handles orders up to {CANON_CAP}, got {n}")
    frontier: List[Tuple[Tuple[int, ...], int]] = [((u,), 1 << u) for u in range(n)]
    full = (1 << n) - 1
    key: List[int] = []
    for _ in range(1, n):
        best = -1
        next_frontier: List[Tuple[Tuple[int, ...], int]] = []
        for seq, used in frontier:
            cand = full & ~used
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
