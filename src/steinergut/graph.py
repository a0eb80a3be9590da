"""Immutable simple undirected graphs with bitmask adjacency.

Vertices are the integers 0..n-1.  Row ``adj[i]`` holds the neighbor set of
vertex ``i`` packed as a bitmask, so the vertex-set algebra used everywhere
else (unions, intersections, connectivity floods) is a handful of integer
operations per step.  Vertex sets in the public API are plain ints used as
bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, List, Sequence, Tuple

from .errors import EmptySet, IndexOutOfRange, KOutOfRange, LoopEdge, OrderTooLarge

# graph6 one-byte headers top out at 62 vertices; everything here inherits
# that cap so any constructible graph can round-trip through the codec.
MAX_ORDER = 62


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph of order ``n`` with ``m`` edges."""

    n: int
    adj: Tuple[int, ...]
    m: int

    @cached_property
    def degrees(self) -> Tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    @cached_property
    def neighbors(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(tuple(iter_bits(row)) for row in self.adj)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """All edges as (i, j) pairs with i < j, sorted."""
        out = []
        for j in range(self.n):
            below = self.adj[j] & ((1 << j) - 1)
            for i in iter_bits(below):
                out.append((i, j))
        out.sort()
        return tuple(out)


def _require_order(n: int) -> None:
    """Refuse an order outside 1..MAX_ORDER, before any row is built."""
    if not 1 <= n <= MAX_ORDER:
        raise OrderTooLarge(f"order must be between 1 and {MAX_ORDER}, got {n}")


def from_edge_list(n: int, edges: Iterable[Tuple[int, int]]) -> Graph:
    """Build a graph on ``n`` vertices from an edge list.

    Duplicate edges collapse silently; a loop raises LoopEdge and an
    endpoint outside 0..n-1 raises IndexOutOfRange.
    """
    _require_order(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    m = sum(r.bit_count() for r in rows) // 2
    return Graph(n, tuple(rows), m)


def from_adjacency(rows: Sequence[int]) -> Graph:
    """Build a graph from bitmask adjacency rows (must be symmetric, loop-free)."""
    n = len(rows)
    _require_order(n)
    full = (1 << n) - 1
    for i, row in enumerate(rows):
        if row & ~full:
            raise IndexOutOfRange(f"row {i} refers to vertices outside 0..{n - 1}")
        if row >> i & 1:
            raise LoopEdge(f"loop at vertex {i}")
        for j in iter_bits(row):
            if not rows[j] >> i & 1:
                raise IndexOutOfRange(f"adjacency rows not symmetric at ({i}, {j})")
    m = sum(r.bit_count() for r in rows) // 2
    return Graph(n, tuple(rows), m)


def complement(g: Graph) -> Graph:
    full = g.full_mask
    rows = tuple(~row & full & ~(1 << i) for i, row in enumerate(g.adj))
    return Graph(g.n, rows, g.n * (g.n - 1) // 2 - g.m)


def _flood(adj: Sequence[int], seed: int, within: int) -> int:
    """Grow ``seed`` along edges staying inside ``within``; return the component mask."""
    comp = seed
    frontier = seed
    while frontier:
        reach = 0
        mm = frontier
        while mm:
            low = mm & -mm
            reach |= adj[low.bit_length() - 1]
            mm ^= low
        frontier = reach & within & ~comp
        comp |= frontier
    return comp


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return _flood(g.adj, 1, g.full_mask) == g.full_mask


def induced_connected(g: Graph, s: int) -> bool:
    """True iff the subgraph induced by the vertex-set mask ``s`` is connected."""
    if s == 0:
        raise EmptySet("induced_connected needs a nonempty vertex set")
    if s & ~g.full_mask:
        raise IndexOutOfRange("vertex set outside 0..n-1")
    low = s & -s
    return _flood(g.adj, low, s) == s


def is_k_connected(g: Graph, t: int) -> bool:
    """True iff ``g`` stays connected after deleting any fewer than ``t`` vertices.

    Requires n > t; brute force over deletion subsets, desk scale only.
    """
    if t < 1:
        raise KOutOfRange(f"connectivity order must be at least 1, got {t}")
    n = g.n
    if n <= t:
        return False
    if not is_connected(g):
        return False
    full = g.full_mask
    for size in range(1, t):
        for combo in combinations(range(n), size):
            within = full ^ mask_of(combo)
            low = within & -within
            if _flood(g.adj, low, within) != within:
                return False
    return True


def is_regular(g: Graph) -> bool:
    degs = g.degrees
    return min(degs) == max(degs)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Return the isomorphic copy where old vertex ``u`` becomes ``perm[u]``."""
    n = g.n
    if len(perm) != n or set(perm) != set(range(n)):
        raise IndexOutOfRange("perm must be a permutation of 0..n-1")
    rows = [0] * n
    for u in range(n):
        r = 0
        for v in iter_bits(g.adj[u]):
            r |= 1 << perm[v]
        rows[perm[u]] = r
    return Graph(n, tuple(rows), g.m)


def edge_mask(g: Graph) -> int:
    """Upper-triangle edge bits packed column-major: pair (i, j), i<j, at j(j-1)/2 + i."""
    em = 0
    for j in range(1, g.n):
        col = g.adj[j] & ((1 << j) - 1)
        em |= col << (j * (j - 1) // 2)
    return em


def _edge_mask_connected(n: int, em: int) -> bool:
    """Whether the order-n graph with edge mask ``em`` (``edge_mask``'s
    layout) is connected, read off its columns with no rows built: vertex j
    joins the parts that hold a neighbour of j below it."""
    parts: List[int] = []
    for j in range(n):
        col = em >> (j * (j - 1) // 2) & ((1 << j) - 1)
        joined = 1 << j
        apart = []
        for part in parts:
            if part & col:
                joined |= part
            else:
                apart.append(part)
        apart.append(joined)
        parts = apart
    return len(parts) <= 1


def from_edge_mask(n: int, em: int) -> Graph:
    """Inverse of edge_mask: unpack a column-major upper-triangle bitmask."""
    _require_order(n)
    if em >> (n * (n - 1) // 2):
        raise IndexOutOfRange(f"edge bits beyond an order-{n} upper triangle")
    rows = [0] * n
    for j in range(1, n):
        col = em >> (j * (j - 1) // 2) & ((1 << j) - 1)
        rows[j] |= col
        bit = 1 << j
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= bit
            col ^= low
    return Graph(n, tuple(rows), em.bit_count())
