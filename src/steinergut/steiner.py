"""Exact Steiner distances by three independent routes.

The Steiner distance of a vertex set S is the least number of edges of a
connected subgraph containing S, equivalently min{|T| - 1 : S is a subset of
T and the subgraph induced by T is connected}.  Singletons get distance 0 and
a set meeting several components gets INF.

Three algorithms that share no code path:

* steiner_all_subsets: bit-parallel over the subset lattice.  Each family
  of vertex sets is one 2^n-bit int.  The connected sets are grown size by
  size (add a neighbor outside the set), the down-closure of the connected
  sets of size at most s + 1 is the family of sets within distance s (a
  zeta transform by shift-or), and dist[S] is the number of such families
  that miss S.  The counts are kept bit-sliced, one 2^n-bit int per bit of
  the count with each family added by ripple carry, so only the
  ceil(log2 n) slices are spread out to one byte per mask, at the end.
  No shift leaves the 2^n-bit block of its graph, so ``_tables`` builds
  the tables of B graphs of one order in one pass over B * 2^n-bit ints,
  and steiner_all_subsets is its batch of one.  A table is a plain value
  of the order and the distances: the index layer builds the tables of
  the graphs it sums and keeps none, and orders past TABLE_CAP are
  refused before any work.
* DreyfusWagner / steiner_single: terminal-subset DP with merge and
  tree-grow transitions, for one query set at a time.
* steiner_oracle: literal transcription of the definition, supersets by
  increasing size; test oracle only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple, Union

from .errors import EmptySet, IndexOutOfRange, OrderTooLarge
from .graph import Graph, induced_connected, iter_bits

# The distance of a set meeting several components: an int above any sum of
# two finite distances (each at most MAX_ORDER - 1), so no minimum picks it.
INF = 1 << 64

# 2^n table entries; beyond this the full table stops being a desk job.
TABLE_CAP = 20

# '0'/'1' digits of a binary string to the byte values 0/1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class SteinerTable:
    """dist[mask] is the Steiner distance of the vertex set ``mask``.

    Index 0 (the empty set) is stored as 0 and has no meaning.  ``dist`` is
    ``bytes`` for a connected graph and a tuple holding INF for the sets
    that meet several components otherwise, so the type alone tells whether
    the graph is connected.
    """

    n: int
    dist: Union[bytes, Tuple[int, ...]]


@lru_cache(maxsize=None)
def _member_families(n: int) -> Tuple[int, ...]:
    """Per vertex v, the 2^n-bit family of the masks that contain v."""
    size = 1 << n
    full = (1 << size) - 1
    nbytes = max(size >> 3, 1)
    fams = []
    for v in range(n):
        # one period of the pattern, bit t set iff t has bit v, little-endian
        if v < 3:
            block = bytes((0xAA, 0xCC, 0xF0)[v : v + 1])
        else:
            half = 1 << (v - 3)
            block = b"\x00" * half + b"\xff" * half
        fams.append(int.from_bytes(block * (nbytes // len(block)), "little") & full)
    return tuple(fams)


def _down_closure(fam: int, has: Tuple[int, ...]) -> int:
    """Every subset of a member of ``fam``: drop each vertex in turn."""
    for v, with_v in enumerate(has):
        fam |= (fam & with_v) >> (1 << v)
    return fam


def require_table_order(n: int) -> None:
    """Refuse an order whose full table (2^n entries) is past the cap."""
    if n > TABLE_CAP:
        raise OrderTooLarge(f"full table wants n <= {TABLE_CAP}, got {n}")


def _stack(parts: Sequence[int], n: int) -> int:
    """One int holding the 2^n-bit family ``parts[i]`` in block i."""
    if len(parts) == 1:
        return parts[0]
    if n < 3:
        return sum(part << (i << n) for i, part in enumerate(parts))
    width = 1 << (n - 3)
    return int.from_bytes(b"".join([part.to_bytes(width, "little") for part in parts]), "little")


def steiner_all_subsets(g: Graph) -> SteinerTable:
    """Steiner distances of every nonempty vertex subset of ``g``: the batch of one."""
    return _tables([g])[0]


def _tables(graphs: Sequence[Graph]) -> List[SteinerTable]:
    """The tables of ``graphs``, all of one order, in one bit-parallel pass.

    A family of vertex sets is a 2^n-bit block, bit t standing for mask t,
    and graph i owns block i of one B * 2^n-bit int, so each step below
    handles every mask of every graph in a few big-int operations.  Level s
    holds the connected sets of size s + 1: a connected set minus a non-cut
    vertex v is a connected set adjacent to v, so level s + 1 is the union
    over v of level s, restricted to the masks without v that meet N(v),
    shifted up by 2^v.  The down-closure of levels 0..s, which drops a
    vertex a mask has by shifting it down by 2^v, is the family of sets
    with Steiner distance at most s, and dist[S] counts the levels whose
    closure misses S.  Neither shift leaves its block, so each block
    evolves as its graph's table would alone; the pass ends once every
    closure is full or no level grows.
    """
    if not graphs:
        return []
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("a batch of tables needs graphs of one order")
    require_table_order(n)
    size = 1 << n
    blocks = len(graphs)
    full = (1 << (blocks << n)) - 1
    # every block's copy of a one-block family: bit i * 2^n set for each block i
    spread = full // ((1 << size) - 1)
    one = _member_families(n)
    has = one if blocks == 1 else tuple(fam * spread for fam in one)
    # grow[v]: per block, the masks without v that meet N(v), so adding v keeps them connected
    rows = []
    for g in graphs:
        row = []
        for v, adj in enumerate(g.adj):
            meets = 0
            for u in iter_bits(adj):
                meets |= one[u]
            row.append(meets & ~one[v])
        rows.append(row)
    grow = [_stack([row[v] for row in rows], n) for v in range(n)]
    level = sum(1 << (1 << v) for v in range(n)) * spread
    within = _down_closure(level, has)
    # slices[i] holds bit i of every mask's count, added to by ripple carry
    slices: List[int] = []
    levels = 0
    while True:
        missing = full ^ within
        if not missing:
            break
        carry = missing
        for i, bits in enumerate(slices):
            slices[i] = bits ^ carry
            carry &= bits
            if not carry:
                break
        else:
            slices.append(carry)
        levels += 1
        nxt = 0
        for v, gv in enumerate(grow):
            nxt |= (level & gv) << (1 << v)
        level = nxt
        if not level:
            break
        within = _down_closure(within | level, has)
    counts = 0
    for i, bits in enumerate(slices):
        counts |= int.from_bytes(format(bits, "b").encode().translate(_BIT_BYTES), "big") << i
    dists = counts.to_bytes(blocks << n, "little")
    tables = []
    for i in range(blocks):
        dist = dists[i << n : (i + 1) << n]
        if missing and missing >> (i << n) & (1 << size) - 1:
            # disconnected: the sets no level reached were counted at every level
            tables.append(SteinerTable(n, tuple(INF if d == levels else d for d in dist)))
        else:
            tables.append(SteinerTable(n, dist))
    return tables


def _bfs_row(g: Graph, src: int) -> List[int]:
    """Distances from ``src`` to every vertex, INF where unreachable."""
    row = [INF] * g.n
    row[src] = 0
    nbrs = g.neighbors
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in nbrs[v]:
                if d < row[w]:
                    row[w] = d
                    nxt.append(w)
        frontier = nxt
    return row


def _grow(g: Graph, row: List[int]) -> None:
    """Close ``row`` under row[w] <= row[v] + 1 along edges (bucket Dijkstra)."""
    n = g.n
    nbrs = g.neighbors
    buckets: List[List[int]] = [[] for _ in range(n)]
    for v, dv in enumerate(row):
        if dv < n:
            buckets[dv].append(v)
    for d in range(n - 1):
        nd = d + 1
        for v in buckets[d]:
            if row[v] != d:
                continue
            for w in nbrs[v]:
                if nd < row[w]:
                    row[w] = nd
                    buckets[nd].append(w)


class DreyfusWagner:
    """Single-query Steiner distances via the classic terminal-subset DP.

    dp rows are indexed by a terminal subset X and give, per vertex v, the
    least edge count of a tree containing X and v.  Rows are cached on the
    instance, so repeated queries against one graph share work; a fresh
    instance recomputes everything.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self._rows: Dict[int, List[int]] = {}

    def distance(self, s: int) -> int:
        g = self.graph
        if s == 0:
            raise EmptySet("steiner distance needs a nonempty vertex set")
        if s & ~g.full_mask:
            raise IndexOutOfRange("vertex set outside 0..n-1")
        low = s & -s
        if s == low:
            return 0
        return self._row(s ^ low)[low.bit_length() - 1]

    def _row(self, x: int) -> List[int]:
        row = self._rows.get(x)
        if row is not None:
            return row
        g = self.graph
        if x & (x - 1) == 0:
            row = _bfs_row(g, x.bit_length() - 1)
        else:
            n = g.n
            row = [INF] * n
            low = x & -x
            sub = (x - 1) & x
            while sub:
                # each unordered split once: keep the half holding the low bit
                if sub & low:
                    ra = self._row(sub)
                    rb = self._row(x ^ sub)
                    for v in range(n):
                        t = ra[v] + rb[v]
                        if t < row[v]:
                            row[v] = t
                sub = (sub - 1) & x
            _grow(g, row)
        self._rows[x] = row
        return row


def steiner_single(g: Graph, s: int) -> int:
    """Steiner distance of the vertex set ``s`` by the terminal-subset DP."""
    return DreyfusWagner(g).distance(s)


@lru_cache(maxsize=4096)
def _submasks_by_size(mask: int) -> Tuple[int, ...]:
    subs = []
    sub = mask
    while True:
        subs.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    subs.sort(key=lambda x: (x.bit_count(), x))
    return tuple(subs)


def steiner_oracle(g: Graph, s: int) -> int:
    """Slow reference: try every superset of ``s`` in increasing size."""
    if s == 0:
        raise EmptySet("steiner distance needs a nonempty vertex set")
    if s & ~g.full_mask:
        raise IndexOutOfRange("vertex set outside 0..n-1")
    for extra in _submasks_by_size(g.full_mask ^ s):
        t = s | extra
        if induced_connected(g, t):
            return t.bit_count() - 1
    return INF


def pairwise_distances(g: Graph) -> Tuple[Tuple[int, ...], ...]:
    """All-pairs shortest path distances by BFS from every vertex."""
    return tuple(tuple(_bfs_row(g, v)) for v in range(g.n))
