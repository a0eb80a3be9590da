"""Steiner-distance graph invariants.

For a connected graph G and 2 <= k <= n, summing over the k-element vertex
subsets S:

* steiner_gutman:          sum of (product of degrees over S) * d(S)
* steiner_wiener:          sum of d(S)                  (k = 1 allowed, gives 0)
* steiner_degree_distance: sum of (sum of degrees over S) * d(S)
* gutman: the classical k = 2 case, computed independently from the BFS
  distance matrix as a cross-check target.

All values are exact ints.  One pass over the Steiner table gives all three
indices for every k at once: the vertices split into a low and a high half,
the degree product, degree sum and size of a subset factor into per-half
values, and each high-half row of the table is summed per low-popcount
bucket.  The result is cached on the table, which is bound to the graph it
was built from, so further calls for any k are lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import itemgetter, mul
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import Disconnected, KOutOfRange
from .graph import Graph, is_connected
from .steiner import SteinerTable, pairwise_distances, steiner_all_subsets


def k_subset_masks(n: int, k: int) -> Iterator[int]:
    """All masks with k of the low n bits set, in ascending numeric order."""
    if k == 0 or k > n:
        return
    c = (1 << k) - 1
    top = 1 << n
    while c < top:
        yield c
        low = c & -c
        ripple = c + low
        c = ripple | (((c ^ ripple) >> 2) // low)


def _require_k(g: Graph, k: int, lo: int = 2) -> None:
    if not lo <= k <= g.n:
        raise KOutOfRange(f"k must satisfy {lo} <= k <= {g.n}, got {k}")


def _table(g: Graph, table: Optional[SteinerTable]) -> SteinerTable:
    if table is None:
        return steiner_all_subsets(g)
    if table.adj != g.adj:
        raise KOutOfRange("precomputed table is for a different graph")
    return table


def _checked_table(g: Graph, table: Optional[SteinerTable], k: int, lo: int = 2) -> SteinerTable:
    """The table of ``g`` once ``g`` is known connected and ``k`` in range.

    Only a connected graph's table stores ``dist`` as bytes, so connectivity
    is read off the table instead of flooding the graph on every call.
    """
    tb = _table(g, table)
    if not isinstance(tb.dist, bytes):
        raise Disconnected("invariant defined for connected graphs only")
    _require_k(g, k, lo)
    return tb


class _Sums(NamedTuple):
    """Index values for every k = 0..n, each tuple indexed by k."""

    sgut: Tuple[int, ...]
    sw: Tuple[int, ...]
    sdd: Tuple[int, ...]


def _half_weights(degs: Sequence[int]) -> Tuple[List[int], List[int], List[int]]:
    """Degree product, degree sum and popcount of every mask over ``degs``."""
    prod, total, size = [1], [0], [0]
    for d in degs:
        prod += [p * d for p in prod]
        total += [t + d for t in total]
        size += [c + 1 for c in size]
    return prod, total, size


def _all_k_sums(dist: Sequence[int], n: int, degs: Tuple[int, ...]) -> _Sums:
    """sgut, sw and sdd for every k in one pass over the table.

    A mask splits into a low part over vertices 0..h-1 and a high part over
    the rest, so its degree product, degree sum and size factor into
    per-half values.  For each high part, its 2^h row of ``dist`` is
    reordered by low popcount once; every popcount bucket then contributes
    one dot product per index to k = bucket + popcount(high).
    """
    h = n // 2 + 1
    lo_prod, lo_sum, lo_size = _half_weights(degs[:h])
    hi_prod, hi_sum, hi_size = _half_weights(degs[h:])
    width = 1 << h
    by_size = itemgetter(*sorted(range(width), key=lo_size.__getitem__))
    sorted_prod, sorted_sum = by_size(lo_prod), by_size(lo_sum)
    buckets = []
    start = 0
    for j in range(h + 1):
        stop = start + comb(h, j)
        buckets.append((j, start, stop, sorted_prod[start:stop], sorted_sum[start:stop]))
        start = stop
    sgut = [0] * (n + 1)
    sw = [0] * (n + 1)
    sdd = [0] * (n + 1)
    for hi, (hp, hs, hc) in enumerate(zip(hi_prod, hi_sum, hi_size)):
        row = by_size(dist[hi * width : (hi + 1) * width])
        for j, a, b, bucket_prods, bucket_sums in buckets:
            part = row[a:b]
            w = sum(part)
            k = j + hc
            sgut[k] += hp * sum(map(mul, bucket_prods, part))
            sw[k] += w
            sdd[k] += hs * w + sum(map(mul, bucket_sums, part))
    return _Sums(tuple(sgut), tuple(sw), tuple(sdd))


def _sums(g: Graph, tb: SteinerTable) -> _Sums:
    """The all-k sums of ``g`` from its table ``tb``, computed once per table."""
    if not tb.sums:
        tb.sums.append(_all_k_sums(tb.dist, g.n, g.degrees))
    return tb.sums[0]


def steiner_gutman(g: Graph, k: int, *, table: Optional[SteinerTable] = None) -> int:
    """Degree-product weighted Steiner k-distance sum."""
    return _sums(g, _checked_table(g, table, k)).sgut[k]


def steiner_wiener(g: Graph, k: int, *, table: Optional[SteinerTable] = None) -> int:
    """Plain Steiner k-distance sum; k = 1 is allowed and gives 0."""
    tb = _checked_table(g, table, k, lo=1)
    if k == 1:
        return 0
    return _sums(g, tb).sw[k]


def steiner_degree_distance(g: Graph, k: int, *, table: Optional[SteinerTable] = None) -> int:
    """Degree-sum weighted Steiner k-distance sum."""
    return _sums(g, _checked_table(g, table, k)).sdd[k]


def gutman(g: Graph) -> int:
    """Classical Gutman index from the BFS distance matrix (no Steiner table)."""
    if not is_connected(g):
        raise Disconnected("invariant defined for connected graphs only")
    if g.n < 2:
        raise KOutOfRange("the Gutman index needs at least 2 vertices")
    dm = pairwise_distances(g)
    degs = g.degrees
    total = 0
    for u in range(g.n):
        du = degs[u]
        row = dm[u]
        for v in range(u + 1, g.n):
            total += du * degs[v] * row[v]
    return total


@dataclass(frozen=True)
class IndexReport:
    graph_id: str
    k: int
    sgut: int
    sw: int
    sdd: int
    gut: Optional[int]  # only populated at k = 2


def index_report(g: Graph, k: int, graph_id: str = "", *, table: Optional[SteinerTable] = None) -> IndexReport:
    tb = _table(g, table)
    return IndexReport(
        graph_id=graph_id,
        k=k,
        sgut=steiner_gutman(g, k, table=tb),
        sw=steiner_wiener(g, k, table=tb),
        sdd=steiner_degree_distance(g, k, table=tb),
        gut=gutman(g) if k == 2 else None,
    )
