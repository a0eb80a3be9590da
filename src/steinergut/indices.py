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
values, and each high-half row of the table is weighted and summed as one
big int with a 64-bit lane per low-half mask (a checked bound keeps every
lane from wrapping).  ``_sums(graphs)`` builds the tables of a batch of
graphs of one order in one pass (a single graph is a batch of one), keeps
each graph's sums and drops the tables; a caller that wants several k or
indices of one graph keeps the sums (``bounds.GraphContext`` does).  The
bound layer and the formula audit read only sgut and sw, so they skip the
sdd accumulator (``sdd=False``).  ``_require_k`` is the one check of k
(2..n, 1..n for steiner_wiener); ``_guard`` runs it after G's
connectivity, before any table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import itemgetter, mul
from struct import Struct
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import Disconnected, KOutOfRange, OrderTooLarge
from .graph import Graph, is_connected
from .steiner import _tables, pairwise_distances


# Extremal objectives (verify.find_extremal): the max or min of SGut_k(G), or
# of SGut_k(G) and SGut_k(complement) summed or multiplied.
OBJECTIVES = ("max-sgut", "min-sgut", "max-sum", "min-sum", "max-product", "min-product")


def _require_k(n: int, k: int, lo: int = 2) -> None:
    """Refuse a k outside lo..n, the domain of every index at order n."""
    if not lo <= k <= n:
        raise KOutOfRange(f"k must satisfy {lo} <= k <= {n}, got {k}")


def _guard(connected: bool, g: Graph, k: int, lo: int = 2) -> None:
    """The guards of every index, in order: Disconnected, then KOutOfRange."""
    if not connected:
        raise Disconnected("invariant defined for connected graphs only")
    _require_k(g.n, k, lo)


class _Sums(NamedTuple):
    """Index values for every k = 0..n, each tuple indexed by k."""

    sgut: Tuple[int, ...]
    sw: Tuple[int, ...]
    sdd: Optional[Tuple[int, ...]]  # None when the pass was asked for sgut and sw only


def _half_weights(degs: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Degree product and degree sum of every mask over ``degs``."""
    prod, total = [1], [0]
    for d in degs:
        prod += [p * d for p in prod]
        total += [t + d for t in total]
    return prod, total


@lru_cache(maxsize=None)
def _lane_layout(n: int) -> Tuple[Callable, List[int], Callable]:
    """The read-back of ``_all_k_sums`` at order ``n``: the order sorting the
    lanes (a lane per low mask in one accumulator per high popcount c) by
    k = c + low popcount, the cuts between the k buckets, the lane unpacker."""
    h = n // 2 + 1
    keys = [c + lo.bit_count() for c in range(n - h + 1) for lo in range(1 << h)]
    by_k = itemgetter(*sorted(range(len(keys)), key=keys.__getitem__))
    sizes = (sum(comb(h, k - c) for c in range(min(k, n - h) + 1)) for k in range(n + 1))
    return by_k, list(accumulate(sizes, initial=0)), Struct(f"<{len(keys)}Q").unpack


def _all_k_sums(dist: bytes, n: int, degs: Tuple[int, ...], sdd: bool = True) -> _Sums:
    """sgut, sw and, when ``sdd`` is asked for, sdd for every k in one pass over the table.

    A mask splits into a low part over vertices 0..h-1 and a high part over
    the rest, so its degree product, degree sum and size factor into
    per-half values.  Each high part's 2^h row of ``dist`` is read as one
    int with a 64-bit lane per low mask and added, times hp, 1 and (for
    sdd) hs, into the accumulators of its popcount c.  The lanes are read
    back once, sorted by k = c + low popcount and dotted with the low-part
    weights.  A distance is at most n - 1, so a checked bound keeps every
    lane below 2^64.
    """
    h = n // 2 + 1
    lo_prod, lo_sum = _half_weights(degs[:h])
    hi_prod, hi_sum = _half_weights(degs[h:])
    if (n - 1) * max(sum(hi_prod), sum(hi_sum), len(hi_prod)) >> 64:
        raise OrderTooLarge(f"index sums at order {n}, degree {max(degs)} overflow 64-bit lanes")
    row_bytes = 8 << h
    buf = bytearray(row_bytes)
    acc_p, acc_s, acc_w = ([0] * (n - h + 1) for _ in range(3))
    for hi, (hp, hs) in enumerate(zip(hi_prod, hi_sum)):
        buf[::8] = dist[hi << h : (hi + 1) << h]
        row = int.from_bytes(buf, "little")
        c = hi.bit_count()
        acc_p[c] += hp * row
        acc_w[c] += row
        if sdd:
            acc_s[c] += hs * row
    by_k, cuts, unpack = _lane_layout(n)

    def lanes(acc: List[int]) -> Tuple[int, ...]:
        return by_k(unpack(b"".join([x.to_bytes(row_bytes, "little") for x in acc])))

    p, w = lanes(acc_p), lanes(acc_w)
    wp = by_k(lo_prod * (n - h + 1))
    ranges = list(zip(cuts, cuts[1:]))
    sgut = tuple(sum(map(mul, wp[a:b], p[a:b])) for a, b in ranges)
    sw = tuple(sum(w[a:b]) for a, b in ranges)
    if not sdd:
        return _Sums(sgut, sw, None)
    s, ws = lanes(acc_s), by_k(lo_sum * (n - h + 1))
    return _Sums(sgut, sw, tuple(sum(s[a:b]) + sum(map(mul, ws[a:b], w[a:b])) for a, b in ranges))


def _sums(graphs: Sequence[Graph], sdd: bool = True) -> List[_Sums]:
    """The all-k sums of connected ``graphs`` of one order, their tables
    built in one batched pass; sdd is None unless asked for."""
    return [_all_k_sums(t.dist, g.n, g.degrees, sdd) for g, t in zip(graphs, _tables(graphs))]


def _index_sums(g: Graph, k: int, lo: int = 2) -> _Sums:
    """The all-k sums of ``g`` for an index request at ``k``, guarded (one
    flood of ``g``) before any table is built."""
    _guard(is_connected(g), g, k, lo)
    return _sums([g])[0]


def steiner_gutman(g: Graph, k: int) -> int:
    """Degree-product weighted Steiner k-distance sum."""
    return _index_sums(g, k).sgut[k]


def steiner_wiener(g: Graph, k: int) -> int:
    """Plain Steiner k-distance sum; k = 1 is allowed and gives 0."""
    return _index_sums(g, k, lo=1).sw[k]


def steiner_degree_distance(g: Graph, k: int) -> int:
    """Degree-sum weighted Steiner k-distance sum."""
    return _index_sums(g, k).sdd[k]


def gutman(g: Graph) -> int:
    """Classical Gutman index from the BFS distance matrix (no Steiner table)."""
    # an order below 2 is connected, so this text comes before the guard's
    if g.n < 2:
        raise KOutOfRange("the Gutman index needs at least 2 vertices")
    _guard(is_connected(g), g, 2)
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


def index_report(g: Graph, k: int, graph_id: str = "") -> IndexReport:
    sums = _index_sums(g, k)
    return IndexReport(
        graph_id=graph_id,
        k=k,
        sgut=sums.sgut[k],
        sw=sums.sw[k],
        sdd=sums.sdd[k],
        gut=gutman(g) if k == 2 else None,
    )
