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
lane from wrapping).  Graphs share degree halves, so through order 9 each
half's weights, and for the high half whether that bound holds, are kept
per degree tuple in a bounded cache; every call past the bound is still
refused.  The
lanes are read back sorted by k, and one running sum, read at the cuts
between the k buckets, gives every k.  ``_sums(graphs)`` builds the tables
of a batch of graphs of one order in one pass (a single graph is a batch of
one), keeps each graph's sums and drops the tables; a caller that wants
several k or indices of one graph keeps the sums (``bounds.GraphContext``
does).  The
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
from operator import add, itemgetter, mul, sub
from struct import Struct
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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


def _require_connected(connected: bool) -> None:
    """Refuse a disconnected graph, on which no index is defined."""
    if not connected:
        raise Disconnected("invariant defined for connected graphs only")


def _guard(connected: bool, g: Graph, k: int, lo: int = 2) -> None:
    """The guards of every index, in order: Disconnected, then KOutOfRange."""
    _require_connected(connected)
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


# Graphs share their degree halves often (the 342 sums of the co-connected
# sweep through order 7 meet 111 low and 61 high halves, hitting them 231 and
# 281 times), so through order _KEPT_ORDER each half's weights are kept, up to
# _HALVES halves per cache: at most about 3 MiB in all.  Past it a table costs
# far more than its weights, and 1,024 kept halves would take 125 MiB at
# order 18, so they are made per call.
_KEPT_ORDER = 9
_HALVES = 1024


@lru_cache(maxsize=None)
def _lane_layout(n: int) -> Tuple[Callable, Callable, Callable]:
    """The read-back of ``_all_k_sums`` at order ``n``: the order sorting the
    lanes (a lane per low mask in one accumulator per high popcount c) by
    k = c + low popcount, the getter of the cuts between the k buckets of
    the sorted lanes, the lane unpacker."""
    h = n // 2 + 1
    keys = [c + lo.bit_count() for c in range(n - h + 1) for lo in range(1 << h)]
    by_k = itemgetter(*sorted(range(len(keys)), key=keys.__getitem__))
    sizes = (sum(comb(h, k - c) for c in range(min(k, n - h) + 1)) for k in range(n + 1))
    return by_k, itemgetter(*accumulate(sizes, initial=0)), Struct(f"<{len(keys)}Q").unpack


def _low_weights(n: int, degs: Tuple[int, ...]) -> Tuple[int, ...]:
    """The low half's degree product of every lane of ``_all_k_sums`` at
    order ``n``, in the lanes' order by k."""
    return _lane_layout(n)[0](_half_weights(degs)[0] * (n - len(degs) + 1))


def _high_weights(n: int, degs: Tuple[int, ...]) -> Tuple[bool, Tuple[Tuple[int, int, int], ...]]:
    """Whether the lanes of ``_all_k_sums`` at order ``n`` stay below 2^64 with
    this high half, and each high mask's popcount, degree product and degree sum.

    A lane adds at most n - 1 per high mask, times its degree product, its
    degree sum or 1, so it stays below (n - 1) times the largest of their sums.
    """
    prod, total = _half_weights(degs)
    fits = not (n - 1) * max(sum(prod), sum(total), len(prod)) >> 64
    return fits, tuple(zip([hi.bit_count() for hi in range(len(prod))], prod, total))


# the two weight functions, each with its kept halves, for orders through _KEPT_ORDER
_KEPT = tuple(lru_cache(maxsize=_HALVES)(f) for f in (_low_weights, _high_weights))


def _all_k_sums(dist: bytes, n: int, degs: Tuple[int, ...], sdd: bool = True) -> _Sums:
    """sgut, sw and, when ``sdd`` is asked for, sdd for every k in one pass over the table.

    A mask splits into a low part over vertices 0..h-1 and a high part over
    the rest, so its degree product, degree sum and size factor into
    per-half values, kept per degree tuple at orders through
    ``_KEPT_ORDER``.  Each high part's 2^h row of ``dist`` is read as one
    int with a 64-bit lane per low mask and added, times hp, 1 and (for
    sdd) hs, into the accumulators of its popcount c.  The lanes are read back once, sorted by k = c + low
    popcount and weighted by the low parts; one running sum over them,
    read at the cuts between the k buckets, gives each k's sum as a
    difference.  A distance is at most n - 1, so a bound checked on every
    call keeps every lane below 2^64.
    """
    h = n // 2 + 1
    low_weights, high_weights = _KEPT if n <= _KEPT_ORDER else (_low_weights, _high_weights)
    fits, highs = high_weights(n, degs[h:])
    if not fits:
        raise OrderTooLarge(f"index sums at order {n}, degree {max(degs)} overflow 64-bit lanes")
    row_bytes = 8 << h
    buf = bytearray(row_bytes)
    acc_p, acc_s, acc_w = ([0] * (n - h + 1) for _ in range(3))
    for hi, (c, hp, hs) in enumerate(highs):
        buf[::8] = dist[hi << h : (hi + 1) << h]
        row = int.from_bytes(buf, "little")
        acc_p[c] += hp * row
        acc_w[c] += row
        if sdd:
            acc_s[c] += hs * row
    by_k, cuts, unpack = _lane_layout(n)

    def lanes(acc: List[int]) -> Tuple[int, ...]:
        return by_k(unpack(b"".join([x.to_bytes(row_bytes, "little") for x in acc])))

    def per_k(values: Iterable[int]) -> Tuple[int, ...]:
        # each k's sum is the difference of the running sums at its two cuts
        at = cuts(list(accumulate(values, initial=0)))
        return tuple(map(sub, at[1:], at))

    w = lanes(acc_w)
    sgut, sw = per_k(map(mul, low_weights(n, degs[:h]), lanes(acc_p))), per_k(w)
    if not sdd:
        return _Sums(sgut, sw, None)
    ws = by_k(_half_weights(degs[:h])[1] * (n - h + 1))
    return _Sums(sgut, sw, per_k(map(add, lanes(acc_s), map(mul, ws, w))))


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
