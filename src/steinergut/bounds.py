"""Exact bound checks for the Steiner Gutman index.

Every bound value depends only on k and the degree signature (n, m, d, D, p):
order, size, minimum and maximum degree, number of pendant vertices.  Each
group is one formula function of the signature (``_prop21`` ... ``_amgm``,
the printed formulas in their docstrings and in the README table) returning
its rows in BOUND_IDS order, each a case label and the value as integers
num/den, with den > 0 and not reduced; the one half-integer exponent gives
the root row, flagged, whose value is the square root of num/den.
Corollary 4.1 is Theorem 3.2 with the size eliminated through 2m >= nd,
n(n-1)-2m >= n(n-1-D) and 2m(n(n-1)-2m) <= n^2(n-1)^2/4, so ``_thm32`` and
``_cor41`` feed one ``_paired``; cor41 keeps the printed s1 = min(D, n-d-1)
where thm32 has the max, and sweeps report how the min variant behaves
rather than repair it.

One cache sits on the formulas beside the applicability rule.  ``_decide``
is that rule, memoized per (wanted ids, order, complement connected): the
groups that run, each with the row, bound id, operand and side of its
wanted bounds, and the requested groups it rules out, each with the error a
request for it raises.  The group's least order is checked first, then the
complement's connectivity, which only the paired groups need.  ``_bands``
memoizes, per (running groups, signature), the open integer band at every
k of each operand the groups read (SGut_k(G), the sum or the product),
whose inside holds every one of its checks strictly; it is the one home of
that rule and keeps integers only.  ``_plan`` memoizes, per the same key,
every k's checks: each wanted bound's id, case, num, den, root flag,
operand and side, and beside them that k's bands.

A ``GraphContext`` holds what one graph contributes: G, the complement, the
connectivity of both, the signature, the all-k index sums of both, the
decision for the ids it was built with and its plan; it is the only
per-graph memo.  The complement is built only when a paired group would run
or a caller reads it, and each graph's sums (sgut and sw; no bound reads
sdd) come from the index layer's one entry, ``indices._sums``: on first
use, after the guards, as a batch of one, or, for a sweep's batch
(``GraphContext.batch``), from one call over the batch.  Its ``checks(k)``
is the one evaluator; a check is ``actual * den <= num`` (or ``>=``, with
actual squared for the root row), so a verdict is decided by integer
products alone.  It guards only G's connectivity, then k, with the index
layer's ``_guard`` (Disconnected, then KOutOfRange), once per (graph, k),
and then reads the cached sums; ``evaluate_bounds`` and ``equality_witness``
then raise the first ruled-out group's error (``_requested``), while a
sweep or a batch reports the ruled-out groups in ``skipped`` and goes on.
A sweep that writes no CSV asks for ``checks(k, banded=True)``, which
builds no check at a k where every operand lies inside its band: each
check there holds and none is tight, so the sweep only counts them.

Most graphs are decided before they are even built.  A Steiner tree of a
k-set S of a connected order-n graph spans at least k and at most n
vertices, so k - 1 <= d(S) <= n - 1 and (k-1) e_k <= SGut_k(G) <=
(n-1) e_k, e_k the k-th elementary symmetric polynomial of the degrees;
the complement's bracket comes the same way from the degrees n-1-d.
``_certified`` gives the k at which each operand's bracket lies inside its
band, as a bitmask, uncached: a sweep without a CSV asks it once per (sorted
degrees, complement connected), in the process that holds the level
(``verify._settle``), with each graph's degrees read off its edge mask: a
graph whose every swept k is certified is only counted there, so it gets
no ``Graph``, context, guard or table, and only the others reach a batch.
``checks`` never consults the brackets, and a sweep with a CSV,
``evaluate_bounds``, the ``bounds`` command, ``compute`` and ``extremal``
read every graph's exact sums.

Values stay exact and are built only where one is reported: ``_value``
turns a check's integers into the reduced Fraction, or for the root row an
exact SquareRoot, never a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, isqrt
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ComplementDisconnected, KOutOfRange, NotTight
from .exact import Scalar, SquareRoot
from .graph import Graph, complement, is_connected, is_regular
from .indices import _guard, _Sums, _sums

BOUND_IDS = (
    "prop21.upper",
    "prop21.lower",
    "lem22.upper",
    "lem22.lower",
    "thm32.1.sum_upper",
    "thm32.1.product_upper",
    "thm32.2.sum_lower",
    "thm32.3.product_lower",
    "cor41.1.sum_upper",
    "cor41.1.sum_lower",
    "cor41.2.product_upper",
    "cor41.2.product_lower",
    "ps.product_upper",
    "ps.product_lower",
    "amgm.sum_upper",
    "amgm.sum_lower",
)

BOUND_GROUPS = ("prop21", "lem22", "thm32", "cor41", "ps", "amgm")

# groups that compare a graph against its complement
PAIRED_GROUPS = ("thm32", "cor41", "ps", "amgm")

_GROUP_IDS = {grp: tuple(b for b in BOUND_IDS if b.startswith(grp + ".")) for grp in BOUND_GROUPS}
_LEAST_ORDER = {"prop21": 3, "cor41": 4}


@dataclass(frozen=True)
class BoundCheck:
    bound_id: str
    case_label: str
    bound_value: Scalar
    actual: int
    holds: bool
    tight: bool


# a bound of a group at one signature and k: (case label, num, den, root),
# its value num/den with den > 0, not reduced, or, for the root row, the
# square root of num/den
_Row = Tuple[str, int, int, bool]


def _prop21(n: int, m: int, d: int, D: int, p: int, k: int) -> Tuple[_Row, _Row]:
    """Degree-extreme bounds on the index of one connected graph, order >= 3.

    Upper: 2m(n-1)C(n-1,k-1)D^(k-1)/k.  Lower for d >= 2:
    2m(k-1)C(n-1,k-1)d^(k-1)/k.  Lower for d = 1, with p pendant vertices and
    q = max(k-p, 1): kC(p,k) + 2^q (k-1)(C(n,k)-C(p,k)).
    """
    c = comb(n - 1, k - 1)
    upper = ("", 2 * m * (n - 1) * c * D ** (k - 1), k, False)
    if d >= 2:
        return upper, ("min_deg>=2", 2 * m * (k - 1) * c * d ** (k - 1), k, False)
    q = max(k - p, 1)
    lower = k * comb(p, k) + 2**q * (k - 1) * (comb(n, k) - comb(p, k))
    return upper, ("min_deg=1", lower, 1, False)


def _lem22(n: int, m: int, d: int, D: int, p: int, k: int) -> Tuple[_Row, _Row]:
    """Mean-degree bounds on the index of one connected graph.

    Upper: (n-1)(2m/k)^k C(n-1,k-1)^k.  Lower: 2m(k-1)C(n-1,k-1) when d >= 2,
    else (k-1)C(n,k).
    """
    c = comb(n - 1, k - 1)
    upper = ("", (n - 1) * (2 * m * c) ** k, k**k, False)
    if d >= 2:
        return upper, ("min_deg>=2", 2 * m * (k - 1) * c, 1, False)
    return upper, ("min_deg=1", (k - 1) * comb(n, k), 1, False)


def _paired(
    n: int, k: int, d: int, D: int, a: int, abar: int, cap: int, s1: int
) -> Tuple[_Row, _Row, _Row, _Row]:
    """Sum upper, product upper, sum lower and product lower rows of thm32.

    ``a`` and ``abar`` stand for 2m and 2m-bar = n(n-1)-2m and ``cap`` for an
    upper bound on a * abar; the lower bounds are cased by d >= 2 or d = 1
    and by D <= n-3 or D = n-2 (a connected complement forces D <= n-2).
    """
    cnk, c = comb(n, k), comb(n - 1, k - 1)
    dk, rk = d ** (k - 1), (n - D - 1) ** (k - 1)
    sum_up = (n - 1) ** 2 * cnk * s1 ** (k - 1)
    prod_up = cap * (n - 1) ** 2 * c**2 * D ** (k - 1) * (n - d - 1) ** (k - 1)
    case = "min_deg>=2" if d >= 2 else "min_deg=1"
    case += ",max_deg<=n-3" if D <= n - 3 else ",max_deg=n-2"
    if d >= 2 and D <= n - 3:
        sum_lo = (case, (n - 1) * (k - 1) * cnk * min(d, n - D - 1) ** (k - 1), 1, False)
        prod_lo = (case, a * abar * (k - 1) ** 2 * c**2 * dk * rk, k * k, False)
    elif d >= 2:
        sum_lo = (case, a * (k - 1) * c * dk + k * k * cnk, k, False)
        prod_lo = (case, a * (k - 1) * cnk * c * dk, 1, False)
    elif D <= n - 3:
        sum_lo = (case, k * k * cnk + abar * (k - 1) * c * rk, k, False)
        prod_lo = (case, abar * (k - 1) * cnk * c * rk, 1, False)
    else:
        sum_lo = (case, 2 * k * cnk, 1, False)
        prod_lo = (case, (k * cnk) ** 2, 1, False)
    return ("", sum_up, 1, False), ("", prod_up, k * k, False), sum_lo, prod_lo


def _thm32(n: int, m: int, d: int, D: int, p: int, k: int) -> Tuple[_Row, _Row, _Row, _Row]:
    """Bounds on index(G) + index(co-G) and index(G) * index(co-G).

    With s1 = max(D, n-d-1), t1 = min(d, n-D-1):

    sum upper:      (n-1)^2 C(n,k) s1^(k-1)
    product upper:  2m(n^2-n-2m)(n-1)^2 C(n-1,k-1)^2 D^(k-1) (n-d-1)^(k-1) / k^2
    sum lower, by (min degree, max degree) case:
      d>=2, D<=n-3:  (n-1)(k-1)C(n,k) t1^(k-1)
      d>=2, D=n-2:   2m(k-1)C(n-1,k-1)d^(k-1)/k + kC(n,k)
      d=1,  D<=n-3:  kC(n,k) + (n(n-1)-2m)(k-1)C(n-1,k-1)(n-D-1)^(k-1)/k
      d=1,  D=n-2:   2kC(n,k)
    product lower, same cases:
      d>=2, D<=n-3:  2m(n^2-n-2m)(k-1)^2 C(n-1,k-1)^2 d^(k-1) (n-D-1)^(k-1) / k^2
      d>=2, D=n-2:   2m(k-1)C(n,k)C(n-1,k-1)d^(k-1)
      d=1,  D<=n-3:  (n(n-1)-2m)(k-1)C(n,k)C(n-1,k-1)(n-D-1)^(k-1)
      d=1,  D=n-2:   k^2 C(n,k)^2
    """
    a, abar = 2 * m, n * (n - 1) - 2 * m
    return _paired(n, k, d, D, a, abar, a * abar, max(D, n - d - 1))


def _cor41(n: int, m: int, d: int, D: int, p: int, k: int) -> Tuple[_Row, _Row, _Row, _Row]:
    """Size-free variants of the paired bounds, order >= 4.

    thm32 with 2m >= nd, n(n-1)-2m >= n(n-1-D) and their product at most
    n^2(n-1)^2/4; the sum upper bound keeps s1 = min(D, n-d-1) as printed.

    sum upper:      (n-1)^2 C(n,k) s1^(k-1),  s1 = min(D, n-d-1)
    product upper:  n^2 C(n-1,k-1)^2 D^(k-1) (n-d-1)^(k-1) (n-1)^4 / (4k^2)
    sum lower, by case:
      d>=2, D<=n-3:  (n-1)(k-1)C(n,k) t1^(k-1)
      d>=2, D=n-2:   n(k-1)C(n-1,k-1)d^k/k + kC(n,k)
      d=1,  D<=n-3:  kC(n,k) + n(k-1)C(n-1,k-1)(n-D-1)^k/k
      d=1,  D=n-2:   2kC(n,k)
    product lower, by case:
      d>=2, D<=n-3:  n^2 (k-1)^2 C(n-1,k-1)^2 d^k (n-D-1)^k / k^2
      d>=2, D=n-2:   n(k-1)C(n,k)C(n-1,k-1)d^k
      d=1,  D<=n-3:  n(k-1)C(n,k)C(n-1,k-1)(n-D-1)^k
      d=1,  D=n-2:   k^2 C(n,k)^2
    """
    cap = (n * (n - 1) // 2) ** 2
    sum_up, prod_up, sum_lo, prod_lo = _paired(
        n, k, d, D, n * d, n * (n - 1 - D), cap, min(D, n - d - 1)
    )
    return sum_up, sum_lo, prod_up, prod_lo


def _branch(n: int, d: int, D: int) -> Tuple[int, str]:
    """Pick the degree branch for the product/sum extremal bounds.

    Returns (base, label) with base = d(n-d-1) on the low branch and
    D(n-D-1) on the high branch.  On the boundary D+d = n-1 the two
    coincide identically, so either branch reports the same value.
    """
    if D + d < n - 1:
        return d * (n - d - 1), "min+max<n-1"
    if D + d > n - 1:
        return D * (n - D - 1), "min+max>n-1"
    both = d * (n - d - 1)
    assert both == D * (n - D - 1)
    return both, "min+max=n-1"


def _ps(n: int, m: int, d: int, D: int, p: int, k: int) -> Tuple[_Row, _Row]:
    """Polya-Szego style bounds on index(G) * index(co-G).

    Upper: ((n-1)/2)^(2k+2) C(n,k)^2 (r^k + r^(-k) + 2) where r is the ratio
    D(n-d-1) / (d(n-D-1)).  Lower: (k-1)^2 base^k C(n,k)^2 with base from
    the degree branch.
    """
    cnk = comb(n, k)
    base, label = _branch(n, d, D)
    # with r = A/B, r^k + r^(-k) + 2 = (A^k + B^k)^2 / (A^k B^k)
    ak, bk = (D * (n - d - 1)) ** k, (d * (n - D - 1)) ** k
    num, den = (n - 1) ** (2 * k + 2) * cnk**2 * (ak + bk) ** 2, 2 ** (2 * k + 2) * ak * bk
    return ("", num, den, False), (label, (k - 1) ** 2 * base**k * cnk**2, 1, False)


def _amgm(n: int, m: int, d: int, D: int, p: int, k: int) -> Tuple[_Row, _Row]:
    """Mean-inequality bounds on index(G) + index(co-G).

    Upper: (n-1)(D^k + (n-d-1)^k) C(n,k).  Lower: 2(k-1) base^(k/2) C(n,k);
    for odd k with base not a perfect square this is the root row, the
    square root of 4(k-1)^2 base^k C(n,k)^2, compared by squaring.
    """
    cnk = comb(n, k)
    base, label = _branch(n, d, D)
    factor = 2 * (k - 1) * cnk
    root = isqrt(base)
    if k % 2 == 0:
        lower = (label, factor * base ** (k // 2), 1, False)
    elif root * root == base:
        lower = (label, factor * root**k, 1, False)
    else:
        lower = (label, factor**2 * base**k, 1, True)
    return ("", (n - 1) * (D**k + (n - d - 1) ** k) * cnk, 1, False), lower


_FORMULAS = {
    "prop21": _prop21,
    "lem22": _lem22,
    "thm32": _thm32,
    "cor41": _cor41,
    "ps": _ps,
    "amgm": _amgm,
}


# a wanted bound of a running group: its row in the group, its id, its
# operand (0 SGut_k(G), 1 the sum, 2 the product with SGut_k(co-G)), upper side
_Kind = Tuple[int, str, int, bool]


class _Decision(NamedTuple):
    runs: Tuple[Tuple[str, Tuple[_Kind, ...]], ...]  # in BOUND_GROUPS order
    skipped: Tuple[Tuple[str, type, str], ...]  # group, error class, its text
    paired: bool  # some running group reads the complement's index


@lru_cache(maxsize=None)
def _decide(wanted: Tuple[str, ...], n: int, co_connected: bool) -> _Decision:
    """Which groups of ``wanted`` run on a connected order-n graph, and which are
    ruled out and why: first by the group's least order, then, for a paired
    group, by a disconnected complement."""
    runs, skipped = [], []
    for group in BOUND_GROUPS:
        kinds = []
        for row, bound_id in enumerate(_GROUP_IDS[group]):
            if bound_id in wanted:
                kind = bound_id.rsplit(".", 1)[1]  # the operand, then the side
                operand = {"sum": 1, "product": 2}.get(kind.split("_")[0], 0)
                kinds.append((row, bound_id, operand, kind.endswith("upper")))
        if not kinds:
            continue
        least = _LEAST_ORDER.get(group, 0)
        if n < least:
            skipped.append((group, KOutOfRange, f"needs order at least {least}"))
        elif group in PAIRED_GROUPS and not co_connected:
            skipped.append((group, ComplementDisconnected, "complement is disconnected"))
        else:
            runs.append((group, tuple(kinds)))
    paired = any(group in PAIRED_GROUPS for group, _ in runs)
    return _Decision(tuple(runs), tuple(skipped), paired)


class _Bound(NamedTuple):
    """One wanted bound at one signature and k, as its check reads it."""

    bound_id: str
    case: str
    num: int  # the value is num/den, or its square root where root is set
    den: int
    root: bool
    operand: int  # 0 SGut_k(G), 1 the sum, 2 the product with SGut_k(co-G)
    upper: bool


# an operand's open band at one k: (operand, lo, hi), hi None for no upper bound
_Band = Tuple[int, int, Optional[int]]


class _Step(NamedTuple):
    """The checks of the running groups at one k, and the band of each
    operand they read."""

    bounds: Tuple[_Bound, ...]
    bands: Tuple[_Band, ...]  # in operand order


def _rows(
    runs: Tuple[Tuple[str, Tuple[_Kind, ...]], ...],
    signature: Tuple[int, int, int, int, int],
    k: int,
) -> Iterator[Tuple[_Kind, _Row]]:
    """Each wanted bound of the running groups ``runs`` at ``signature`` and
    ``k``, in BOUND_IDS order: its kind and its group's row."""
    for group, kinds in runs:
        rows = _FORMULAS[group](*signature, k)
        for kind in kinds:
            yield kind, rows[kind[0]]


@lru_cache(maxsize=None)
def _bands(
    runs: Tuple[Tuple[str, Tuple[_Kind, ...]], ...], signature: Tuple[int, int, int, int, int]
) -> Tuple[Tuple[_Band, ...], ...]:
    """The open integer band of each operand the running groups ``runs``
    read at ``signature``, for every k: entry k holds them in operand order
    (entries 0 and 1 are empty).  Only the bands' integers are kept, so a
    caller that decides graphs by their degrees alone holds no check.

    An operand's band (lo, hi) has lo the largest floor(num/den) over its
    lower bounds, isqrt(floor(num/den)) for the root row, or -1 with none,
    and hi the least ceil(num/den) over its upper bounds, or None.  For
    integers a >= 0 and den > 0:

        a * den > num      iff  a > floor(num/den)
        a * den < num      iff  a < ceil(num/den)
        a^2 * den > num    iff  a > isqrt(floor(num/den))

    (the last since a^2 > F iff a > isqrt(F) for an integer F >= 0).  So an
    operand with lo < a < hi holds each of its checks strictly: none fails
    and none is tight.  The root row is a lower bound (amgm's).
    """
    used = sorted({operand for _, kinds in runs for _, _, operand, _ in kinds})
    out: List[Tuple[_Band, ...]] = [()] * 2
    for k in range(2, signature[0] + 1):
        lows: List[int] = [-1] * 3  # per operand
        highs: List[Optional[int]] = [None] * 3
        for (_, _, operand, upper), (_, num, den, root) in _rows(runs, signature, k):
            if upper:
                cap = -(-num // den)
                if highs[operand] is None or cap < highs[operand]:
                    highs[operand] = cap
            else:
                lows[operand] = max(lows[operand], isqrt(num // den) if root else num // den)
        out.append(tuple((op, lows[op], highs[op]) for op in used))
    return tuple(out)


@lru_cache(maxsize=None)
def _plan(
    runs: Tuple[Tuple[str, Tuple[_Kind, ...]], ...], signature: Tuple[int, int, int, int, int]
) -> Tuple[_Step, ...]:
    """The checks of the running groups ``runs`` at ``signature`` for every k,
    computed once: entry k holds each wanted bound at k, in BOUND_IDS order,
    and the operands' bands there (``_bands``); entries 0 and 1 are empty."""
    bands = _bands(runs, signature)
    plan = [_Step((), ())] * 2
    for k in range(2, signature[0] + 1):
        bounds = tuple(
            _Bound(bound_id, *row, operand, upper)
            for (_, bound_id, operand, upper), row in _rows(runs, signature, k)
        )
        plan.append(_Step(bounds, bands[k]))
    return tuple(plan)


def _signature(degrees: Sequence[int]) -> Tuple[int, int, int, int, int]:
    """(n, m, d, D, p) of a graph with the degrees ``degrees``."""
    return (len(degrees), sum(degrees) // 2, min(degrees), max(degrees), degrees.count(1))


def _elementary(values: Sequence[int]) -> List[int]:
    """e_0 .. e_n of ``values``: the coefficients of prod (1 + v x)."""
    e = [1]
    for v in values:
        e = [a + v * b for a, b in zip(e + [0], [0] + e)]
    return e


def _certified(runs: Tuple[Tuple[str, Tuple[_Kind, ...]], ...], degrees: Tuple[int, ...]) -> int:
    """The k, as a bitmask with bit k set, at which every operand of the
    running groups ``runs`` lies strictly inside its band (``_bands``) on
    every connected graph with the sorted degrees ``degrees`` and, where a
    paired group runs, a connected complement.

    For a connected order-n graph and a k-set S, k - 1 <= d(S) <= n - 1: a
    Steiner tree of S spans at least its k vertices and at most all n.
    SGut_k sums d(S) times the degree product of S over the k-sets, so

        (k-1) e_k(deg)  <=  SGut_k(G)  <=  (n-1) e_k(deg)

    with e_k the k-th elementary symmetric polynomial.  The complement's
    degrees are n-1-d, so its bracket needs no complement built; the sum's
    and the product's brackets are the sum and the product of the two,
    every end being non-negative.  A k is certified when each operand's
    closed bracket lies inside its open band, so by integers alone every
    check there holds strictly, whatever the graph's sums.  With nothing
    running every k is certified: there is nothing to check.
    """
    n = len(degrees)
    bands = _bands(runs, _signature(degrees))
    e = _elementary(degrees)
    paired = any(group in PAIRED_GROUPS for group, _ in runs)
    co = _elementary([n - 1 - d for d in degrees]) if paired else []
    certified = 0
    for k in range(2, n + 1):
        lo, hi = (k - 1) * e[k], (n - 1) * e[k]
        brackets = [(lo, hi)]
        if paired:
            co_lo, co_hi = (k - 1) * co[k], (n - 1) * co[k]
            brackets += [(lo + co_lo, hi + co_hi), (lo * co_lo, hi * co_hi)]
        if all(
            band_lo < brackets[op][0] and (band_hi is None or brackets[op][1] < band_hi)
            for op, band_lo, band_hi in bands[k]
        ):
            certified |= 1 << k
    return certified


def _value(bound: _Bound) -> Scalar:
    """The reduced exact value of ``bound``, as it is reported: a Fraction, or
    a SquareRoot for the root row."""
    value = Fraction(bound.num, bound.den)
    return SquareRoot(value) if bound.root else value


# a check: the bound, the actual value it is compared with, holds, tight
_Verdict = Tuple[_Bound, int, bool, bool]


class GraphContext:
    """What the bound layer reads about one graph, computed once per graph.

    G's connectivity is found at once.  The complement and its connectivity
    are found when first read, which a sweep of unpaired groups never does.
    A caller that already knows both facts, a sweep's batch of connected
    graphs whose complements it read off their masks, passes
    ``co_connected``: then neither graph is flooded to decide.
    ``sums`` and ``co_sums``, the all-k sgut and sw of G and the
    complement, are computed when first read, after the guards, so a
    disconnected G or a bad k costs no Steiner table; ``batch`` fills them
    for many graphs at once.  Which of the bound ids ``wanted`` run
    here is decided once, by ``_decide``: ``runs`` holds the groups that
    run, and ``skipped`` maps each requested group it rules out, in
    BOUND_GROUPS order, to its error.  The decision assumes a connected
    complement and is taken again only when a paired group would run and
    the complement turns out disconnected.
    """

    def __init__(
        self, g: Graph, wanted: Sequence[str] = (), co_connected: Optional[bool] = None
    ) -> None:
        self.g = g
        if co_connected is None:
            self.connected = is_connected(g)
        else:
            # the caller's facts: G connected, and the complement as given
            self.connected = True
            self.co_connected = co_connected  # fills the cached_property
        self.signature = _signature(g.degrees)
        # the complement matters only to a paired group that would run
        wanted = tuple(wanted)
        decision = _decide(wanted, g.n, True)
        if decision.paired and not self.co_connected:
            decision = _decide(wanted, g.n, False)
        self.runs, skipped, self._paired = decision
        # errors made per context, so a raised one holds no other call's traceback
        self.skipped = {group: error(text) for group, error, text in skipped}

    @cached_property
    def gbar(self) -> Graph:
        return complement(self.g)

    @cached_property
    def co_connected(self) -> bool:
        return is_connected(self.gbar)

    @classmethod
    def batch(
        cls,
        graphs: Sequence[Graph],
        wanted: Sequence[str] = (),
        co_connected: Optional[Sequence[bool]] = None,
    ) -> List["GraphContext"]:
        """The contexts of ``graphs``, all of one order, their sums read at
        once: G's where a group runs on a connected G, and the complement's
        where a paired group runs, all from one batched table pass.  A sweep
        filters and counts its graphs first (``verify._settle``), so its
        graphs are connected, and it passes each complement's connectivity
        as ``co_connected``; without it each context floods its own."""
        facts = [None] * len(graphs) if co_connected is None else co_connected
        ctxs = [cls(g, wanted, co) for g, co in zip(graphs, facts)]
        wants = []
        for ctx in ctxs:
            if ctx.connected and ctx.runs:
                wants.append((ctx, "sums", ctx.g))
                if ctx._paired:
                    wants.append((ctx, "co_sums", ctx.gbar))
        for (ctx, name, _), sums in zip(wants, _sums([h for _, _, h in wants], sdd=False)):
            # setting the instance attribute fills the cached_property
            setattr(ctx, name, sums)
        return ctxs

    @cached_property
    def sums(self) -> _Sums:
        return _sums([self.g], sdd=False)[0]

    @cached_property
    def co_sums(self) -> _Sums:
        return _sums([self.gbar], sdd=False)[0]

    @cached_property
    def plan(self) -> Tuple[_Step, ...]:
        """The running groups' checks at every k, shared by every graph of
        this signature that runs the same groups."""
        return _plan(self.runs, self.signature)

    def checks(self, k: int, banded: bool = False) -> List[_Verdict]:
        """The checks at ``k`` of the wanted bounds that run, in BOUND_IDS order.

        Each is (bound, actual, holds, tight), decided by integer products.
        With ``banded``, a k where every operand lies strictly inside its
        band (``_plan``) gives no checks: each holds there and none is tight.
        Only G's connectivity and k are guarded here; the skipped groups are
        the caller's to report or raise.
        """
        _guard(self.connected, self.g, k)
        if not self.runs:
            return []
        sg = self.sums.sgut[k]
        operands = (sg,)
        if self._paired:
            # a paired group runs only on a connected complement
            sgbar = self.co_sums.sgut[k]
            operands = (sg, sg + sgbar, sg * sgbar)
        bounds, bands = self.plan[k]
        if banded:
            for op, lo, hi in bands:
                if not (lo < operands[op] and (hi is None or operands[op] < hi)):
                    break
            else:
                return []
        out = []
        for bound in bounds:
            _, _, num, den, root, operand, upper = bound
            actual = operands[operand]
            scaled = (actual * actual if root else actual) * den
            out.append((bound, actual, scaled <= num if upper else scaled >= num, scaled == num))
        return out

    def witness(self, k: int) -> EqualityWitness:
        """Every tightness predicate at ``k``; no bound needs to be involved.

        A k-set has Steiner distance at least k - 1, with equality exactly
        when it induces a connected subgraph, so SW_k decides whether all
        do.  On a connected G that is whether G is (n-k+1)-connected:
        deleting at most n-k vertices leaves each k-set or a larger set X,
        connected when its k-subsets are, since any two of its vertices lie
        in one of them.
        """
        g, n = self.g, self.g.n
        _guard(self.connected, g, k)
        all_minimal = (k - 1) * comb(n, k)
        minimal = self.sums.sw[k] == all_minimal
        both_minimal = minimal and self.co_connected and self.co_sums.sw[k] == all_minimal
        path = _is_path(g)
        return EqualityWitness(
            regular=is_regular(g),
            k_equals_n=(k == n),
            n_minus_k_plus_1_connected=minimal,
            all_k_subsets_induce_connected=minimal,
            steiner_minimal_in_both=both_minimal,
            path_with_k_equals_n=(path and k == n),
            p3_with_k_2=(path and n == 3 and k == 2),
        )


def evaluate_bounds(
    g: Graph, k: int, bound_ids: Optional[Sequence[str]] = None
) -> List[BoundCheck]:
    """Evaluate the requested bound checks in the canonical BOUND_IDS order.

    ``bound_ids`` may mix full identifiers and group prefixes ("thm32");
    None means everything.  The checks are ``GraphContext.checks``; after its
    guards, the first requested group that cannot run raises its error.
    """
    wanted = expand_bound_ids(bound_ids)
    return [
        BoundCheck(bound.bound_id, bound.case, _value(bound), actual, holds, tight)
        for bound, actual, holds, tight in _requested(GraphContext(g, wanted), k)
    ]


def _requested(ctx: GraphContext, k: int) -> List[_Verdict]:
    """``ctx.checks(k)`` for a caller that asked for every wanted bound: after
    the graph and k guards, the first skipped group raises its error."""
    checks = ctx.checks(k)
    if ctx.skipped:
        raise next(iter(ctx.skipped.values()))
    return checks


def expand_bound_ids(bound_ids: Optional[Sequence[str]]) -> List[str]:
    if bound_ids is None:
        return list(BOUND_IDS)
    wanted = []
    for token in bound_ids:
        if token == "all":
            return list(BOUND_IDS)
        if token in BOUND_GROUPS:
            wanted.extend(_GROUP_IDS[token])
        elif token in BOUND_IDS:
            wanted.append(token)
        else:
            raise ValueError(f"unknown bound id {token!r}")
    # canonical order, no duplicates
    return [b for b in BOUND_IDS if b in wanted]


@dataclass(frozen=True)
class EqualityWitness:
    """Structural predicates that explain why a bound can be tight."""

    regular: bool
    k_equals_n: bool
    n_minus_k_plus_1_connected: bool
    all_k_subsets_induce_connected: bool
    steiner_minimal_in_both: bool
    path_with_k_equals_n: bool
    p3_with_k_2: bool


def _is_path(g: Graph) -> bool:
    """Whether ``g`` is a path, for a connected ``g`` of order at least 2 (the
    witness's guards ensure both): a tree with no degree above 2."""
    return g.m == g.n - 1 and max(g.degrees) <= 2


def diagnose_equality(g: Graph, k: int) -> EqualityWitness:
    """Evaluate every tightness predicate; no bound needs to be involved."""
    return GraphContext(g).witness(k)


def equality_witness(g: Graph, k: int, bound_id: str) -> EqualityWitness:
    """Diagnose a tight bound; raises NotTight when the bound is not an equality."""
    if bound_id not in BOUND_IDS:
        raise ValueError(f"unknown bound id {bound_id!r}")
    ctx = GraphContext(g, [bound_id])
    bound, actual, _, tight = _requested(ctx, k)[0]
    if not tight:
        raise NotTight(f"{bound_id} is strict here: {actual} vs {_value(bound)}")
    return ctx.witness(k)
