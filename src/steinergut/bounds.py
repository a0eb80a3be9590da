"""Exact bound checks for the Steiner Gutman index.

Every bound is evaluated in exact rational arithmetic and returned as a
BoundCheck carrying the bound value, the exact invariant value, whether the
inequality holds, and whether it is an equality.  Bound identifiers are
short stable tokens (see BOUND_IDS); the formula behind each token is in its
evaluator's docstring and in the README table.

Single-graph bounds need a connected graph; the paired bounds compare a
graph against its complement and need both connected.  Lower bounds with a
half-integer exponent are represented as an exact SquareRoot and compared by
squaring, never through floats.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    ComplementDisconnected,
    DegenerateDegrees,
    Disconnected,
    KOutOfRange,
    NoCaseApplies,
    NotTight,
)
from .exact import Scalar, SquareRoot
from .graph import Graph, complement, degree_profile, is_connected, is_k_connected, is_regular
from .indices import _sums, _table, steiner_gutman
from .steiner import SteinerTable

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


@dataclass(frozen=True)
class BoundCheck:
    bound_id: str
    case_label: str
    bound_value: Scalar
    actual: int
    holds: bool
    tight: bool


def _upper(bound_id: str, case: str, bound: Scalar, actual: int) -> BoundCheck:
    if isinstance(bound, SquareRoot):
        holds = bound.ge_squared(actual)
        tight = bound.eq_squared(actual)
    else:
        holds = actual <= bound
        tight = actual == bound
    return BoundCheck(bound_id, case, bound, actual, holds, tight)


def _lower(bound_id: str, case: str, bound: Scalar, actual: int) -> BoundCheck:
    if isinstance(bound, SquareRoot):
        holds = bound.le_squared(actual)
        tight = bound.eq_squared(actual)
    else:
        holds = actual >= bound
        tight = actual == bound
    return BoundCheck(bound_id, case, bound, actual, holds, tight)


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise Disconnected("bounds are defined for connected graphs")


def _require_k(g: Graph, k: int) -> None:
    if not 2 <= k <= g.n:
        raise KOutOfRange(f"k must satisfy 2 <= k <= {g.n}, got {k}")


def _sgut(g: Graph, k: int, table: Optional[SteinerTable]) -> int:
    return steiner_gutman(g, k, table=table)


def prop21(
    g: Graph, k: int, *, table: Optional[SteinerTable] = None
) -> Tuple[BoundCheck, BoundCheck]:
    """Degree-extreme bounds on the index of one connected graph, order >= 3.

    Upper: 2m(n-1)C(n-1,k-1)D^(k-1)/k with D the max degree.  Lower for min
    degree >= 2: 2m(k-1)C(n-1,k-1)d^(k-1)/k.  Lower for min degree 1, with p
    pendant vertices and q = max(k-p, 1): kC(p,k) + 2^q (k-1)(C(n,k)-C(p,k)).
    """
    _require_connected(g)
    _require_k(g, k)
    n, m = g.n, g.m
    if n < 3:
        raise KOutOfRange(f"these bounds start at order 3, got {n}")
    prof = degree_profile(g)
    actual = _sgut(g, k, table)

    up = Fraction(2 * m * (n - 1) * comb(n - 1, k - 1) * prof.max_degree ** (k - 1), k)
    upper = _upper("prop21.upper", "", up, actual)

    if prof.min_degree >= 2:
        lo = Fraction(2 * m * (k - 1) * comb(n - 1, k - 1) * prof.min_degree ** (k - 1), k)
        lower = _lower("prop21.lower", "min_deg>=2", lo, actual)
    else:
        p = prof.pendant_count
        q = max(k - p, 1)
        lo = k * comb(p, k) + 2**q * (k - 1) * (comb(n, k) - comb(p, k))
        lower = _lower("prop21.lower", "min_deg=1", Fraction(lo), actual)
    return upper, lower


def lem22(
    g: Graph, k: int, *, table: Optional[SteinerTable] = None
) -> Tuple[BoundCheck, BoundCheck]:
    """Mean-degree bounds on the index of one connected graph.

    Upper: (n-1)(2m/k)^k C(n-1,k-1)^k.  Lower: 2m(k-1)C(n-1,k-1) when the min
    degree is >= 2, else (k-1)C(n,k).
    """
    _require_connected(g)
    _require_k(g, k)
    n, m = g.n, g.m
    prof = degree_profile(g)
    actual = _sgut(g, k, table)

    up = (n - 1) * Fraction(2 * m, k) ** k * comb(n - 1, k - 1) ** k
    upper = _upper("lem22.upper", "", up, actual)

    if prof.min_degree >= 2:
        lo = 2 * m * (k - 1) * comb(n - 1, k - 1)
        case = "min_deg>=2"
    else:
        lo = (k - 1) * comb(n, k)
        case = "min_deg=1"
    lower = _lower("lem22.lower", case, Fraction(lo), actual)
    return upper, lower


def _pair_setup(
    g: Graph,
    k: int,
    table: Optional[SteinerTable],
    co_table: Optional[SteinerTable],
) -> Tuple[int, int, int, int, int, int, int]:
    """Shared guards and data for the graph/complement bound pairs.

    Returns (n, m, min_deg, max_deg, index, co_index, case) where case is one
    of the four min/max degree splits used by the cased bounds.
    """
    _require_connected(g)
    _require_k(g, k)
    gbar = complement(g)
    if not is_connected(gbar):
        raise ComplementDisconnected("the complement must be connected as well")
    n, m = g.n, g.m
    prof = degree_profile(g)
    sg = _sgut(g, k, table)
    sgbar = steiner_gutman(gbar, k, table=co_table)
    return n, m, prof.min_degree, prof.max_degree, sg, sgbar, 0


_CASE_LABELS = {
    (True, True): "min_deg>=2,max_deg<=n-3",
    (True, False): "min_deg>=2,max_deg=n-2",
    (False, True): "min_deg=1,max_deg<=n-3",
    (False, False): "min_deg=1,max_deg=n-2",
}


def _degree_case(n: int, dmin: int, dmax: int) -> Tuple[bool, bool, str]:
    # complement connectivity already forces dmax <= n - 2
    if dmax > n - 2:
        raise NoCaseApplies(f"max degree {dmax} leaves no room on {n} vertices")
    key = (dmin >= 2, dmax <= n - 3)
    return key[0], key[1], _CASE_LABELS[key]


def thm32(
    g: Graph,
    k: int,
    *,
    table: Optional[SteinerTable] = None,
    co_table: Optional[SteinerTable] = None,
) -> List[BoundCheck]:
    """Bounds on index(G) + index(co-G) and index(G) * index(co-G).

    With degree extremes d, D and s1 = max(D, n-d-1), t1 = min(d, n-D-1):

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
    n, m, dmin, dmax, sg, sgbar, _ = _pair_setup(g, k, table, co_table)
    big_min, small_max, case = _degree_case(n, dmin, dmax)
    ssum = sg + sgbar
    sprod = sg * sgbar
    cnk = comb(n, k)
    cn1k1 = comb(n - 1, k - 1)

    s1 = max(dmax, n - dmin - 1)
    sum_up = Fraction((n - 1) ** 2 * cnk * s1 ** (k - 1))
    prod_up = Fraction(
        2 * m * (n * n - n - 2 * m) * (n - 1) ** 2 * cn1k1**2
        * dmax ** (k - 1) * (n - dmin - 1) ** (k - 1),
        k * k,
    )

    if big_min and small_max:
        t1 = min(dmin, n - dmax - 1)
        sum_lo = Fraction((n - 1) * (k - 1) * cnk * t1 ** (k - 1))
        prod_lo = Fraction(
            2 * m * (n * n - n - 2 * m) * (k - 1) ** 2 * cn1k1**2
            * dmin ** (k - 1) * (n - dmax - 1) ** (k - 1),
            k * k,
        )
    elif big_min:
        sum_lo = Fraction(2 * m * (k - 1) * cn1k1 * dmin ** (k - 1), k) + k * cnk
        prod_lo = Fraction(2 * m * (k - 1) * cnk * cn1k1 * dmin ** (k - 1))
    elif small_max:
        mbar2 = n * (n - 1) - 2 * m
        sum_lo = k * cnk + Fraction(mbar2 * (k - 1) * cn1k1 * (n - dmax - 1) ** (k - 1), k)
        prod_lo = Fraction(mbar2 * (k - 1) * cnk * cn1k1 * (n - dmax - 1) ** (k - 1))
    else:
        sum_lo = Fraction(2 * k * cnk)
        prod_lo = Fraction(k * k * cnk**2)

    return [
        _upper("thm32.1.sum_upper", "", sum_up, ssum),
        _upper("thm32.1.product_upper", "", prod_up, sprod),
        _lower("thm32.2.sum_lower", case, sum_lo, ssum),
        _lower("thm32.3.product_lower", case, prod_lo, sprod),
    ]


def cor41(
    g: Graph,
    k: int,
    *,
    table: Optional[SteinerTable] = None,
    co_table: Optional[SteinerTable] = None,
) -> List[BoundCheck]:
    """Size-free variants of the paired bounds, order >= 4.

    These replace 2m via n*d <= 2m <= n(n-1)/2.  The sum upper bound is kept
    exactly as printed with s1 = min(D, n-d-1); the companion in thm32 uses
    max, and sweeps report how the min variant behaves rather than repair it.

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
    if g.n < 4:
        raise KOutOfRange(f"these bounds start at order 4, got {g.n}")
    n, m, dmin, dmax, sg, sgbar, _ = _pair_setup(g, k, table, co_table)
    big_min, small_max, case = _degree_case(n, dmin, dmax)
    ssum = sg + sgbar
    sprod = sg * sgbar
    cnk = comb(n, k)
    cn1k1 = comb(n - 1, k - 1)

    s1 = min(dmax, n - dmin - 1)
    sum_up = Fraction((n - 1) ** 2 * cnk * s1 ** (k - 1))
    prod_up = Fraction(
        n * n * cn1k1**2 * dmax ** (k - 1) * (n - dmin - 1) ** (k - 1) * (n - 1) ** 4,
        4 * k * k,
    )

    if big_min and small_max:
        t1 = min(dmin, n - dmax - 1)
        sum_lo = Fraction((n - 1) * (k - 1) * cnk * t1 ** (k - 1))
        prod_lo = Fraction(
            n * n * (k - 1) ** 2 * cn1k1**2 * dmin**k * (n - dmax - 1) ** k, k * k
        )
    elif big_min:
        sum_lo = Fraction(n * (k - 1) * cn1k1 * dmin**k, k) + k * cnk
        prod_lo = Fraction(n * (k - 1) * cnk * cn1k1 * dmin**k)
    elif small_max:
        sum_lo = k * cnk + Fraction(n * (k - 1) * cn1k1 * (n - dmax - 1) ** k, k)
        prod_lo = Fraction(n * (k - 1) * cnk * cn1k1 * (n - dmax - 1) ** k)
    else:
        sum_lo = Fraction(2 * k * cnk)
        prod_lo = Fraction(k * k * cnk**2)

    return [
        _upper("cor41.1.sum_upper", "", sum_up, ssum),
        _lower("cor41.1.sum_lower", case, sum_lo, ssum),
        _upper("cor41.2.product_upper", "", prod_up, sprod),
        _lower("cor41.2.product_lower", case, prod_lo, sprod),
    ]


def _branch(n: int, dmin: int, dmax: int) -> Tuple[int, str]:
    """Pick the degree branch for the product/sum extremal bounds.

    Returns (base, label) with base = d(n-d-1) on the low branch and
    D(n-D-1) on the high branch.  On the boundary max+min = n-1 the two
    coincide identically, so either branch reports the same value.
    """
    if dmax + dmin < n - 1:
        return dmin * (n - dmin - 1), "min+max<n-1"
    if dmax + dmin > n - 1:
        return dmax * (n - dmax - 1), "min+max>n-1"
    both = dmin * (n - dmin - 1)
    assert both == dmax * (n - dmax - 1)
    return both, "min+max=n-1"


def ps_product(
    g: Graph,
    k: int,
    *,
    table: Optional[SteinerTable] = None,
    co_table: Optional[SteinerTable] = None,
) -> Tuple[BoundCheck, BoundCheck]:
    """Polya-Szego style bounds on index(G) * index(co-G).

    Lower: (k-1)^2 base^k C(n,k)^2 with base from the degree branch.  Upper:
    ((n-1)/2)^(2k+2) C(n,k)^2 (r^k + r^(-k) + 2) where r is the ratio
    D(n-d-1) / (d(n-D-1)); needs min degree >= 1 and max degree <= n-2.
    """
    n, m, dmin, dmax, sg, sgbar, _ = _pair_setup(g, k, table, co_table)
    if dmin < 1 or dmax > n - 2 or dmin * (n - dmax - 1) == 0:
        raise DegenerateDegrees("degree extremes collapse the ratio bound")
    sprod = sg * sgbar
    cnk = comb(n, k)

    base, label = _branch(n, dmin, dmax)
    lo = Fraction((k - 1) ** 2 * base**k * cnk**2)
    lower = _lower("ps.product_lower", label, lo, sprod)

    r = Fraction(dmax * (n - dmin - 1), dmin * (n - dmax - 1))
    up = Fraction((n - 1) ** (2 * k + 2), 2 ** (2 * k + 2)) * cnk**2 * (r**k + 1 / r**k + 2)
    upper = _upper("ps.product_upper", "", up, sprod)
    return upper, lower


def amgm_sum(
    g: Graph,
    k: int,
    *,
    table: Optional[SteinerTable] = None,
    co_table: Optional[SteinerTable] = None,
) -> Tuple[BoundCheck, BoundCheck]:
    """Mean-inequality bounds on index(G) + index(co-G).

    Lower: 2(k-1) base^(k/2) C(n,k); for odd k with base not a perfect
    square this is an exact SquareRoot compared by squaring.  Upper:
    (n-1)(D^k + (n-d-1)^k) C(n,k).
    """
    n, m, dmin, dmax, sg, sgbar, _ = _pair_setup(g, k, table, co_table)
    ssum = sg + sgbar
    cnk = comb(n, k)

    base, label = _branch(n, dmin, dmax)
    factor = 2 * (k - 1) * cnk
    if k % 2 == 0:
        lo: Scalar = Fraction(factor * base ** (k // 2))
    else:
        root = isqrt(base)
        if root * root == base:
            lo = Fraction(factor * root**k)
        else:
            lo = SquareRoot(Fraction(factor**2 * base**k))
    lower = _lower("amgm.sum_lower", label, lo, ssum)

    up = Fraction((n - 1) * (dmax**k + (n - dmin - 1) ** k) * cnk)
    upper = _upper("amgm.sum_upper", "", up, ssum)
    return upper, lower


def evaluate_bounds(
    g: Graph,
    k: int,
    bound_ids: Optional[Sequence[str]] = None,
    *,
    table: Optional[SteinerTable] = None,
    co_table: Optional[SteinerTable] = None,
) -> List[BoundCheck]:
    """Evaluate the requested bound checks in the canonical BOUND_IDS order.

    ``bound_ids`` may mix full identifiers and group prefixes ("thm32");
    None means everything.  Guards fire as usual: asking for a paired bound
    on a graph with a disconnected complement raises.
    """
    wanted = expand_bound_ids(bound_ids)
    out: List[BoundCheck] = []
    for group in BOUND_GROUPS:
        ids = [b for b in wanted if b.split(".")[0] == group]
        if not ids:
            continue
        if group in ("prop21", "lem22"):
            checks = list(_GROUP_FNS[group](g, k, table=table))
        else:
            checks = list(_GROUP_FNS[group](g, k, table=table, co_table=co_table))
        out.extend(c for c in checks if c.bound_id in ids)
    return out


def expand_bound_ids(bound_ids: Optional[Sequence[str]]) -> List[str]:
    if bound_ids is None:
        return list(BOUND_IDS)
    wanted = []
    for token in bound_ids:
        if token == "all":
            return list(BOUND_IDS)
        if token in BOUND_GROUPS:
            wanted.extend(b for b in BOUND_IDS if b.split(".")[0] == token)
        elif token in BOUND_IDS:
            wanted.append(token)
        else:
            raise ValueError(f"unknown bound id {token!r}")
    # canonical order, no duplicates
    return [b for b in BOUND_IDS if b in wanted]


_GROUP_FNS = {
    "prop21": prop21,
    "lem22": lem22,
    "thm32": thm32,
    "cor41": cor41,
    "ps": ps_product,
    "amgm": amgm_sum,
}


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

    def as_dict(self) -> Dict[str, bool]:
        return asdict(self)


def _is_path(g: Graph) -> bool:
    if g.n == 1:
        return True
    if g.m != g.n - 1 or not is_connected(g):
        return False
    degs = sorted(g.degrees)
    return degs[0] == degs[1] == 1 and (g.n == 2 or degs[2:] == [2] * (g.n - 2))


def diagnose_equality(
    g: Graph,
    k: int,
    *,
    table: Optional[SteinerTable] = None,
    co_table: Optional[SteinerTable] = None,
) -> EqualityWitness:
    """Evaluate every tightness predicate; no bound needs to be involved."""
    _require_connected(g)
    _require_k(g, k)
    n = g.n
    # every k-set has Steiner distance at least k - 1, with equality exactly
    # when it induces a connected subgraph, so one cached sum decides all
    all_minimal = (k - 1) * comb(n, k)
    minimal = _sums(g, _table(g, table)).sw[k] == all_minimal

    gbar = complement(g)
    both_minimal = False
    if is_connected(gbar):
        co_minimal = _sums(gbar, _table(gbar, co_table)).sw[k] == all_minimal
        both_minimal = minimal and co_minimal

    path = _is_path(g)
    return EqualityWitness(
        regular=is_regular(g),
        k_equals_n=(k == n),
        n_minus_k_plus_1_connected=is_k_connected(g, n - k + 1),
        all_k_subsets_induce_connected=minimal,
        steiner_minimal_in_both=both_minimal,
        path_with_k_equals_n=(path and k == n),
        p3_with_k_2=(path and n == 3 and k == 2),
    )


def equality_witness(g: Graph, k: int, bound_id: str) -> EqualityWitness:
    """Diagnose a tight bound; raises NotTight when the bound is not an equality."""
    if bound_id not in BOUND_IDS:
        raise ValueError(f"unknown bound id {bound_id!r}")
    check = evaluate_bounds(g, k, [bound_id])[0]
    if not check.tight:
        raise NotTight(f"{bound_id} is strict here: {check.actual} vs {check.bound_value}")
    return diagnose_equality(g, k)
