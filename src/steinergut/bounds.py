"""Exact bound checks for the Steiner Gutman index.

Every bound value depends only on k and the degree signature (n, m, d, D, p):
order, size, minimum and maximum degree, number of pendant vertices.  Each
group is one formula function of the signature (``_prop21`` ... ``_amgm``,
the formulas in their docstrings and in the README table) returning its
(case label, exact value) rows in BOUND_IDS order.  Corollary 4.1 is Theorem
3.2 with the size eliminated through 2m >= nd, n(n-1)-2m >= n(n-1-D) and
2m(n(n-1)-2m) <= n^2(n-1)^2/4, so ``_thm32`` and ``_cor41`` feed one
``_paired``; cor41 keeps the printed s1 = min(D, n-d-1) where thm32 has the
max, and sweeps report how the min variant behaves rather than repair it.

Two cached layers sit on the formulas.  ``_bound_rows`` memoizes one group's
rows per (signature, k), each with the integers its check compares: the
value's numerator and denominator (of the square, for a SquareRoot).
``_decide`` is the one applicability rule, memoized per (wanted ids, order,
complement connected): the groups that run, each with the row, bound id,
operand and side of its wanted bounds, and the requested groups it rules
out, each with the error a request for it raises.  The group's least order
is checked first, then the complement's connectivity, which only the paired
groups need.

A ``GraphContext`` holds what one graph contributes: G, the complement, the
connectivity of both, the signature, the all-k index sums of both, and the
decision for the ids it was built with; it is the only per-graph memo.  The
complement is built only when a paired group would run or a caller reads
it, and each graph's sums (sgut and sw; no bound reads sdd) on first use,
after the guards, or, for a sweep's batch (``GraphContext.batch``), all at
once from one batched table pass.  Its ``checks(k)`` is the one evaluator;
a check is ``actual * den <= num`` (or ``>=``, with actual squared for a
SquareRoot), so no Fraction is built per check.  It guards only G's
connectivity, then k (Disconnected, then KOutOfRange), once per (graph,
k), and then reads the cached sums, never a public index function;
``evaluate_bounds`` and ``equality_witness`` then raise the first
ruled-out group's error (``_requested``), while a sweep or a batch
reports the ruled-out groups in ``skipped`` and goes on.

Values stay exact: Fractions, and for the one half-integer exponent an exact
SquareRoot compared by squaring, never through floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, isqrt
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import ComplementDisconnected, KOutOfRange, NotTight
from .exact import Scalar, SquareRoot
from .graph import Graph, complement, is_connected, is_k_connected, is_regular
from .indices import _batch_sums, _guard, _Sums, _sums

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


_Row = Tuple[str, Scalar]


def _prop21(n: int, m: int, d: int, D: int, p: int, k: int) -> Tuple[_Row, _Row]:
    """Degree-extreme bounds on the index of one connected graph, order >= 3.

    Upper: 2m(n-1)C(n-1,k-1)D^(k-1)/k.  Lower for d >= 2:
    2m(k-1)C(n-1,k-1)d^(k-1)/k.  Lower for d = 1, with p pendant vertices and
    q = max(k-p, 1): kC(p,k) + 2^q (k-1)(C(n,k)-C(p,k)).
    """
    c = comb(n - 1, k - 1)
    upper = ("", Fraction(2 * m * (n - 1) * c * D ** (k - 1), k))
    if d >= 2:
        return upper, ("min_deg>=2", Fraction(2 * m * (k - 1) * c * d ** (k - 1), k))
    q = max(k - p, 1)
    return upper, ("min_deg=1", k * comb(p, k) + 2**q * (k - 1) * (comb(n, k) - comb(p, k)))


def _lem22(n: int, m: int, d: int, D: int, p: int, k: int) -> Tuple[_Row, _Row]:
    """Mean-degree bounds on the index of one connected graph.

    Upper: (n-1)(2m/k)^k C(n-1,k-1)^k.  Lower: 2m(k-1)C(n-1,k-1) when d >= 2,
    else (k-1)C(n,k).
    """
    c = comb(n - 1, k - 1)
    upper = ("", (n - 1) * Fraction(2 * m, k) ** k * c**k)
    if d >= 2:
        return upper, ("min_deg>=2", 2 * m * (k - 1) * c)
    return upper, ("min_deg=1", (k - 1) * comb(n, k))


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
    prod_up = Fraction(cap * (n - 1) ** 2 * c**2 * D ** (k - 1) * (n - d - 1) ** (k - 1), k * k)
    if d >= 2 and D <= n - 3:
        sum_lo = (n - 1) * (k - 1) * cnk * min(d, n - D - 1) ** (k - 1)
        prod_lo = Fraction(a * abar * (k - 1) ** 2 * c**2 * dk * rk, k * k)
    elif d >= 2:
        sum_lo = Fraction(a * (k - 1) * c * dk, k) + k * cnk
        prod_lo = a * (k - 1) * cnk * c * dk
    elif D <= n - 3:
        sum_lo = k * cnk + Fraction(abar * (k - 1) * c * rk, k)
        prod_lo = abar * (k - 1) * cnk * c * rk
    else:
        sum_lo = 2 * k * cnk
        prod_lo = (k * cnk) ** 2
    case = "min_deg>=2" if d >= 2 else "min_deg=1"
    case += ",max_deg<=n-3" if D <= n - 3 else ",max_deg=n-2"
    return ("", sum_up), ("", prod_up), (case, sum_lo), (case, prod_lo)


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
    r = Fraction(D * (n - d - 1), d * (n - D - 1))
    upper = Fraction((n - 1) ** (2 * k + 2), 2 ** (2 * k + 2)) * cnk**2 * (r**k + 1 / r**k + 2)
    return ("", upper), (label, (k - 1) ** 2 * base**k * cnk**2)


def _amgm(n: int, m: int, d: int, D: int, p: int, k: int) -> Tuple[_Row, _Row]:
    """Mean-inequality bounds on index(G) + index(co-G).

    Upper: (n-1)(D^k + (n-d-1)^k) C(n,k).  Lower: 2(k-1) base^(k/2) C(n,k);
    for odd k with base not a perfect square this is an exact SquareRoot
    compared by squaring.
    """
    cnk = comb(n, k)
    base, label = _branch(n, d, D)
    factor = 2 * (k - 1) * cnk
    root = isqrt(base)
    lower: Scalar
    if k % 2 == 0:
        lower = factor * base ** (k // 2)
    elif root * root == base:
        lower = factor * root**k
    else:
        lower = SquareRoot(Fraction(factor**2 * base**k))
    return ("", (n - 1) * (D**k + (n - d - 1) ** k) * cnk), (label, lower)


_FORMULAS = {
    "prop21": _prop21,
    "lem22": _lem22,
    "thm32": _thm32,
    "cor41": _cor41,
    "ps": _ps,
    "amgm": _amgm,
}


class _Prepared(NamedTuple):
    """One bound at one signature and k, with the integers its check compares."""

    case: str
    value: Scalar  # a Fraction or a SquareRoot, as BoundCheck reports it
    num: int
    den: int
    squared: bool  # a SquareRoot: compare actual^2 * den with num


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


@lru_cache(maxsize=None)
def _bound_rows(
    group: str, n: int, m: int, d: int, D: int, p: int, k: int
) -> Tuple[_Prepared, ...]:
    """The rows of ``group`` at signature (n, m, d, D, p) and k, computed once;
    row i belongs to the bound ``_GROUP_IDS[group][i]``."""
    rows = []
    for case, value in _FORMULAS[group](n, m, d, D, p, k):
        squared = isinstance(value, SquareRoot)
        exact = value.square if squared else Fraction(value)
        num, den = exact.as_integer_ratio()
        rows.append(_Prepared(case, value if squared else exact, num, den, squared))
    return tuple(rows)


# a check as a tuple in BoundCheck's field order
_Verdict = Tuple[str, str, Scalar, int, bool, bool]


class GraphContext:
    """What the bound layer reads about one graph, computed once per graph.

    G's connectivity is found at once.  The complement and its connectivity
    are found when first read, which a sweep of unpaired groups never does.
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

    def __init__(self, g: Graph, wanted: Sequence[str] = ()) -> None:
        self.g = g
        self.connected = is_connected(g)
        degs = g.degrees
        self.signature = (g.n, g.m, min(degs), max(degs), degs.count(1))
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
    def batch(cls, graphs: Sequence[Graph], wanted: Sequence[str] = ()) -> List["GraphContext"]:
        """The contexts of ``graphs``, all of one order, their sums read at
        once: G's where a group runs on a connected G, and the complement's
        where a paired group runs, all from one batched table pass."""
        ctxs = [cls(g, wanted) for g in graphs]
        wants = []
        for ctx in ctxs:
            if ctx.connected and ctx.runs:
                wants.append((ctx, "sums", ctx.g))
                if ctx._paired:
                    wants.append((ctx, "co_sums", ctx.gbar))
        for (ctx, name, _), sums in zip(wants, _batch_sums([h for _, _, h in wants])):
            # setting the instance attribute fills the cached_property
            setattr(ctx, name, sums)
        return ctxs

    @cached_property
    def sums(self) -> _Sums:
        return _sums(self.g, sdd=False)

    @cached_property
    def co_sums(self) -> _Sums:
        return _sums(self.gbar, sdd=False)

    def checks(self, k: int) -> List[_Verdict]:
        """The checks at ``k`` of the wanted bounds that run, in BOUND_IDS order.

        Each is a tuple in BoundCheck's field order.  Only G's connectivity
        and k are guarded here; the skipped groups are the caller's to report
        or raise.
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
        out = []
        for group, kinds in self.runs:
            rows = _bound_rows(group, *self.signature, k)
            for row, bound_id, operand, upper in kinds:
                case, value, num, den, squared = rows[row]
                actual = operands[operand]
                scaled = (actual * actual if squared else actual) * den
                holds = scaled <= num if upper else scaled >= num
                out.append((bound_id, case, value, actual, holds, scaled == num))
        return out

    def witness(self, k: int) -> EqualityWitness:
        """Every tightness predicate at ``k``; no bound needs to be involved."""
        g, n = self.g, self.g.n
        _guard(self.connected, g, k)
        # every k-set has Steiner distance at least k - 1, with equality exactly
        # when it induces a connected subgraph, so one cached sum decides all
        all_minimal = (k - 1) * comb(n, k)
        minimal = self.sums.sw[k] == all_minimal
        both_minimal = minimal and self.co_connected and self.co_sums.sw[k] == all_minimal
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


def evaluate_bounds(
    g: Graph, k: int, bound_ids: Optional[Sequence[str]] = None
) -> List[BoundCheck]:
    """Evaluate the requested bound checks in the canonical BOUND_IDS order.

    ``bound_ids`` may mix full identifiers and group prefixes ("thm32");
    None means everything.  The checks are ``GraphContext.checks``; after its
    guards, the first requested group that cannot run raises its error.
    """
    wanted = expand_bound_ids(bound_ids)
    return [BoundCheck(*check) for check in _requested(GraphContext(g, wanted), k)]


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
    if g.n == 1:
        return True
    if g.m != g.n - 1 or not is_connected(g):
        return False
    degs = sorted(g.degrees)
    return degs[0] == degs[1] == 1 and (g.n == 2 or degs[2:] == [2] * (g.n - 2))


def diagnose_equality(g: Graph, k: int) -> EqualityWitness:
    """Evaluate every tightness predicate; no bound needs to be involved."""
    return GraphContext(g).witness(k)


def equality_witness(g: Graph, k: int, bound_id: str) -> EqualityWitness:
    """Diagnose a tight bound; raises NotTight when the bound is not an equality."""
    if bound_id not in BOUND_IDS:
        raise ValueError(f"unknown bound id {bound_id!r}")
    ctx = GraphContext(g, [bound_id])
    _, _, value, actual, _, tight = _requested(ctx, k)[0]
    if not tight:
        raise NotTight(f"{bound_id} is strict here: {actual} vs {value}")
    return ctx.witness(k)
