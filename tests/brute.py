"""Slow reference implementations backed by networkx.

Nothing here shares an algorithm with the package under test: Steiner
distances come from literal superset search over networkx subgraphs, the
index oracles re-sum everything from scratch, the canonical key is the
least over every vertex ordering, twins are found by comparing every pair,
a square-root bound is compared as a Fraction squared, not through the
package's scaled integers, and the bound formulas are the printed ones
transcribed in Fractions, where the package computes integer numerators
and denominators.  Test-suite use only.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, isqrt

import networkx as nx

from steinergut import INF, Graph, SquareRoot


def compare_root(root, x) -> int:
    """Sign of sqrt(root.square) - x for a rational x >= 0, found by squaring."""
    square = Fraction(x) ** 2
    return (root.square > square) - (root.square < square)


def canonical_key_and_perms(adj):
    """The least column key over all n! orderings, and the sorted orderings
    that reach it: column j packs the adjacency of seq[j] to seq[0..j-1],
    seq[0] most significant."""
    n = len(adj)
    best, hits = None, []
    for seq in permutations(range(n)):
        key = tuple(
            sum((adj[seq[i]] >> seq[j] & 1) << (j - 1 - i) for i in range(j))
            for j in range(1, n)
        )
        if best is None or key < best:
            best, hits = key, [seq]
        elif key == best:
            hits.append(seq)
    return best, tuple(sorted(hits))


def placing(seq):
    """The permutation for ``relabel`` that puts original vertex seq[i] at i."""
    perm = [0] * len(seq)
    for i, u in enumerate(seq):
        perm[u] = i
    return perm


def twin_classes(adj):
    """The classes of two or more twins, u and v with N(u) - {v} = N(v) - {u},
    each in increasing order, found by comparing every pair."""
    n = len(adj)
    classes = {
        tuple(v for v in range(n) if adj[u] & ~(1 << v) == adj[v] & ~(1 << u)) for u in range(n)
    }
    return tuple(sorted(cls for cls in classes if len(cls) > 1))


def expand_twins(adj, orderings):
    """Every image of ``orderings`` under the permutations of each twin class,
    sorted: the orderings a search that places twins in increasing order
    prunes, restored."""
    classes = twin_classes(adj)
    images = []
    for moves in product(*(permutations(cls) for cls in classes)):
        to = list(range(len(adj)))
        for cls, move in zip(classes, moves):
            for a, b in zip(cls, move):
                to[a] = b
        images += [tuple(to[v] for v in seq) for seq in orderings]
    return tuple(sorted(images))


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def steiner_distance(h: nx.Graph, terminals) -> int:
    """min over supersets T of the terminals with H[T] connected of |T| - 1."""
    terms = set(terminals)
    others = sorted(set(h.nodes) - terms)
    for extra in range(len(others) + 1):
        for added in combinations(others, extra):
            sub = h.subgraph(terms | set(added))
            if nx.is_connected(sub):
                return len(terms) + extra - 1
    return INF


def steiner_gutman(h: nx.Graph, k: int) -> int:
    total = 0
    for sub in combinations(sorted(h.nodes), k):
        prod = 1
        for v in sub:
            prod *= h.degree[v]
        total += prod * steiner_distance(h, sub)
    return total


def steiner_wiener(h: nx.Graph, k: int) -> int:
    return sum(steiner_distance(h, sub) for sub in combinations(sorted(h.nodes), k))


def steiner_degree_distance(h: nx.Graph, k: int) -> int:
    total = 0
    for sub in combinations(sorted(h.nodes), k):
        total += sum(h.degree[v] for v in sub) * steiner_distance(h, sub)
    return total


def gutman(h: nx.Graph) -> int:
    dist = dict(nx.all_pairs_shortest_path_length(h))
    total = 0
    for u, v in combinations(sorted(h.nodes), 2):
        total += h.degree[u] * h.degree[v] * dist[u][v]
    return total


# The printed bounds of each group at degree signature (n, m, d, D, p) and k,
# as (case label, value) rows in BOUND_IDS order.


def _prop21(n, m, d, D, p, k):
    c = comb(n - 1, k - 1)
    upper = ("", Fraction(2 * m * (n - 1) * c * D ** (k - 1), k))
    if d >= 2:
        return upper, ("min_deg>=2", Fraction(2 * m * (k - 1) * c * d ** (k - 1), k))
    q = max(k - p, 1)
    return upper, ("min_deg=1", k * comb(p, k) + 2**q * (k - 1) * (comb(n, k) - comb(p, k)))


def _lem22(n, m, d, D, p, k):
    c = comb(n - 1, k - 1)
    upper = ("", (n - 1) * Fraction(2 * m, k) ** k * c**k)
    if d >= 2:
        return upper, ("min_deg>=2", 2 * m * (k - 1) * c)
    return upper, ("min_deg=1", (k - 1) * comb(n, k))


def _paired(n, k, d, D, a, abar, cap, s1):
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


def _thm32(n, m, d, D, p, k):
    a, abar = 2 * m, n * (n - 1) - 2 * m
    return _paired(n, k, d, D, a, abar, a * abar, max(D, n - d - 1))


def _cor41(n, m, d, D, p, k):
    cap = (n * (n - 1) // 2) ** 2
    sum_up, prod_up, sum_lo, prod_lo = _paired(
        n, k, d, D, n * d, n * (n - 1 - D), cap, min(D, n - d - 1)
    )
    return sum_up, sum_lo, prod_up, prod_lo


def _branch(n, d, D):
    if D + d < n - 1:
        return d * (n - d - 1), "min+max<n-1"
    if D + d > n - 1:
        return D * (n - D - 1), "min+max>n-1"
    return d * (n - d - 1), "min+max=n-1"


def _ps(n, m, d, D, p, k):
    cnk = comb(n, k)
    base, label = _branch(n, d, D)
    r = Fraction(D * (n - d - 1), d * (n - D - 1))
    upper = Fraction((n - 1) ** (2 * k + 2), 2 ** (2 * k + 2)) * cnk**2 * (r**k + 1 / r**k + 2)
    return ("", upper), (label, (k - 1) ** 2 * base**k * cnk**2)


def _amgm(n, m, d, D, p, k):
    cnk = comb(n, k)
    base, label = _branch(n, d, D)
    factor = 2 * (k - 1) * cnk
    root = isqrt(base)
    if k % 2 == 0:
        lower = factor * base ** (k // 2)
    elif root * root == base:
        lower = factor * root**k
    else:
        lower = SquareRoot(Fraction(factor**2 * base**k))
    return ("", (n - 1) * (D**k + (n - d - 1) ** k) * cnk), (label, lower)


BOUND_FORMULAS = {
    "prop21": _prop21,
    "lem22": _lem22,
    "thm32": _thm32,
    "cor41": _cor41,
    "ps": _ps,
    "amgm": _amgm,
}


def bound_rows(group, signature, k):
    """The printed bounds of ``group`` at ``signature`` and k: (case label,
    value) rows in BOUND_IDS order, each value a Fraction or a SquareRoot."""
    return [
        (case, value if isinstance(value, SquareRoot) else Fraction(value))
        for case, value in BOUND_FORMULAS[group](*signature, k)
    ]
