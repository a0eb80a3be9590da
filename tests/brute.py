"""Slow reference implementations backed by networkx.

Nothing here shares an algorithm with the package under test: Steiner
distances come from literal superset search over networkx subgraphs, the
index oracles re-sum everything from scratch, the canonical key is the
least over every vertex ordering, and a square-root bound is
compared as a Fraction squared, not through the package's scaled integers.
Test-suite use only.
"""

from fractions import Fraction
from itertools import combinations, permutations

import networkx as nx

from steinergut import INF, Graph


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
