"""Slow reference implementations backed by networkx.

Nothing here shares an algorithm with the package under test: Steiner
distances come from literal superset search over networkx subgraphs, and
the index oracles re-sum everything from scratch.  Test-suite use only.
"""

from itertools import combinations

import networkx as nx

from steinergut import INF, Graph


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
