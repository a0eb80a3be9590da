"""Exact counts of graphs by order and edge count, by Pólya counting.

An oracle for the enumerator that shares no code with it (Harary and Palmer,
*Graphical Enumeration*, 1973):

- ``graphs(n)[m]``, the graphs of order n with m edges up to isomorphism, is
  the cycle index of S_n acting on vertex pairs with each pair cycle of
  length l replaced by 1 + y^l.
- ``connected(n)[m]`` follows by the two-variable inverse Euler transform: a
  graph is a multiset of connected ones, so log G(x, y) = sum over d >= 1 of
  C(x^d, y^d) / d, where G and C count all and connected graphs by x^n y^m.
- ``coconnected(n)[m]``: a graph whose complement is disconnected is itself
  connected, so the co-connected count is c(n, m) - (g(n, M - m) - c(n, M - m))
  with M = n(n - 1)/2.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from typing import Iterator, List, Tuple


def _partitions(n: int, most: int) -> Iterator[Tuple[int, ...]]:
    """The partitions of n into parts of at most ``most``, largest part first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, most), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def _pair_cycles(cycles: Tuple[int, ...]) -> List[int]:
    """The cycle lengths on vertex pairs of a permutation with vertex cycles ``cycles``."""
    lengths = []
    for i, a in enumerate(cycles):
        # pairs inside one cycle: (a - 1)/2 cycles of length a, and for an even
        # a one fewer and a cycle of the a/2 opposite pairs
        lengths += [a] * ((a - 1) // 2)
        if a % 2 == 0:
            lengths.append(a // 2)
        # pairs across two cycles: gcd(a, b) cycles of length lcm(a, b)
        for b in cycles[i + 1 :]:
            lengths += [a * b // gcd(a, b)] * gcd(a, b)
    return lengths


@lru_cache(maxsize=None)
def graphs(n: int) -> Tuple[int, ...]:
    """The graphs of order n up to isomorphism, indexed by edge count."""
    total = [0] * (n * (n - 1) // 2 + 1)
    for cycles in _partitions(n, n):
        # the permutations of this cycle type: n! / (prod of l^c_l c_l!)
        size = factorial(n)
        for length, count in Counter(cycles).items():
            size //= length**count * factorial(count)
        fixed = [1]  # the edge sets each such permutation fixes, by edge count
        for length in _pair_cycles(cycles):
            fixed = [a + b for a, b in zip(fixed + [0] * length, [0] * length + fixed)]
        for m, count in enumerate(fixed):
            total[m] += size * count
    return tuple(count // factorial(n) for count in total)


@lru_cache(maxsize=None)
def _log(n: int) -> Tuple[Fraction, ...]:
    """The coefficient of x^n in log G(x, y), indexed by the power of y.

    From n l_n = n g_n - sum over 1 <= j < n of j l_j g_(n-j), the
    recurrence of the logarithmic derivative, with g_0 = 1.
    """
    acc = [Fraction(n * count) for count in graphs(n)]
    for j in range(1, n):
        for a, la in enumerate(_log(j)):
            for b, gb in enumerate(graphs(n - j)):
                acc[a + b] -= j * la * gb
    return tuple(c / n for c in acc)


@lru_cache(maxsize=None)
def connected(n: int) -> Tuple[int, ...]:
    """The connected graphs of order n up to isomorphism, indexed by edge count.

    The coefficient of x^n y^m in log G is the sum over d dividing both n
    and m of c(n/d, m/d)/d; the d = 1 term is c(n, m).
    """
    out = []
    for m, value in enumerate(_log(n)):
        for d in range(2, n + 1):
            if n % d == 0 and m % d == 0 and m // d < len(connected(n // d)):
                value -= Fraction(connected(n // d)[m // d], d)
        assert value.denominator == 1, (n, m, value)
        out.append(int(value))
    return tuple(out)


def coconnected(n: int) -> Tuple[int, ...]:
    """The graphs of order n whose complement is also connected, up to
    isomorphism, indexed by edge count."""
    g, c = graphs(n), connected(n)
    top = len(g) - 1
    return tuple(c[m] - (g[top - m] - c[top - m]) for m in range(top + 1))
