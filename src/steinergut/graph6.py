"""graph6 text codec for simple graphs on at most 62 vertices.

The payload's bit layout is ``graph.edge_mask``'s: pair (i, j) with i < j at
position j(j-1)/2 + i.  graph6 adds only a header character ``chr(63 + n)``
and the packing: the mask's bits, least significant first, zero padded to a
multiple of six and packed six per character most significant bit first,
every character offset by 63.
"""

from __future__ import annotations

from .errors import MalformedHeader, NonCanonicalPadding, TrailingGarbage
from .graph import MAX_ORDER, Graph, edge_mask, from_edge_mask


def graph6_encode(g: Graph) -> str:
    n = g.n
    width = 6 * ((n * (n - 1) // 2 + 5) // 6)
    # the mask's bits least significant first, as one number: padding at its low end
    payload = int(f"{edge_mask(g):0{width}b}"[::-1], 2)
    chars = [chr(63 + (payload >> s & 63)) for s in range(width - 6, -1, -6)]
    return chr(63 + n) + "".join(chars)


def graph6_decode(text: str) -> Graph:
    if not text:
        raise MalformedHeader("empty graph6 string")
    n = ord(text[0]) - 63
    if not 1 <= n <= MAX_ORDER:
        raise MalformedHeader(f"header byte {text[0]!r} is not an order in 1..{MAX_ORDER}")
    npairs = n * (n - 1) // 2
    expected = 1 + (npairs + 5) // 6
    if len(text) < expected:
        raise MalformedHeader(f"payload truncated: need {expected} characters, got {len(text)}")
    if len(text) > expected:
        raise TrailingGarbage(f"{len(text) - expected} extra characters after payload")
    payload = text[1:]
    for ch in payload:
        if not "?" <= ch <= "~":
            raise TrailingGarbage(f"payload character {ch!r} out of range")
    em = int("0" + "".join(f"{ord(ch) - 63:06b}" for ch in payload)[::-1], 2)
    if em >> npairs:
        raise NonCanonicalPadding("nonzero padding bits")
    return from_edge_mask(n, em)
