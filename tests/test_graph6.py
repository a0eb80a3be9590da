from itertools import combinations

import networkx as nx
import pytest
from hypothesis import example, given

import brute
from steinergut import (
    MalformedHeader,
    NonCanonicalPadding,
    TrailingGarbage,
    from_edge_list,
    graph6_decode,
    graph6_encode,
)
from strategies import graphs

# the largest order graph6's one-byte header holds, at its densest, its
# sparsest and as a path, with their graph6 strings as networkx writes them
K62 = from_edge_list(62, combinations(range(62), 2))
E62 = from_edge_list(62, [])
P62 = from_edge_list(62, [(i, i + 1) for i in range(61)])
ORDER_62 = [
    (K62, "}" + "~" * 315 + "_"),
    (E62, "}" + "?" * 316),
    (
        P62,
        "}hCGGC@?G?_@?@??_?G?@??C??G??G??C??@???G???_??@???@????_???G???@????C"
        "????G????G????C????@?????G?????_????@?????@??????_?????G?????@??????C"
        "??????G??????G??????C??????@???????G???????_??????@???????@????????_"
        "???????G???????@????????C????????G????????G????????C????????@??????"
        "???G?????????_????????@?????????@??????????_",
    ),
]


def assert_refused(text, error, message):
    """``graph6_decode(text)`` raises exactly ``error``, with ``message``."""
    with pytest.raises(error) as info:
        graph6_decode(text)
    assert type(info.value) is error
    assert str(info.value) == message


def test_known_encodings():
    k2 = from_edge_list(2, [(0, 1)])
    assert graph6_encode(k2) == "A_"
    e2 = from_edge_list(2, [])
    assert graph6_encode(e2) == "A?"
    k1 = from_edge_list(1, [])
    assert graph6_encode(k1) == "@"
    for g, text in ORDER_62:
        assert graph6_encode(g) == text
        assert graph6_decode(text) == g


def test_known_decodings():
    g = graph6_decode("A_")
    assert g.n == 2 and g.m == 1
    g = graph6_decode("Dhc")
    assert g.n == 5 and g.m == 5
    assert sorted(g.degrees) == [2, 2, 2, 2, 2]


@given(graphs(max_n=13))
@example(K62)
@example(E62)
@example(P62)
def test_round_trip(g):
    assert graph6_decode(graph6_encode(g)) == g


@given(graphs(max_n=13))
@example(K62)
@example(E62)
@example(P62)
def test_matches_networkx(g):
    h = brute.to_networkx(g)
    expected = nx.to_graph6_bytes(h, header=False).decode().strip()
    assert graph6_encode(g) == expected
    back = nx.from_graph6_bytes(graph6_encode(g).encode())
    assert nx.is_isomorphic(back, h)
    assert sorted(back.edges()) == sorted(h.edges())


def test_decode_rejects_empty():
    assert_refused("", MalformedHeader, "empty graph6 string")


def test_decode_rejects_bad_order_byte():
    # below and above the offset range of orders 1..62
    assert_refused(">", MalformedHeader, "header byte '>' is not an order in 1..62")
    assert_refused("\x7f", MalformedHeader, "header byte '\\x7f' is not an order in 1..62")


def test_decode_rejects_truncation():
    # order 5 wants two payload characters
    assert_refused("D", MalformedHeader, "payload truncated: need 3 characters, got 1")


def test_decode_rejects_trailing_garbage():
    assert_refused("A_?", TrailingGarbage, "1 extra characters after payload")
    # a payload character below or above the 64 offset values
    assert_refused("A>", TrailingGarbage, "payload character '>' out of range")
    assert_refused("D?\x82", TrailingGarbage, "payload character '\\x82' out of range")


def test_decode_rejects_nonzero_padding():
    # order 2 uses one payload bit; set a padding bit below it
    bad = "A" + chr(63 + 0b100001)
    assert bad == "A`"
    assert_refused(bad, NonCanonicalPadding, "nonzero padding bits")
    # a character out of range is reported before a bad padding bit, whether
    # it holds that bit itself or comes before the character that does
    assert_refused("A" + chr(63 + 64 + 0b000001), TrailingGarbage, "payload character '\\x80' out of range")
    assert_refused("D\x80@", TrailingGarbage, "payload character '\\x80' out of range")
