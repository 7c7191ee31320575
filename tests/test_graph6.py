"""graph6 codec fidelity and DOT export."""

import random

import pytest

from isoreg import Graph, Graph6Error, complete_graph, decode_graph6, encode_graph6, to_dot

from conftest import build_corpus, cycle_graph, reference_encode_graph6


def reference_encode(g: Graph) -> str:
    """Independent re-implementation: collect bits, then pack."""
    assert g.n <= 62
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.adjacent(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = chr(g.n + 63)
    for pos in range(0, len(bits), 6):
        value = 0
        for b in bits[pos : pos + 6]:
            value = value * 2 + b
        out += chr(value + 63)
    return out


def test_known_encodings():
    assert encode_graph6(complete_graph(4)) == "C~"
    assert encode_graph6(cycle_graph(5)) == "Dhc"


def test_round_trip_whole_corpus():
    for name, g in build_corpus().items():
        text = encode_graph6(g)
        assert text == reference_encode(g), name
        assert decode_graph6(text) == g, name


def test_encoder_matches_bit_loop_reference():
    # n <= 62 takes the one-character size header; 63..80 and 200 the
    # four-character one.  Densities cycle from empty to complete.
    rng = random.Random(6)
    for n in [*range(1, 81), 200]:
        p = (0.0, 0.1, 0.5, 0.9, 1.0)[n % 5]
        g = Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
        text = encode_graph6(g)
        assert text == reference_encode_graph6(g), n
        assert decode_graph6(text) == g, n


def test_header_variants():
    g = cycle_graph(5)
    assert decode_graph6(">>graph6<<" + encode_graph6(g)) == g
    # ASCII whitespace around the text is dropped.
    for text in (" Dhc\r\n", ">>graph6<<Dhc\n", "\t\vDhc\f"):
        assert decode_graph6(text) == g, text


def test_single_vertex():
    g = Graph(1, [0])
    assert encode_graph6(g) == "@"
    assert decode_graph6("@") == g


def test_large_order_header():
    g = Graph.from_edges(70, [(i, i + 1) for i in range(69)])
    text = encode_graph6(g)
    assert text.startswith(chr(126))
    assert decode_graph6(text) == g


def test_decode_errors():
    good = encode_graph6(cycle_graph(5))
    with pytest.raises(Graph6Error):
        decode_graph6(good[:-1])  # truncated body
    with pytest.raises(Graph6Error):
        decode_graph6(chr(ord(good[0]) + 1) + good[1:])  # corrupted order byte
    with pytest.raises(Graph6Error):
        decode_graph6(good + "A")  # trailing junk
    with pytest.raises(Graph6Error):
        decode_graph6("D\x1f\x1f")  # characters below offset
    with pytest.raises(Graph6Error):
        decode_graph6("")
    # C5 needs 10 triangle bits; the last two body bits are padding and must
    # be zero: set the final padding bit.
    corrupted = good[:-1] + chr(((ord(good[-1]) - 63) | 1) + 63)
    with pytest.raises(Graph6Error):
        decode_graph6(corrupted)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty graph6 string"),
        (" >>graph6<<\n", "empty graph6 string"),
        ("Dh\x7f", "invalid graph6 character '\\x7f'"),
        ("~\x7f", "invalid graph6 character '\\x7f'"),  # before the header checks
        # Whitespace other than ASCII whitespace is not dropped: str.strip()
        # would drop these, and none is a graph6 character.
        ("Dhc\x1f", "invalid graph6 character '\\x1f'"),
        ("\x1cDhc\x85", "invalid graph6 character '\\x1c'"),
        ("Dhc\u2028", "invalid graph6 character '\\u2028'"),
        ("~??", "truncated graph6 size header"),
        ("~~", "truncated graph6 size header"),  # before the 8-byte check
        ("~~??????", "8-byte graph6 sizes exceed the vertex cap"),
        ("?", "graph6 order 0 outside 1..4096"),
        ("~@?@", "graph6 order 4097 outside 1..4096"),
        ("~@?@~", "graph6 order 4097 outside 1..4096"),  # before the body length
        ("Dh", "graph6 body length 1, expected 2 for n=5"),
        ("Dhcc", "graph6 body length 3, expected 2 for n=5"),
        ("Dhd", "nonzero padding bits in graph6 body"),
        ("Dhe", "nonzero padding bits in graph6 body"),  # the first padding bit
    ],
)
def test_decode_error_texts(text, message):
    # Each error class keeps its text, and the checks keep their order.
    with pytest.raises(Graph6Error) as err:
        decode_graph6(text)
    assert str(err.value) == message


def test_dot_export():
    dot = to_dot(cycle_graph(3), name="triangle")
    assert dot.splitlines()[0] == "graph triangle {"
    assert "  0 -- 1;" in dot
    assert dot.count("--") == 3
