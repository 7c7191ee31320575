"""graph6 text format (bit-exact), DOT export and the indented JSON of the
CLI reports.  Both graph6 directions read one bit table, `_SIXBITS`, or its
inverse `_BITS`, and take column j as bits 0..j-1 of row j."""

from __future__ import annotations

import json

from .graphs import Graph, MAX_VERTICES, bits_to_vertices


class Graph6Error(ValueError):
    pass


# Six body bits, as binary text, to their graph6 character.
_SIXBITS = {format(v, "06b"): chr(63 + v) for v in range(64)}
_BITS = {ch: bits for bits, ch in _SIXBITS.items()}
_HEADER = ">>graph6<<"
# The whitespace graph6 text may carry around it: ASCII only.
ASCII_SPACE = " \t\n\r\v\f"

# The longest graph6 file: the header, the 4 size and ceil(N(N-1)/12) body
# characters of a MAX_VERTICES graph (1,397,764 together) and a CRLF line end.
MAX_GRAPH6_FILE = len(_HEADER) + 4 + (MAX_VERTICES * (MAX_VERTICES - 1) // 2 + 5) // 6 + 2


def encode_graph6(g: Graph) -> str:
    """Standard graph6: size header, then upper triangle packed column-wise.

    Column j is bits 0..j-1 of row j, low bit first: the tail of the row's
    binary text read backwards.  The columns are padded to a multiple of 6
    bits, and each 6 bits become one character.
    """
    n = g.n
    # The size is 6 bits, or 6 set bits and 18 more (enough for the vertex cap).
    bits = format(n, "06b") if n <= 62 else "111111" + format(n, "018b")
    top = 1 << n
    bits += "".join([bin(r | top)[-1:-1 - j:-1] for j, r in enumerate(g.rows())])
    bits += "0" * (-len(bits) % 6)
    return "".join([_SIXBITS[bits[p:p + 6]] for p in range(0, len(bits), 6)])


def decode_graph6(text: str) -> Graph:
    """The graph of graph6 text, with or without the >>graph6<< header.
    Only ASCII whitespace around it is dropped; any other character outside
    the graph6 alphabet is an error."""
    s = text.strip(ASCII_SPACE).removeprefix(_HEADER)
    if not s:
        raise Graph6Error("empty graph6 string")
    for ch in s:
        if ch not in _BITS:
            raise Graph6Error(f"invalid graph6 character {ch!r}")

    if s[0] != "~":
        n, body = int(_BITS[s[0]], 2), s[1:]
    else:
        if len(s) < 4:
            raise Graph6Error("truncated graph6 size header")
        if s[1] == "~":
            raise Graph6Error("8-byte graph6 sizes exceed the vertex cap")
        n, body = int("".join([_BITS[ch] for ch in s[1:4]]), 2), s[4:]
    if n < 1 or n > MAX_VERTICES:
        raise Graph6Error(f"graph6 order {n} outside 1..{MAX_VERTICES}")

    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise Graph6Error(f"graph6 body length {len(body)}, expected {expected} for n={n}")
    bits = "".join([_BITS[ch] for ch in body])
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits in graph6 body")

    # Column j is row j below the diagonal; each bit is mirrored into its row.
    rows = [0] * n
    for j in range(1, n):
        rows[j] = int(bits[j * (j - 1) // 2:j * (j + 1) // 2][::-1], 2)
        for i in bits_to_vertices(rows[j]):
            rows[i] |= 1 << j
    return Graph(n, rows)


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for u in range(g.n):
        lines.append(f"  {u};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_encode_str = json.encoder.encode_basestring_ascii

# Scalar encoders by exact type, so a bool never takes the int branch.
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def indented_json(obj) -> str:
    """The text ``json.dumps`` gives for obj with sorted keys and a two-space
    indent.

    Dicts need str keys.  Containers are dicts, lists and tuples; str, int,
    bool and None leaves are encoded here and any other leaf (a float, say)
    by ``json.dumps``.  The pieces go to one list that is joined once, which
    is two to three times as fast as ``json``'s own indented encoder, a
    pure-Python one.
    """
    chunks: list[str] = []
    _indented(obj, "\n", chunks.append)
    return "".join(chunks)


def _indented(o, nl: str, append) -> None:
    """Append the text of o; nl is a newline plus the indent of the line
    o starts on."""
    if isinstance(o, dict):
        if not o:
            append("{}")
            return
        inner = nl + "  "
        comma = "," + inner
        sep = "{" + inner
        for key in sorted(o):
            value = o[key]
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                append(f"{sep}{_encode_str(key)}: {scalar(value)}")
            else:
                append(f"{sep}{_encode_str(key)}: ")
                _indented(value, inner, append)
            sep = comma
        append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            append("[]")
            return
        inner = nl + "  "
        comma = "," + inner
        if set(map(type, o)) == {int}:
            append(f"[{inner}{comma.join(map(int.__repr__, o))}{nl}]")
            return
        sep = "[" + inner
        for value in o:
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                append(sep + scalar(value))
            else:
                append(sep)
                _indented(value, inner, append)
            sep = comma
        append(nl + "]")
    else:
        scalar = _SCALARS.get(type(o))
        append(json.dumps(o) if scalar is None else scalar(o))
