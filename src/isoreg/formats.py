"""graph6 text format (bit-exact), DOT export and the indented JSON of the
CLI reports."""

from __future__ import annotations

import json

from .graphs import Graph, MAX_VERTICES


class Graph6Error(ValueError):
    pass


# Six body bits, as binary text, to their graph6 character.
_SIXBITS = {format(v, "06b"): chr(63 + v) for v in range(64)}


def encode_graph6(g: Graph) -> str:
    """Standard graph6: size header, then upper triangle packed column-wise.

    Column j is bits 0..j-1 of row j, low bit first: the tail of the row's
    binary text read backwards.  The columns are padded to a multiple of 6
    bits, and each 6 bits become one character.
    """
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        # 18-bit size form covers everything up to the package vertex cap.
        head = chr(126) + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    top = 1 << n
    bits = "".join([bin(r | top)[-1:-1 - j:-1] for j, r in enumerate(g.rows())])
    bits += "0" * (-len(bits) % 6)
    return head + "".join([_SIXBITS[bits[p:p + 6]] for p in range(0, len(bits), 6)])


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string")
    values = []
    for ch in s:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise Graph6Error(f"invalid graph6 character {ch!r}")
        values.append(v)

    if values[0] < 63:
        n = values[0]
        body = values[1:]
    else:
        if len(values) < 4:
            raise Graph6Error("truncated graph6 size header")
        if values[1] == 63:
            raise Graph6Error("8-byte graph6 sizes exceed the vertex cap")
        n = (values[1] << 12) | (values[2] << 6) | values[3]
        body = values[4:]
    if n < 1 or n > MAX_VERTICES:
        raise Graph6Error(f"graph6 order {n} outside 1..{MAX_VERTICES}")

    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise Graph6Error(f"graph6 body length {len(body)}, expected {expected} for n={n}")

    bits = []
    for value in body:
        for k in range(5, -1, -1):
            bits.append((value >> k) & 1)
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits in graph6 body")

    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
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
