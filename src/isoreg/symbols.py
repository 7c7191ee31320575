"""Multicirculant symbols and the graphs they define.

A symbol is the residue-set data of a graph with a semiregular automorphism
rotating each of its r orbits: one symmetric set per orbit (within-orbit
differences) plus one arbitrary set per orbit pair (between-orbit
differences).  One class, ``Symbol``, holds them for r = 1, 2 and 3
(circulants, bicirculants, tricirculants), and one graph builder,
``symbol_graph``, builds them all; ``_LAYOUT`` gives per r the text kind,
the field names and the orbit pair of each connection.  Orbit vertex blocks
are numbered consecutively, lower orbit first, so constructed graphs are
deterministic and suitable for golden files.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .graphs import MAX_VERTICES, Graph, vertices_to_bits


# Layout of an r-orbit symbol, r = len(diagonals): the text kind, the field
# names of the diagonals then the connections, and the orbit pair (x, y) of
# each connection, where x_i ~ y_j iff j - i lies in the connection.
_LAYOUT = {
    1: ("circ", ("S",), ()),
    2: ("bi", ("S", "Sp", "T"), ((0, 1),)),
    3: ("tri", ("S0", "S1", "S2", "T01", "T12", "T20"), ((0, 1), (1, 2), (2, 0))),
}


# Symbol's fields; Symbol validates them in __new__, which a NamedTuple
# class body may not define.
class _SymbolFields(NamedTuple):
    n: int
    diagonals: tuple[frozenset[int], ...]
    connections: tuple[frozenset[int], ...]


class Symbol(_SymbolFields):
    """Residue data of an n-multicirculant on r = 1, 2 or 3 orbits: a
    symmetric diagonal set per orbit and a connection set per orbit pair of
    ``_LAYOUT[r]``.  A bicirculant [S, Sp, T] has diagonals (S, Sp) and
    connections (T,)."""

    __slots__ = ()

    def __new__(cls, n: int, diagonals: Iterable[Iterable[int]],
                connections: Iterable[Iterable[int]] = ()):
        if n < 2:
            raise ValueError("modulus must be at least 2")
        diagonals = tuple([frozenset(v % n for v in s) for s in diagonals])
        connections = tuple([frozenset(v % n for v in t) for t in connections])
        layout = _LAYOUT.get(len(diagonals))
        if layout is None or len(connections) != len(layout[2]):
            raise ValueError(f"no {len(diagonals)}-orbit symbol has {len(connections)} connections")
        for name, s in zip(layout[1], diagonals):
            if 0 in s:
                raise ValueError(f"{name} contains 0")
            bad = {v for v in s if (-v) % n not in s}
            if bad:
                raise ValueError(f"{name} is not closed under negation mod {n}: {sorted(bad)}")
        return tuple.__new__(cls, (n, diagonals, connections))

    @classmethod
    def _make(cls, fields: Iterable) -> "Symbol":
        """Validate, as the constructor does; ``_replace`` builds through here."""
        return cls(*fields)

    # The bicirculant names of the sets.
    s = property(lambda self: self.diagonals[0])
    sp = property(lambda self: self.diagonals[1])
    t = property(lambda self: self.connections[0])

    def s_hat(self) -> frozenset[int]:
        """Complement of S inside the nonzero residues."""
        return frozenset(range(1, self.n)) - self.s

    def complement(self) -> "Symbol":
        """The symbol of the complement graph, on the same labels."""
        full = frozenset(range(self.n))
        return Symbol(self.n, (full - {0} - s for s in self.diagonals),
                      (full - t for t in self.connections))

    def multiply(self, a: int) -> "Symbol":
        if math.gcd(a, self.n) != 1:
            raise ValueError(f"{a} is not invertible mod {self.n}")
        return Symbol(self.n, ({a * v for v in s} for s in self.diagonals),
                      ({a * v for v in t} for t in self.connections))

    def translate(self, c: int) -> "Symbol":
        """The bicirculant [S, Sp, T + c]."""
        (t,) = self.connections
        return Symbol(self.n, self.diagonals, ({v + c for v in t},))

    def swap_orbits(self) -> "Symbol":
        """The bicirculant [Sp, S, -T]."""
        s, sp = self.diagonals
        return Symbol(self.n, (sp, s), ({-v for v in self.t},))

    def key(self) -> tuple:
        return (self.n, *(tuple(sorted(x)) for x in self.diagonals + self.connections))

    def text(self) -> str:
        kind, names, _ = _LAYOUT[len(self.diagonals)]
        sets = self.diagonals + self.connections
        return f"{kind}:n={self.n};" + ";".join(
            f"{name}={','.join(str(v) for v in sorted(x))}" for name, x in zip(names, sets)
        )


def BicirculantSymbol(n: int, s: Iterable[int], sp: Iterable[int], t: Iterable[int]) -> Symbol:
    """The bicirculant symbol [S, Sp, T]."""
    return Symbol(n, (s, sp), (t,))


def TricirculantSymbol(n: int, s0: Iterable[int], s1: Iterable[int], s2: Iterable[int],
                       t01: Iterable[int], t12: Iterable[int], t20: Iterable[int]) -> Symbol:
    """Three diagonal sets and three cyclically oriented connection sets."""
    return Symbol(n, (s0, s1, s2), (t01, t12, t20))


def circulant(n: int, s: Iterable[int]) -> Graph:
    """Circulant graph: u ~ v iff (v - u) mod n lies in the symmetric set s."""
    return symbol_graph(Symbol(n, (s,)))


def negated_mask(mask: int, n: int) -> int:
    """The mask of -T mod n for the mask of T."""
    return vertices_to_bits(-r % n for r in range(n) if mask >> r & 1)


def row_blocks(diagonals: Sequence[int], connections: Sequence[int],
               negated: Sequence[int]) -> list[list[int]]:
    """The row of vertex a_0 of an r-orbit multicirculant, r = len(diagonals),
    as n-bit blocks: bit j of blocks[a][b] is set iff a_0 ~ b_j.  The
    arguments are masks: diagonal a, connection c of ``_LAYOUT[r]`` and
    negated[c], the mask of -connections[c]."""
    r = len(diagonals)
    blocks = [[0] * r for _ in range(r)]
    for a, m in enumerate(diagonals):
        blocks[a][a] = m
    for (x, y), t, neg in zip(_LAYOUT[r][2], connections, negated):
        # x_j ~ y_i iff i - j in T, so y_0 sees x at j = -i.
        blocks[x][y] = t
        blocks[y][x] = neg
    return blocks


def symbol_graph(sym: Symbol) -> Graph:
    """Multicirculant on r * n vertices; orbit a occupies a*n..a*n+n-1.
    Within orbit a, i ~ j iff j - i lies in diagonals[a]; a connection T of
    orbit pair (x, y) means x_i ~ y_j iff j - i lies in T.

    The row of a_0 is ``row_blocks``; the row of a_i is that row with every
    block rotated by i.  An order above ``MAX_VERTICES`` is refused before
    any row is built."""
    n = sym.n
    if len(sym.diagonals) * n > MAX_VERTICES:
        raise ValueError(f"vertex count {len(sym.diagonals) * n} outside 1..{MAX_VERTICES}")
    conns = [vertices_to_bits(t) for t in sym.connections]
    blocks = row_blocks([vertices_to_bits(s) for s in sym.diagonals], conns,
                        [negated_mask(t, n) for t in conns])
    full = (1 << n) - 1
    rows = []
    for row in blocks:
        # Block b doubled, so its rotation by i is a shift by n - i.
        doubled = [(m | m << n, b * n) for b, m in enumerate(row)]
        for i in range(n):
            value = 0
            for m, offset in doubled:
                value |= (m >> (n - i) & full) << offset
            rows.append(value)
    return Graph(len(blocks) * n, rows)


# The bicirculant (u-orbit 0..n-1, w-orbit n..2n-1) and tricirculant names of
# the one builder.
bicirculant = tricirculant = symbol_graph


def parse_symbol(text: str) -> Symbol:
    """Parse ``circ:``/``bi:``/``tri:`` symbol text into a symbol.

    Grammar (residues comma-separated, negatives allowed, empty set allowed):
      circ:n=5;S=1,-1
      bi:n=8;S=1,-1,4;Sp=3,-3,4;T=0,2
      tri:n=5;S0=1,-1;S1=;S2=;T01=0;T12=0;T20=0
    """
    kind, _, body = text.partition(":")
    for r, (layout_kind, names, _) in _LAYOUT.items():
        if layout_kind == kind:
            break
    else:
        raise ValueError(f"unknown symbol kind {kind!r}")
    fields: dict[str, str] = {}
    for part in body.split(";"):
        if not part:
            continue
        key, eq, val = part.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"malformed symbol field {part!r}")
        if key != "n" and key not in names:
            raise ValueError(f"{kind} symbol has no field {key!r}")
        if key in fields:
            raise ValueError(f"field {key!r} given twice")
        fields[key] = val.strip()

    def ints(key: str) -> list[int]:
        if key not in fields:
            raise ValueError(f"symbol text missing field {key}")
        raw = fields[key]
        if not raw:
            return []
        try:
            return [int(tok) for tok in raw.split(",")]
        except ValueError as exc:
            raise ValueError(f"malformed residues in field {key}: {raw!r}") from exc

    try:
        n = int(fields["n"])
    except (KeyError, ValueError) as exc:
        raise ValueError("symbol text missing integer field n") from exc

    sets = [ints(name) for name in names]
    return Symbol(n, sets[:r], sets[r:])
