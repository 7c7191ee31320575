"""Multicirculant symbols and the graphs they define.

A symbol is the residue-set data of a graph with a semiregular automorphism
rotating each orbit: one symmetric set per orbit (within-orbit differences)
plus one arbitrary set per orbit pair (between-orbit differences).  Orbit
vertex blocks are numbered consecutively, lower orbit first, so constructed
graphs are deterministic and suitable for golden files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph


def _reduce(values: Iterable[int], n: int) -> frozenset[int]:
    return frozenset(v % n for v in values)


def _check_symmetric(s: frozenset[int], n: int, name: str) -> None:
    if 0 in s:
        raise ValueError(f"{name} contains 0")
    bad = {v for v in s if (-v) % n not in s}
    if bad:
        raise ValueError(f"{name} is not closed under negation mod {n}: {sorted(bad)}")


@dataclass(frozen=True)
class BicirculantSymbol:
    """Residue triple [S, Sp, T] of an n-bicirculant."""

    n: int
    s: frozenset[int]
    sp: frozenset[int]
    t: frozenset[int]

    def __init__(self, n: int, s: Iterable[int], sp: Iterable[int], t: Iterable[int]):
        if n < 2:
            raise ValueError("modulus must be at least 2")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", _reduce(s, n))
        object.__setattr__(self, "sp", _reduce(sp, n))
        object.__setattr__(self, "t", _reduce(t, n))
        _check_symmetric(self.s, n, "S")
        _check_symmetric(self.sp, n, "Sp")

    def s_hat(self) -> frozenset[int]:
        """Complement of S inside the nonzero residues."""
        return frozenset(range(1, self.n)) - self.s

    def sp_hat(self) -> frozenset[int]:
        return frozenset(range(1, self.n)) - self.sp

    def complement(self) -> "BicirculantSymbol":
        t_c = frozenset(range(self.n)) - self.t
        return BicirculantSymbol(self.n, self.s_hat(), self.sp_hat(), t_c)

    def translate(self, c: int) -> "BicirculantSymbol":
        return BicirculantSymbol(self.n, self.s, self.sp, {v + c for v in self.t})

    def multiply(self, a: int) -> "BicirculantSymbol":
        if math.gcd(a, self.n) != 1:
            raise ValueError(f"{a} is not invertible mod {self.n}")
        return BicirculantSymbol(
            self.n,
            {a * v for v in self.s},
            {a * v for v in self.sp},
            {a * v for v in self.t},
        )

    def swap_orbits(self) -> "BicirculantSymbol":
        return BicirculantSymbol(self.n, self.sp, self.s, {-v for v in self.t})

    def key(self) -> tuple:
        return (self.n, tuple(sorted(self.s)), tuple(sorted(self.sp)), tuple(sorted(self.t)))

    def text(self) -> str:
        def fmt(vals: frozenset[int]) -> str:
            return ",".join(str(v) for v in sorted(vals))

        return f"bi:n={self.n};S={fmt(self.s)};Sp={fmt(self.sp)};T={fmt(self.t)}"


@dataclass(frozen=True)
class TricirculantSymbol:
    """Three diagonal sets and three cyclically oriented connection sets."""

    n: int
    s0: frozenset[int]
    s1: frozenset[int]
    s2: frozenset[int]
    t01: frozenset[int]
    t12: frozenset[int]
    t20: frozenset[int]

    def __init__(
        self,
        n: int,
        s0: Iterable[int],
        s1: Iterable[int],
        s2: Iterable[int],
        t01: Iterable[int],
        t12: Iterable[int],
        t20: Iterable[int],
    ):
        if n < 2:
            raise ValueError("modulus must be at least 2")
        object.__setattr__(self, "n", n)
        for name, vals in (("s0", s0), ("s1", s1), ("s2", s2)):
            object.__setattr__(self, name, _reduce(vals, n))
        for name, vals in (("t01", t01), ("t12", t12), ("t20", t20)):
            object.__setattr__(self, name, _reduce(vals, n))
        _check_symmetric(self.s0, n, "S0")
        _check_symmetric(self.s1, n, "S1")
        _check_symmetric(self.s2, n, "S2")

    def key(self) -> tuple:
        return (
            self.n,
            tuple(sorted(self.s0)),
            tuple(sorted(self.s1)),
            tuple(sorted(self.s2)),
            tuple(sorted(self.t01)),
            tuple(sorted(self.t12)),
            tuple(sorted(self.t20)),
        )

    def text(self) -> str:
        def fmt(vals: frozenset[int]) -> str:
            return ",".join(str(v) for v in sorted(vals))

        return (
            f"tri:n={self.n};S0={fmt(self.s0)};S1={fmt(self.s1)};S2={fmt(self.s2)};"
            f"T01={fmt(self.t01)};T12={fmt(self.t12)};T20={fmt(self.t20)}"
        )


def circulant(n: int, s: Iterable[int]) -> Graph:
    """Circulant graph: u ~ v iff (v - u) mod n lies in the symmetric set s."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    sset = _reduce(s, n)
    _check_symmetric(sset, n, "S")
    return _multicirculant(n, (sset,), {})


def _residue_mask(residues: Iterable[int], n: int) -> int:
    mask = 0
    for r in residues:
        mask |= 1 << (r % n)
    return mask


def _multicirculant(n: int, diagonals, connections: dict) -> Graph:
    """Multicirculant on len(diagonals) * n vertices; orbit a occupies
    a*n..a*n+n-1.  Within orbit a, i ~ j iff j - i lies in diagonals[a];
    connections[(x, y)] = T means x_i ~ y_j iff j - i lies in T.

    The row of a_0 is built block by block; the row of a_i is that row with
    every block rotated by i."""
    full = (1 << n) - 1
    rows = []
    for a, diagonal in enumerate(diagonals):
        blocks = {a: _residue_mask(diagonal, n)}
        for (x, y), t in connections.items():
            if x == a:
                blocks[y] = blocks.get(y, 0) | _residue_mask(t, n)
            elif y == a:
                # x_j ~ y_i iff i - j in T, so y_0 sees x at j = -r.
                blocks[x] = blocks.get(x, 0) | _residue_mask((-r for r in t), n)
        # Block b doubled, so its rotation by i is a shift by n - i.
        doubled = [(m | m << n, b * n) for b, m in blocks.items()]
        for i in range(n):
            row = 0
            for m, offset in doubled:
                row |= (m >> (n - i) & full) << offset
            rows.append(row)
    return Graph(len(diagonals) * n, rows)


def bicirculant(sym: BicirculantSymbol) -> Graph:
    """Bicirculant on 2n vertices; u-orbit is 0..n-1, w-orbit is n..2n-1."""
    return _multicirculant(sym.n, (sym.s, sym.sp), {(0, 1): sym.t})


def tricirculant(sym: TricirculantSymbol) -> Graph:
    """Tricirculant on 3n vertices; orbit a occupies a*n..a*n+n-1."""
    return _multicirculant(
        sym.n, (sym.s0, sym.s1, sym.s2), {(0, 1): sym.t01, (1, 2): sym.t12, (2, 0): sym.t20}
    )


def parse_symbol(text: str):
    """Parse ``circ:``/``bi:``/``tri:`` symbol text into a symbol or circulant spec.

    Grammar (residues comma-separated, negatives allowed, empty set allowed):
      circ:n=5;S=1,-1
      bi:n=8;S=1,-1,4;Sp=3,-3,4;T=0,2
      tri:n=5;S0=1,-1;S1=;S2=;T01=0;T12=0;T20=0
    """
    kind, _, body = text.partition(":")
    fields: dict[str, str] = {}
    for part in body.split(";"):
        if not part:
            continue
        key, eq, val = part.partition("=")
        if not eq:
            raise ValueError(f"malformed symbol field {part!r}")
        fields[key.strip()] = val.strip()

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

    if kind == "circ":
        return ("circ", n, frozenset(v % n for v in ints("S")))
    if kind == "bi":
        return BicirculantSymbol(n, ints("S"), ints("Sp"), ints("T"))
    if kind == "tri":
        return TricirculantSymbol(
            n, ints("S0"), ints("S1"), ints("S2"), ints("T01"), ints("T12"), ints("T20")
        )
    raise ValueError(f"unknown symbol kind {kind!r}")


def symbol_graph(sym) -> Graph:
    if isinstance(sym, BicirculantSymbol):
        return bicirculant(sym)
    if isinstance(sym, TricirculantSymbol):
        return tricirculant(sym)
    if isinstance(sym, tuple) and sym and sym[0] == "circ":
        return circulant(sym[1], sym[2])
    raise TypeError(f"not a symbol: {sym!r}")
