"""Immutable bit-matrix graphs and elementary graph transforms.

Adjacency is stored one Python int per vertex, bit v of ``row(u)`` set iff
u ~ v.  Neighborhood intersections are single ``&`` operations and counting
is ``int.bit_count()``, which keeps every check in this package exact and
fast enough for exhaustive runs at desk scale.

The constructor validates its rows: row range and loops first, one pass over
the rows, then symmetry.  Symmetry is checked bit-parallel, without a loop
over vertex pairs: the rows are packed into one integer with row stride p,
the next power of two at least max(n, 8), and the packed matrix is
transposed by log2(p) delta swaps, each a few shifts, ``^`` and ``&`` on
p*p-bit integers.  The rows are symmetric iff the transpose equals the
packed matrix; otherwise the lowest set bit of their XOR names the first
asymmetric pair (u, v), u < v, in row-major order.  That is O(log p)
interpreter steps, each linear in p*p bits, in place of n(n-1)/2 steps of a
pair loop.  The swap masks are built once per p by doubling, in
O(p*p log p) bit work, and kept in a small cache; at p = 4096 (the vertex
cap) they take about 23 MB.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

# Bounds the order of every graph built, and so the modulus of every search.
MAX_VERTICES = 4096


class Graph:
    """Undirected simple graph on vertices 0..n-1 with bit-row adjacency.

    Instances are immutable after construction; all operations on them are
    pure functions and safe to share across threads or processes.
    """

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, rows: Sequence[int]):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        if len(rows) != n:
            raise ValueError("row count does not match vertex count")
        mask = (1 << n) - 1
        for u, row in enumerate(rows):
            if row & ~mask:
                raise ValueError(f"row {u} has bits outside 0..{n - 1}")
            if (row >> u) & 1:
                raise ValueError(f"loop at vertex {u}")
        # Bit v of row u lands at u*p + v; rows n..p-1 are the zero high bytes.
        p = max(8, 1 << (n - 1).bit_length())
        packed = int.from_bytes(b"".join([row.to_bytes(p // 8, "little") for row in rows]), "little")
        t = packed
        for shift, swap in _transpose_swaps(p):
            x = (t ^ (t >> shift)) & swap
            t ^= x ^ (x << shift)
        if t != packed:
            # The XOR is symmetric with a zero diagonal, so its lowest bit
            # u*p + v has u < v and is the first asymmetric pair.
            diff = t ^ packed
            u, v = divmod((diff & -diff).bit_length() - 1, p)
            raise ValueError(f"adjacency not symmetric at ({u},{v})")
        self.n = n
        self._rows = tuple(rows)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    def row(self, u: int) -> int:
        return self._rows[u]

    def rows(self) -> tuple[int, ...]:
        return self._rows

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self._rows[u] >> v) & 1)

    def degree(self, u: int) -> int:
        return self._rows[u].bit_count()

    def neighbors(self, u: int) -> list[int]:
        return bits_to_vertices(self._rows[u])

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self._rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits_to_vertices(self._rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def is_regular(self) -> bool:
        d = self._rows[0].bit_count()
        return all(r.bit_count() == d for r in self._rows)

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; vertex i of the result is vertices[i]."""
        if not vertices:
            raise ValueError("induced subgraph needs at least one vertex")
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertices")
        rows = [0] * len(vertices)
        for i, v in enumerate(vertices):
            row = self._rows[v]
            for w, j in index.items():
                if (row >> w) & 1:
                    rows[i] |= 1 << j
        return Graph(len(vertices), rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def _tile(pattern: int, stride: int, copies: int) -> int:
    """pattern repeated copies times (a power of two), stride bits apart."""
    while copies > 1:
        pattern |= pattern << stride
        stride *= 2
        copies //= 2
    return pattern


@lru_cache(maxsize=4)
def _transpose_swaps(p: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each delta swap that transposes a p x p bit matrix
    stored row-major with stride p (p a power of two).  Swap j moves every
    bit with row bit j clear and column bit j set to the mirror place j
    rows down and j columns left, j*(p-1) bits higher, and back; the mask
    marks the lower bit of each exchanged pair."""
    swaps = []
    j = p // 2
    while j:
        columns = _tile(((1 << j) - 1) << j, 2 * j, p // (2 * j))
        swaps.append((j * (p - 1), _tile(_tile(columns, p, j), 2 * j * p, p // (2 * j))))
        j //= 2
    return tuple(swaps)


def bits_to_vertices(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def vertices_to_bits(vertices: Iterable[int]) -> int:
    bits = 0
    for v in vertices:
        bits |= 1 << v
    return bits


def complement(g: Graph) -> Graph:
    """Complement graph: adjacency negated off the diagonal."""
    mask = (1 << g.n) - 1
    rows = [(~g.row(u)) & mask & ~(1 << u) for u in range(g.n)]
    return Graph(g.n, rows)


def line_graph(g: Graph) -> Graph:
    """Line graph: vertices are the edges of g in lexicographic order."""
    edge_list = list(g.edges())
    incident = [0] * g.n
    for i, (a, b) in enumerate(edge_list):
        incident[a] |= 1 << i
        incident[b] |= 1 << i
    return Graph(len(edge_list), [(incident[a] | incident[b]) & ~(1 << i)
                                  for i, (a, b) in enumerate(edge_list)])


def complete_graph(n: int) -> Graph:
    mask = (1 << n) - 1
    return Graph(n, [mask & ~(1 << u) for u in range(n)])
