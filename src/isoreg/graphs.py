"""Immutable bit-matrix graphs and elementary graph transforms.

Adjacency is stored one Python int per vertex, bit v of ``row(u)`` set iff
u ~ v.  Neighborhood intersections are single ``&`` operations and counting
is ``int.bit_count()``, which keeps every check in this package exact and
fast enough for exhaustive runs at desk scale.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

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
        for u in range(n):
            for v in range(u + 1, n):
                if ((rows[u] >> v) & 1) != ((rows[v] >> u) & 1):
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

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self._rows]

    def neighbors(self, u: int) -> list[int]:
        return bits_to_vertices(self._rows[u])

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self._rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self._rows[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    yield (u, v)
                row >>= 1
                v += 1

    def vertices(self) -> range:
        return range(self.n)

    def is_regular(self) -> bool:
        d = self._rows[0].bit_count()
        return all(r.bit_count() == d for r in self._rows)

    def is_connected(self) -> bool:
        seen = 1
        frontier = 1
        full = (1 << self.n) - 1
        while frontier:
            nxt = 0
            for u in bits_to_vertices(frontier):
                nxt |= self._rows[u]
            frontier = nxt & ~seen
            seen |= frontier
            if seen == full:
                return True
        return seen == full

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
    m = len(edge_list)
    rows = [0] * m
    for i in range(m):
        a, b = edge_list[i]
        for j in range(i + 1, m):
            c, d = edge_list[j]
            if a == c or a == d or b == c or b == d:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(m, rows)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product; vertex (i, j) of the factors becomes i*h.n + j."""
    n = g.n * h.n
    rows = [0] * n
    for i in range(g.n):
        for j in range(h.n):
            u = i * h.n + j
            row = 0
            for jj in h.neighbors(j):
                row |= 1 << (i * h.n + jj)
            for ii in g.neighbors(i):
                row |= 1 << (ii * h.n + j)
            rows[u] = row
    return Graph(n, rows)


def disjoint_union(*graphs: Graph) -> Graph:
    n = sum(g.n for g in graphs)
    rows: list[int] = []
    offset = 0
    for g in graphs:
        rows.extend(r << offset for r in g.rows())
        offset += g.n
    return Graph(n, rows)


def complete_graph(n: int) -> Graph:
    mask = (1 << n) - 1
    return Graph(n, [mask & ~(1 << u) for u in range(n)])


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
