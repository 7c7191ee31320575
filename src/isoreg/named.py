"""Paley, triangular and GQ(2,2) voltage-cover constructions, and the
named-graph registry, which gives each named bicirculant by its symbol."""

from __future__ import annotations

from .graphs import MAX_VERTICES, Graph, complement, complete_graph, line_graph
from .symbols import BicirculantSymbol, bicirculant, circulant


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def paley(p: int) -> Graph:
    """Paley graph on Z_p: x ~ y iff x - y is a nonzero quadratic residue.
    A p above ``MAX_VERTICES`` is refused before its primality is tested."""
    if p > MAX_VERTICES:
        raise ValueError(f"vertex count {p} outside 1..{MAX_VERTICES}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 4 != 1:
        raise ValueError(f"{p} is not congruent to 1 mod 4")
    residues = {(x * x) % p for x in range(1, p)}
    return circulant(p, residues)


def triangular(m: int) -> Graph:
    """Triangular graph T(m) = L(K_m): 2-subsets of {1..m}, adjacent iff intersecting."""
    if m < 3:
        raise ValueError("triangular graph needs m >= 3")
    return line_graph(complete_graph(m))


# PG(1,4) block order used for gq22 vertex numbering: infinity, 0, 1, w, w^2.
_GQ22_BLOCKS = ("inf", "0", "1", "w", "w2")


def _tau(k: int) -> dict[int, int]:
    # Reflection of Z3 fixing k and swapping k-1, k+1.
    return {k % 3: k % 3, (k - 1) % 3: (k + 1) % 3, (k + 1) % 3: (k - 1) % 3}


def gq22_vertex(block: str, i: int) -> int:
    """Vertex index of fibre point (block, i), block in inf,0,1,w,w2."""
    return 3 * _GQ22_BLOCKS.index(block) + i % 3


def gq22_voltage() -> Graph:
    """Point graph of GQ(2,2) as a 3-fold voltage cover of K5 plus fibre triangles.

    Base K5 on PG(1,4) = {inf, 0, 1, w, w^2} over GF(4) with 1 + w = w^2.
    Edges at block inf carry the identity; the edge from block 0 to block w^e
    carries the reflection tau_e of Z3 (fixing e, swapping e-1 and e+1); the
    edge between blocks w^i and w^j carries tau_k where w^k = w^i + w^j.
    Verified against complement(triangular(6)) by isomorphism.
    """
    # w^i + w^j = w^k over GF(4): nonzero elements indexed by exponent.
    field_sum = {(0, 1): 2, (0, 2): 1, (1, 2): 0}
    voltages: dict[tuple[str, str], dict[int, int]] = {}
    identity = {0: 0, 1: 1, 2: 2}
    for b in _GQ22_BLOCKS[1:]:
        voltages[("inf", b)] = identity
    for e in range(3):
        voltages[("0", _GQ22_BLOCKS[2 + e])] = _tau(e)
    for (i, j), k in field_sum.items():
        voltages[(_GQ22_BLOCKS[2 + i], _GQ22_BLOCKS[2 + j])] = _tau(k)

    edges = [(gq22_vertex(b, i), gq22_vertex(b, i + 1)) for b in _GQ22_BLOCKS for i in range(3)]
    for (x, y), sigma in voltages.items():
        for i in range(3):
            edges.append((gq22_vertex(x, i), gq22_vertex(y, sigma[i])))
    return Graph.from_edges(15, edges)


_REGISTRY = {
    "c5": lambda: circulant(5, {1, 4}),
    "petersen": lambda: bicirculant(BicirculantSymbol(5, {1, -1}, {2, -2}, {0})),
    "clebsch": lambda: bicirculant(BicirculantSymbol(8, {1, -1, 4}, {3, -3, 4}, {0, 2})),
    "k4xk4": lambda: bicirculant(BicirculantSymbol(8, {1, -1}, {3, -3}, {0, 1, 3, 4})),
    "shrikhande-a": lambda: bicirculant(BicirculantSymbol(8, {1, -1}, {3, -3}, {0, 1, -1, 4})),
    "shrikhande-b": lambda: bicirculant(
        BicirculantSymbol(8, {1, -1, 2, -2}, {2, -2, 3, -3}, {1, 3})),
    "gq22": gq22_voltage,
    "t6-complement": lambda: complement(triangular(6)),
    "t7": lambda: triangular(7),
}


def named_graph(tag: str) -> Graph:
    """Resolve a registry tag (including ``paley-p``) to its graph."""
    key = tag.lower()
    if key in _REGISTRY:
        return _REGISTRY[key]()
    if key.startswith("paley-"):
        try:
            p = int(key[len("paley-"):])
        except ValueError:
            raise ValueError(f"malformed paley tag {tag!r}") from None
        return paley(p)
    raise ValueError(f"unknown graph tag {tag!r}; known tags: {', '.join(named_tags())}")


def named_tags() -> list[str]:
    return sorted(_REGISTRY) + ["paley-<p>"]
