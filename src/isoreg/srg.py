"""Strong regularity: parameter detection, exact eigenvalues, clique bound.

``srg_params`` detects strong regularity on a built graph from all its
vertex pairs.  ``block_srg_params`` gives the same answer for a
multicirculant from its symbol's row blocks alone: rotating every orbit is
an automorphism, so the pairs of one vertex per orbit decide every count.
The searches run it before they build a graph.

``eigenvalues`` and ``hoffman_bound`` print the spectrum and the clique
bound exactly, from closed forms in (n, k, lambda, mu), as integers,
fractions or quadratic surds; nothing is floating point.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional, Sequence

from .graphs import Graph, bits_to_vertices


def _surd_text(a: int, b: int, d: int, den: int) -> str:
    """(a + b*sqrt(d))/den in lowest terms, for d >= 1 and den >= 1: the
    square part of d moves into b, and sqrt(1) folds into a."""
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            b *= f
        f += 1
    if d == 1:
        a, b = a + b, 0
    g = math.gcd(a, b, den)
    a, b, den = a // g, b // g, den // g
    if b == 0:
        return str(a) if den == 1 else f"{a}/{den}"
    coef = "" if b == 1 else "-" if b == -1 else str(b)
    radical = f"{coef}sqrt({d})"
    core = radical if a == 0 else f"{a}{'+' if b > 0 else ''}{radical}"
    return core if den == 1 else f"({core})/{den}"


class SrgParams(NamedTuple):
    """Strongly regular graph parameters (n, k, lambda, mu)."""

    n: int
    k: int
    lam: int
    mu: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.lam, self.mu)

    def identity_holds(self) -> bool:
        return self.k * (self.k - self.lam - 1) == self.mu * (self.n - 1 - self.k)

    def is_nontrivial(self) -> bool:
        """Parameter-level test that the graph and its complement are connected."""
        return (
            self.n >= 2
            and 0 < self.mu < self.k < self.n - 1
            and 0 <= self.lam <= self.k - 1
            and self.identity_holds()
        )

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "lambda": self.lam, "mu": self.mu}

    @classmethod
    def from_json(cls, data: dict) -> "SrgParams":
        return cls(data["n"], data["k"], data["lambda"], data["mu"])


def _srg_from_pairs(n: int, k: int, pairs: Iterable[tuple[int, int]]) -> Optional[SrgParams]:
    """SrgParams(n, k, lambda, mu) when the (adjacent, common-neighbor count)
    pairs give one count to every adjacent pair (lambda) and one to every
    non-adjacent pair (mu); None otherwise.  A vacuous count is 0."""
    seen: list[Optional[int]] = [None, None]  # mu, lambda
    for adjacent, c in pairs:
        if seen[adjacent] is None:
            seen[adjacent] = c
        elif seen[adjacent] != c:
            return None
    mu, lam = seen
    return SrgParams(n, k, lam or 0, mu or 0)


def srg_params(g: Graph) -> Optional[SrgParams]:
    """Detect strong regularity by bit-row intersections; None if not SRG.

    Vacuous counts (no edges, or no non-adjacent pairs) report 0, so complete
    and empty graphs come out as trivial parameter sets rather than None;
    is_nontrivial_srg separates those.
    """
    if not g.is_regular():
        return None
    rows = [g.row(u) for u in range(g.n)]
    pairs = ((row_u >> v & 1, (row_u & rows[v]).bit_count())
             for u, row_u in enumerate(rows) for v in range(u + 1, g.n))
    return _srg_from_pairs(g.n, g.degree(0), pairs)


def block_srg_params(n: int, blocks: Sequence[Sequence[int]]) -> Optional[SrgParams]:
    """``srg_params`` of the r-orbit multicirculant whose vertex a_0 has the
    row blocks[a], r = len(blocks), without building the graph: bit j of
    blocks[a][b] is set iff a_0 ~ b_j (``symbols.row_blocks``).

    Rotating every orbit is an automorphism, so every vertex pair is a
    rotation of a pair (a_0, b_j), and b_j's row is blocks[b] with every
    block rotated by j.  The common neighbors of a_0 and b_j are then
    sum_x |blocks[a][x] & rot_j(blocks[b][x])|: O(r^2 n) popcounts in place
    of the graph's O((rn)^2).  The result, None included, equals
    ``srg_params`` of the built graph."""
    degrees = {sum(m.bit_count() for m in row) for row in blocks}
    if len(degrees) != 1:
        return None
    r = len(blocks)
    # Rows packed with stride 2n: packed[a] holds block b at bit 2nb, and
    # doubled[b] holds it twice there, so doubled[b] >> (n - j) holds block b
    # rotated by j at bit 2nb and stray bits only in the upper halves of the
    # strides, where packed[a] is 0.
    packed = [sum(m << (2 * n * b) for b, m in enumerate(row)) for row in blocks]
    doubled = [p | p << n for p in packed]
    # Pairs across orbits first: in the searches' candidates the pairs within
    # an orbit are consistent by construction.  (a_0, a_j) is a rotation of
    # (a_0, a_{n-j}), so j <= n/2 covers an orbit.
    orbits = [(a, b, range(n)) for a in range(r) for b in range(a + 1, r)]
    orbits += [(a, a, range(1, n // 2 + 1)) for a in range(r)]
    pairs = ((blocks[a][b] >> j & 1, (packed[a] & doubled[b] >> (n - j)).bit_count())
             for a, b, js in orbits for j in js)
    return _srg_from_pairs(r * n, degrees.pop(), pairs)


def complement_params(p: SrgParams) -> SrgParams:
    q = SrgParams(p.n, p.n - p.k - 1, p.n - 2 - 2 * p.k + p.mu, p.n - 2 * p.k + p.lam)
    if q.k < 0 or q.lam < 0 or q.mu < 0:
        raise ValueError(f"complement of {p.as_tuple()} has negative entries: trivial input")
    return q


def _discriminant(p: SrgParams) -> tuple[int, int]:
    """(c, D) = (lambda - mu, c^2 + 4(k - mu)): the eigenvalues other than k
    are r, s = (c +- sqrt(D))/2."""
    if not p.is_nontrivial():
        raise ValueError(f"eigenvalues need nontrivial parameters, got {p.as_tuple()}")
    c = p.lam - p.mu
    return c, c * c + 4 * (p.k - p.mu)


def eigenvalues(p: SrgParams) -> tuple[str, str, str]:
    """The exact text of the eigenvalues (k, r, s), r > s."""
    c, disc = _discriminant(p)
    return str(p.k), _surd_text(c, 1, disc, 2), _surd_text(c, -1, disc, 2)


def hoffman_bound(p: SrgParams) -> str:
    """The exact text of 1 + k/(-s), the greatest clique size the smallest
    eigenvalue s allows.  k > mu on a nontrivial set, so D > c^2 and s < 0;
    rationalized, the bound is (2(k - mu) + kc + k sqrt(D)) / (2(k - mu))."""
    c, disc = _discriminant(p)
    return _surd_text(2 * (p.k - p.mu) + p.k * c, p.k, disc, 2 * (p.k - p.mu))


def distance_sets(g: Graph, v: int) -> tuple[int, int]:
    """Bitmasks of vertices at distance exactly 1 and exactly 2 from v."""
    g1 = g.row(v)
    reach = 0
    for u in bits_to_vertices(g1):
        reach |= g.row(u)
    g2 = reach & ~g1 & ~(1 << v)
    return g1, g2


def subconstituent(g: Graph, v: int, i: int) -> Graph:
    """Induced subgraph on vertices at distance exactly i from v, i in {1, 2}."""
    if i not in (1, 2):
        raise ValueError("subconstituent index must be 1 or 2")
    g1, g2 = distance_sets(g, v)
    bits = g1 if i == 1 else g2
    members = bits_to_vertices(bits)
    if not members:
        raise ValueError(f"no vertices at distance {i} from {v}")
    return g.induced(members)


def is_nontrivial_srg(g: Graph) -> bool:
    """Strongly regular with both the graph and its complement connected,
    which for a strongly regular graph is 0 < mu < k < n - 1
    (SrgParams.is_nontrivial)."""
    p = srg_params(g)
    return p is not None and p.is_nontrivial()
