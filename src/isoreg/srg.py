"""Strong regularity: parameter detection, exact eigenvalues, clique bound.

``srg_params`` detects strong regularity on a built graph from all its
vertex pairs.  ``block_srg_params`` gives the same answer for a
multicirculant from its symbol's row blocks alone: rotating every orbit is
an automorphism, so the pairs of one vertex per orbit decide every count.
The searches run it before they build a graph.

All spectral quantities are exact integers or quadratic surds; no floating
point anywhere, so conference graphs and certificate replays stay exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .graphs import Graph, bits_to_vertices


def _squarefree_split(d: int) -> tuple[int, int]:
    """d = root^2 * squarefree; returns (root, squarefree)."""
    root = 1
    rem = d
    f = 2
    while f * f <= rem:
        while rem % (f * f) == 0:
            rem //= f * f
            root *= f
        f += 1
    return root, rem


class Surd:
    """Exact value (a + b*sqrt(d)) / den with d squarefree, b = 0 iff rational."""

    __slots__ = ("a", "b", "d", "den")

    def __init__(self, a: int, b: int = 0, d: int = 0, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("surd with zero denominator")
        if d < 0:
            raise ValueError("negative discriminant")
        if b != 0 and d > 1:
            root, sf = _squarefree_split(d)
            b *= root
            d = sf
        if d == 1:
            # sqrt(1) folds into the rational part.
            a += b
            b = 0
        if b == 0 or d == 0:
            b = 0
            d = 0
        if den < 0:
            a, b, den = -a, -b, -den
        g = math.gcd(math.gcd(abs(a), abs(b)), den)
        if g > 1:
            a //= g
            b //= g
            den //= g
        self.a = a
        self.b = b
        self.d = d
        self.den = den

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Surd":
        return cls(f.numerator, 0, 0, f.denominator)

    def is_rational(self) -> bool:
        return self.b == 0

    def is_integer(self) -> bool:
        return self.b == 0 and self.den == 1

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.a, self.den)

    @staticmethod
    def _coerce(value) -> "Surd":
        if isinstance(value, Surd):
            return value
        if isinstance(value, int):
            return Surd(value)
        if isinstance(value, Fraction):
            return Surd.from_fraction(value)
        raise TypeError(f"cannot combine Surd with {type(value).__name__}")

    def _common_d(self, other: "Surd") -> int:
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d != other.d:
            raise ValueError(f"incompatible radicals sqrt({self.d}) and sqrt({other.d})")
        return self.d

    def __add__(self, other) -> "Surd":
        o = self._coerce(other)
        d = self._common_d(o)
        return Surd(self.a * o.den + o.a * self.den, self.b * o.den + o.b * self.den, d, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b, self.d, self.den)

    def __sub__(self, other) -> "Surd":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Surd":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Surd":
        o = self._coerce(other)
        d = self._common_d(o)
        a = self.a * o.a + self.b * o.b * d
        b = self.a * o.b + self.b * o.a
        return Surd(a, b, d, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Surd":
        o = self._coerce(other)
        norm = o.a * o.a - o.b * o.b * o.d
        if norm == 0:
            raise ZeroDivisionError("division by zero surd")
        conj = Surd(o.a * o.den, -o.b * o.den, o.d, norm)
        return self * conj

    def __rtruediv__(self, other) -> "Surd":
        return self._coerce(other) / self

    def _numerator_sign(self) -> int:
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Opposite signs: compare a^2 against b^2 d (equality impossible,
        # sqrt(d) is irrational here).
        if a * a > b * b * d:
            return (a > 0) - (a < 0)
        return (b > 0) - (b < 0)

    def sign(self) -> int:
        return self._numerator_sign()

    def __eq__(self, other) -> bool:
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return (self.a, self.b, self.d, self.den) == (o.a, o.b, o.d, o.den)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d, self.den))

    def __lt__(self, other) -> bool:
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - self._coerce(other)).sign() >= 0

    def floor(self) -> int:
        if self.b == 0:
            return self.a // self.den
        bb = self.b * self.b * self.d
        if self.b > 0:
            f = math.isqrt(bb)
        else:
            f = -math.isqrt(bb) - 1
        return (self.a + f) // self.den

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a) if self.den == 1 else f"{self.a}/{self.den}"
        b = "" if self.b == 1 else ("-" if self.b == -1 else str(self.b))
        radical = f"{b}sqrt({self.d})"
        core = radical if self.a == 0 else f"{self.a}{'+' if self.b > 0 else ''}{radical}"
        return core if self.den == 1 else f"({core})/{self.den}"

    __repr__ = __str__


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


def verify_identity(p: SrgParams) -> bool:
    """k(k - lambda - 1) = mu(n - 1 - k)."""
    return p.identity_holds()


def complement_params(p: SrgParams) -> SrgParams:
    q = SrgParams(p.n, p.n - p.k - 1, p.n - 2 - 2 * p.k + p.mu, p.n - 2 * p.k + p.lam)
    if q.k < 0 or q.lam < 0 or q.mu < 0:
        raise ValueError(f"complement of {p.as_tuple()} has negative entries: trivial input")
    return q


def eigenvalues(p: SrgParams) -> tuple[Surd, Surd, Surd]:
    """(k, r, s) with r,s = ((lam-mu) +- sqrt((lam-mu)^2 + 4(k-mu)))/2, exact."""
    if not p.is_nontrivial():
        raise ValueError(f"eigenvalues need nontrivial parameters, got {p.as_tuple()}")
    disc = (p.lam - p.mu) ** 2 + 4 * (p.k - p.mu)
    r = Surd(p.lam - p.mu, 1, disc, 2)
    s = Surd(p.lam - p.mu, -1, disc, 2)
    return Surd(p.k), r, s


def hoffman_bound(p: SrgParams) -> Surd:
    """Greatest clique size allowed by the smallest eigenvalue: 1 + k/m."""
    _, _, s = eigenvalues(p)
    m = -s
    if not m.sign() > 0:
        raise ValueError(f"smallest eigenvalue of {p.as_tuple()} is not negative")
    return Surd(1) + Surd(p.k) / m


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
