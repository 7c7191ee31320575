"""Subset valencies: k-isoregularity, local edge/non-edge parameters,
the t-vertex condition, and the subconstituent characterization.

The valency of a vertex set is the number of vertices adjacent to every
member.  A graph is k-isoregular when, for every j <= k, the valency of a
j-subset depends only on the isomorphism type of its induced subgraph.
Everything here enumerates subsets exhaustively; witnesses are the first
violations in lexicographic scan order so regressions are deterministic.

An induced subgraph on at most four vertices is typed by its sorted degree
sequence, which fixes its isomorphism type at those sizes: ``_TYPES`` maps
each of the 18 sequences to its canonical code and name.

Triples have one kernel, ``_triple_scan``: a bit-row scan that returns the
valency per induced edge count and the first violation.  The search's
``triples_isoregular`` and the j = 3 level of ``is_k_isoregular`` run it;
``iso_profile`` reads the profile that ``is_k_isoregular`` returns.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .graphs import Graph, bits_to_vertices, vertices_to_bits
from .srg import SrgParams, distance_sets, srg_params, subconstituent


class IsoType(NamedTuple):
    """Isomorphism type of a small induced subgraph: (size, canonical code).

    The code is the minimum packed adjacency bit-vector over all orderings
    of the subset, pairs enumerated lexicographically; equal codes mean
    isomorphic induced subgraphs.  On at most four vertices the sorted degree
    sequence fixes the type, so ``_TYPES`` lists the code of each one.
    """

    size: int
    code: int

    @property
    def name(self) -> str:
        return _TYPE_NAMES[self]


# Sorted degree sequence -> (canonical code, name), every graph on 1..4 vertices.
_TYPES: dict[tuple[int, ...], tuple[int, str]] = {
    (0,): (0, "K1"),
    (0, 0): (0, "2K1"),
    (1, 1): (1, "K2"),
    (0, 0, 0): (0, "3K1"),
    (0, 1, 1): (1, "K2+K1"),
    (1, 1, 2): (3, "K1,2"),
    (2, 2, 2): (7, "K3"),
    (0, 0, 0, 0): (0, "4K1"),
    (0, 0, 1, 1): (1, "K2+2K1"),
    (0, 1, 1, 2): (3, "K1,2+K1"),
    (1, 1, 1, 3): (7, "K1,3"),
    (0, 2, 2, 2): (11, "K3+K1"),
    (1, 1, 1, 1): (12, "2K2"),
    (1, 1, 2, 2): (13, "P4"),
    (1, 2, 2, 3): (15, "paw"),
    (2, 2, 2, 2): (30, "C4"),
    (2, 2, 3, 3): (31, "diamond"),
    (3, 3, 3, 3): (63, "K4"),
}
_TYPE_NAMES = {IsoType(len(deg), code): name for deg, (code, name) in _TYPES.items()}
TYPES_BY_SIZE: dict[int, list[IsoType]] = {}
for _t in sorted(_TYPE_NAMES):
    TYPES_BY_SIZE.setdefault(_t.size, []).append(_t)

# Size-3 canonical codes correspond to induced edge counts 0..3.
_CODE_BY_EDGES3 = (0, 1, 3, 7)


def iso_type(g: Graph, subset: Sequence[int]) -> IsoType:
    """Type of the induced subgraph on 1..4 distinct vertices."""
    j = len(subset)
    if not 1 <= j <= 4:
        raise ValueError("iso_type handles subsets of size 1..4 only")
    mask = vertices_to_bits(subset)
    if mask.bit_count() < j:
        raise ValueError("iso_type needs distinct vertices")
    degrees = sorted((g.row(v) & mask).bit_count() for v in subset)
    return IsoType(j, _TYPES[tuple(degrees)][0])


def subset_valency(g: Graph, subset: Sequence[int]) -> int:
    """Number of vertices adjacent to every member of the subset."""
    if not subset:
        raise ValueError("valency of the empty set is undefined")
    mask = (1 << g.n) - 1
    for v in subset:
        mask &= g.row(v)
    mask &= ~vertices_to_bits(subset)
    return mask.bit_count()


class IsoWitness(NamedTuple):
    """Two equally typed subsets with different valencies."""

    type: IsoType
    subset_a: tuple[int, ...]
    valency_a: int
    subset_b: tuple[int, ...]
    valency_b: int

    def to_json(self) -> dict:
        return {**self._asdict(), "type": self.type.name}


class IsoProfile(NamedTuple):
    """Type-to-valency map of a k-isoregular graph; vacuous types report 0."""

    k: int
    valencies: dict[str, int]
    vacuous: frozenset[str]

    def size3(self) -> tuple[int, int, int, int]:
        """Valencies on (K3, K1,2, K2+K1, 3K1)."""
        v = self.valencies
        return (v["K3"], v["K1,2"], v["K2+K1"], v["3K1"])

    def to_json(self) -> dict:
        return {**self._asdict(), "vacuous": sorted(self.vacuous)}


class KIsoregularity(NamedTuple):
    holds: bool
    k: int
    witness: Optional[IsoWitness] = None
    profile: Optional[IsoProfile] = None

    def __bool__(self) -> bool:
        return self.holds


def _triple_scan(g: Graph) -> tuple[Optional[IsoWitness], list[Optional[int]]]:
    """Valency of every triple, in lexicographic order, by bit-row intersection.

    Returns the first violation (the first triple of the violating induced
    edge count paired with the first triple disagreeing with it), or None,
    and the valency seen per induced edge count 0..3 (None while unseen).
    """
    rows = g.rows()
    n = g.n
    vals: list[Optional[int]] = [None, None, None, None]
    first: list = [None, None, None, None]
    for a in range(n):
        ra = rows[a]
        for b in range(a + 1, n):
            rb = rows[b]
            rab = ra & rb
            eab = (ra >> b) & 1
            for c in range(b + 1, n):
                rc = rows[c]
                e = eab + ((ra >> c) & 1) + ((rb >> c) & 1)
                # rab & rc cannot contain a, b or c: rows carry no loops.
                val = (rab & rc).bit_count()
                if vals[e] is None:
                    vals[e] = val
                    first[e] = (a, b, c)
                elif vals[e] != val:
                    witness = IsoWitness(
                        IsoType(3, _CODE_BY_EDGES3[e]), first[e], vals[e], (a, b, c), val
                    )
                    return witness, vals
    return None, vals


def triples_isoregular(g: Graph) -> Optional[tuple[int, int, int, int]]:
    """The valencies on (K3, K1,2, K2+K1, 3K1), as ``IsoProfile.size3``
    orders them, absent types as 0, when each type's triples share one
    valency; else None.  With strong regularity this is 3-isoregularity."""
    witness, vals = _triple_scan(g)
    return None if witness is not None else tuple(v or 0 for v in reversed(vals))


def _valencies(g: Graph, k: int) -> tuple[Optional[IsoWitness], dict[IsoType, int]]:
    """One lexicographic pass over the subsets of size 1..k.

    Returns the first violation, or None, and the valency of every type of
    the sizes completed before it.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError("k must be between 1 and 4")
    valencies: dict[IsoType, int] = {}
    for j in range(1, k + 1):
        if j == 3:
            witness, vals = _triple_scan(g)
            if witness is not None:
                return witness, valencies
            for e, val in enumerate(vals):
                if val is not None:
                    valencies[IsoType(3, _CODE_BY_EDGES3[e])] = val
            continue
        first: dict[IsoType, tuple[tuple[int, ...], int]] = {}
        for subset in combinations(range(g.n), j):
            typ = iso_type(g, subset)
            valency = subset_valency(g, subset)
            seen = first.setdefault(typ, (subset, valency))
            if seen[1] != valency:
                return IsoWitness(typ, seen[0], seen[1], subset, valency), valencies
        for typ, (_, valency) in first.items():
            valencies[typ] = valency
    return None, valencies


def is_k_isoregular(g: Graph, k: int) -> KIsoregularity:
    """Exhaustive check over all subsets of size <= k, k in 1..4, with the
    profile when it holds.

    On failure the witness pairs the first subset of the violating type
    (in lexicographic order) with the first subset disagreeing with it.
    """
    witness, seen = _valencies(g, k)
    if witness is not None:
        return KIsoregularity(False, k, witness)
    valencies: dict[str, int] = {}
    vacuous: set[str] = set()
    for j in range(1, k + 1):
        for t in TYPES_BY_SIZE[j]:
            valencies[t.name] = seen.get(t, 0)
            if t not in seen:
                vacuous.add(t.name)
    return KIsoregularity(True, k, None, IsoProfile(k, valencies, frozenset(vacuous)))


def iso_profile(g: Graph, k: int) -> Optional[IsoProfile]:
    """The profile when g is k-isoregular; None otherwise."""
    return is_k_isoregular(g, k).profile


class EdgeLocalParams(NamedTuple):
    """Valencies (Q, R, W) of triples through a 3-isoregular edge."""

    q: int
    r: int
    w: int
    vacuous: frozenset[str] = frozenset()

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.q, self.r, self.w)

    def to_json(self) -> dict:
        return {"Q": self.q, "R": self.r, "W": self.w, "vacuous": sorted(self.vacuous)}


class NonEdgeLocalParams(NamedTuple):
    """Valencies (R', W', V) of triples through a 3-isoregular non-edge."""

    rp: int
    wp: int
    v: int
    vacuous: frozenset[str] = frozenset()

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.rp, self.wp, self.v)

    def to_json(self) -> dict:
        return {"Rp": self.rp, "Wp": self.wp, "V": self.v, "vacuous": sorted(self.vacuous)}


def _pair_params(cls, names: tuple[str, str, str], g: Graph, x: int, y: int):
    """Triple valencies through the pair, bucketed by the adjacency of the
    third vertex z to {x, y}: both, exactly one, neither.  Returns cls(the
    three bucket values, vacuous bucket names), or None if a bucket is
    inconsistent; an empty bucket reports 0 and is named vacuous."""
    values: list[Optional[int]] = [None, None, None]
    rx, ry = g.row(x), g.row(y)
    common = rx & ry
    for z in range(g.n):
        if z == x or z == y:
            continue
        bucket = 2 - ((rx >> z) & 1) - ((ry >> z) & 1)
        valency = (common & g.row(z) & ~(1 << z)).bit_count()
        if values[bucket] is None:
            values[bucket] = valency
        elif values[bucket] != valency:
            return None
    vacuous = frozenset(name for name, val in zip(names, values) if val is None)
    return cls(*(val or 0 for val in values), vacuous)


def edge_iso_params(g: Graph, x: int, y: int) -> Optional[EdgeLocalParams]:
    """(Q, R, W) if the edge (x, y) is 3-isoregular, else None."""
    if x == y or not g.adjacent(x, y):
        raise ValueError(f"({x},{y}) is not an edge")
    return _pair_params(EdgeLocalParams, ("K3", "K1,2", "K2+K1"), g, x, y)


def nonedge_iso_params(g: Graph, x: int, z: int) -> Optional[NonEdgeLocalParams]:
    """(R', W', V) if the non-edge (x, z) is 3-isoregular, else None."""
    if x == z or g.adjacent(x, z):
        raise ValueError(f"({x},{z}) is not a non-edge of distinct vertices")
    return _pair_params(NonEdgeLocalParams, ("K1,2", "K2+K1", "3K1"), g, x, z)


class LocalReport(NamedTuple):
    """Witnesses for local 3-isoregularity at a vertex."""

    x: int
    edge: Optional[tuple[int, EdgeLocalParams]]
    nonedge: Optional[tuple[int, NonEdgeLocalParams]]

    @property
    def holds(self) -> bool:
        return self.edge is not None and self.nonedge is not None

    def __bool__(self) -> bool:
        return self.holds

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "locally_3isoregular": self.holds,
            "edge": None if self.edge is None else {"y": self.edge[0], **self.edge[1].to_json()},
            "nonedge": None
            if self.nonedge is None
            else {"z": self.nonedge[0], **self.nonedge[1].to_json()},
        }


def is_locally_3isoregular_at(g: Graph, x: int) -> LocalReport:
    """Locally 3-isoregular at x: some 3-isoregular edge and non-edge at x."""
    edge = None
    for y in g.neighbors(x):
        params = edge_iso_params(g, x, y)
        if params is not None:
            edge = (y, params)
            break
    nonedge = None
    for z in range(g.n):
        if z == x or g.adjacent(x, z):
            continue
        params = nonedge_iso_params(g, x, z)
        if params is not None:
            nonedge = (z, params)
            break
    return LocalReport(x, edge, nonedge)


def is_locally_3isoregular(g: Graph) -> Optional[LocalReport]:
    """First vertex at which g is locally 3-isoregular, or None."""
    for x in range(g.n):
        report = is_locally_3isoregular_at(g, x)
        if report.holds:
            return report
    return None


class DPartition(NamedTuple):
    """Cells D^i_j = (distance-i from x) intersect (distance-j from y)."""

    x: int
    y: int
    d11: tuple[int, ...]
    d12: tuple[int, ...]
    d21: tuple[int, ...]
    d22: tuple[int, ...]

    def sizes(self) -> tuple[int, int, int, int]:
        return (len(self.d11), len(self.d12), len(self.d21), len(self.d22))


def d_partition(g: Graph, x: int, y: int) -> DPartition:
    if x == y:
        raise ValueError("distinct vertices required")
    x1, x2 = distance_sets(g, x)
    y1, y2 = distance_sets(g, y)
    cells = (tuple(bits_to_vertices(a & b)) for a in (x1, x2) for b in (y1, y2))
    return DPartition(x, y, *cells)


def d_partition_expected_sizes(p: SrgParams, adjacent: bool) -> tuple[int, int, int, int]:
    """Cell sizes forced by strong regularity for an edge or non-edge pair."""
    n, k, lam, mu = p.as_tuple()
    if adjacent:
        d11 = lam
        d12 = d21 = k - lam - 1
        d22 = (k - mu) * (k - lam - 1) // mu
    else:
        d11 = mu
        d12 = d21 = k - mu
        d22 = k * (k - lam - 1) // mu - k + mu - 1
    return (d11, d12, d21, d22)


class TVertexWitness(NamedTuple):
    j: int
    pair_class: str
    type: IsoType
    pair_a: tuple[int, ...]
    count_a: int
    pair_b: tuple[int, ...]
    count_b: int

    def to_json(self) -> dict:
        return {**self._asdict(), "type": self.type.name}


class TVertexResult(NamedTuple):
    holds: bool
    t: int
    witness: Optional[TVertexWitness] = None

    def __bool__(self) -> bool:
        return self.holds


def t_vertex_condition(g: Graph, t: int) -> TVertexResult:
    """Counts of typed j-subsets (j <= t) through a pair must depend only on
    the pair being equal, adjacent, or non-adjacent.  Brute force; the
    witness is the first pair, equal pairs (u, u) before u < v in
    lexicographic order, whose counts differ from the first of its class."""
    if t not in (2, 3, 4):
        raise ValueError("t must be 2, 3 or 4")
    n = g.n
    pairs = [(u, u) for u in range(n)] + list(combinations(range(n), 2))
    for j in range(2, t + 1):
        types = TYPES_BY_SIZE[j]
        slot_of = {typ: i for i, typ in enumerate(types)}
        counts = {pair: [0] * len(types) for pair in pairs}
        for subset in combinations(range(n), j):
            slot = slot_of[iso_type(g, subset)]
            for u in subset:
                counts[(u, u)][slot] += 1
            for pair in combinations(subset, 2):
                counts[pair][slot] += 1
        first: dict[str, tuple[tuple[int, int], list[int]]] = {}
        for (u, v), vec in counts.items():
            cls = "equal" if u == v else "adjacent" if g.adjacent(u, v) else "non-adjacent"
            ref_pair, ref_vec = first.setdefault(cls, ((u, v), vec))
            if ref_vec != vec:
                slot = next(i for i, (a, b) in enumerate(zip(ref_vec, vec)) if a != b)
                witness = TVertexWitness(
                    j, cls, types[slot], ref_pair, ref_vec[slot], (u, v), vec[slot]
                )
                return TVertexResult(False, t, witness)
    return TVertexResult(True, t)


def subconstituent_characterization(g: Graph) -> bool:
    """True iff both subconstituents are strongly regular with parameters
    independent of the base vertex; equivalent to 3-isoregularity for
    nontrivial strongly regular graphs."""
    p = srg_params(g)
    if p is None or not p.is_nontrivial():
        raise ValueError("subconstituent characterization needs a nontrivial SRG")
    seen1: Optional[SrgParams] = None
    seen2: Optional[SrgParams] = None
    for v in range(g.n):
        p1 = srg_params(subconstituent(g, v, 1))
        p2 = srg_params(subconstituent(g, v, 2))
        if p1 is None or p2 is None:
            return False
        if seen1 is None:
            seen1, seen2 = p1, p2
        elif p1 != seen1 or p2 != seen2:
            return False
    return True
