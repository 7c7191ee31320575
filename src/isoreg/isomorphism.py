"""Graph isomorphism by invariant refinement plus an iterative backtracking
search over bit-row prefix masks.

Exact for every order a ``Graph`` allows.  Strongly regular graphs defeat
plain color refinement, so the fingerprint adds local structure (triangle
counts, neighborhood components), and refinement starts from the number of
4-cliques through each vertex.  Both refinement and search run on the
sparser of a graph and its complement: a bijection is an isomorphism of the
graphs exactly when it is one of their complements.

The search fixes one vertex order of g up front, chosen so that each new
vertex has many neighbors among the vertices already mapped, and records
for each position i the bitmask ``pre[i]`` of the earlier positions that
``order[i]`` is adjacent to.  On the h side it keeps ``seen[w]``, the set of
placed positions whose image is adjacent to w, updated over the neighbors
of an image when it is placed or removed.  A vertex w of the right color is
then a consistent image for position i exactly when it is unused and
``seen[w] == pre[i]``: one integer compare instead of i adjacency lookups.
Candidates for a position with an earlier neighbor are drawn from the
neighbors of that neighbor's image.  The search keeps an explicit candidate
pointer per depth instead of recursing, so no recursion limit bounds the
order.

Graphs are immutable and hashable, so each graph's invariants (fingerprint
and refined colors) are computed once and kept in small bounded caches; a
graph compared against many others pays for them once.  The cached values
are tuples, so no caller can change what another caller gets.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .graphs import Graph, bits_to_vertices

# Deduplication touches the graph under test plus the class representatives
# with equal parameters and fingerprint, so a few dozen entries cover it.
_INVARIANT_CACHE_SIZE = 64


def _neighborhood_components(g: Graph, u: int) -> int:
    rows = g.rows()
    left = rows[u]
    components = 0
    while left:
        components += 1
        frontier = left & -left
        left ^= frontier
        while frontier:
            reach = 0
            for x in bits_to_vertices(frontier):
                reach |= rows[x]
            frontier = reach & left
            left ^= frontier
    return components


@lru_cache(maxsize=_INVARIANT_CACHE_SIZE)
def invariant_fingerprint(g: Graph) -> tuple:
    """Cheap isomorphism invariant; unequal fingerprints mean non-isomorphic."""
    degrees = sorted(g.degrees())
    rows = g.rows()
    triangles = []
    for row in rows:
        t = sum((row & rows[v]).bit_count() for v in bits_to_vertices(row))
        triangles.append(t // 2)
    nbhd_components = sorted(_neighborhood_components(g, u) for u in range(g.n))
    return (g.n, g.edge_count(), tuple(degrees), tuple(sorted(triangles)), tuple(nbhd_components))


def _sparse_rows(g: Graph) -> list[int]:
    """Rows of g, or of its complement when that has fewer edges.

    A bijection maps g onto h exactly when it maps complement onto
    complement, and the choice depends only on (n, edges), which graphs
    with equal fingerprints share.  The sparser side gives shorter
    candidate lists and tighter prefix constraints.
    """
    n = g.n
    rows = list(g.rows())
    if 4 * g.edge_count() > n * (n - 1):
        full = (1 << n) - 1
        rows = [full ^ (1 << u) ^ r for u, r in enumerate(rows)]
    return rows


def _k4_counts(rows: list[int]) -> list[int]:
    """Number of 4-cliques through each vertex: triangles a < b < c in its
    neighborhood.

    On the strongly regular bicirculants the searches find at order 26 it
    separates the two rotation orbits, which color refinement cannot: every
    vertex there has the same degree and the same neighbor colors.
    """
    counts = []
    for rv in rows:
        total = 0
        for a in bits_to_vertices(rv):
            above_a = (rv & rows[a]) >> (a + 1) << (a + 1)
            for b in bits_to_vertices(above_a):
                total += ((above_a & rows[b]) >> (b + 1)).bit_count()
        counts.append(total)
    return counts


@lru_cache(maxsize=_INVARIANT_CACHE_SIZE)
def _refined_colors(g: Graph) -> tuple[int, ...]:
    """Color refinement started from (degree, 4-cliques through the vertex)
    on the sparser of g and its complement."""
    rows = _sparse_rows(g)
    nbrs = [bits_to_vertices(r) for r in rows]
    start = list(zip((r.bit_count() for r in rows), _k4_counts(rows)))
    palette = {sig: i for i, sig in enumerate(sorted(set(start)))}
    colors = [palette[sig] for sig in start]
    for _ in range(g.n):
        signatures = [
            (colors[u], tuple(sorted(colors[v] for v in nbrs[u]))) for u in range(g.n)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new = [palette[sig] for sig in signatures]
        if new == colors:
            break
        colors = new
    return tuple(colors)


def _search_order(rows: list[int], colors: tuple[int, ...]) -> list[int]:
    """Order vertices so each new one has many neighbors among earlier ones."""
    n = len(rows)
    class_size: dict[int, int] = {}
    for c in colors:
        class_size[c] = class_size.get(c, 0) + 1
    degree = [r.bit_count() for r in rows]
    start = min(range(n), key=lambda u: (class_size[colors[u]], -degree[u], u))
    order = [start]
    placed = 1 << start
    remaining = set(range(n))
    remaining.remove(start)
    while remaining:
        nxt = max(remaining, key=lambda u: ((rows[u] & placed).bit_count(), degree[u], -u))
        order.append(nxt)
        placed |= 1 << nxt
        remaining.remove(nxt)
    return order


def is_isomorphic(g: Graph, h: Graph) -> Optional[list[int]]:
    """Return a vertex bijection phi with g(u,v) edge iff h(phi u, phi v), or None."""
    if g.n != h.n:
        return None
    if invariant_fingerprint(g) != invariant_fingerprint(h):
        return None
    g_colors = _refined_colors(g)
    h_colors = _refined_colors(h)
    if sorted(g_colors) != sorted(h_colors):
        return None
    return _match(_sparse_rows(g), g_colors, _sparse_rows(h), h_colors)


def _match(
    g_rows: list[int], g_colors: tuple[int, ...], h_rows: list[int], h_colors: tuple[int, ...]
) -> Optional[list[int]]:
    """Backtracking search for a color- and adjacency-preserving bijection."""
    n = len(g_rows)
    order = _search_order(g_rows, g_colors)
    position = [0] * n
    for i, u in enumerate(order):
        position[u] = i
    # pre[i]: earlier positions adjacent to order[i]; anchor[i]: the latest
    # of them, whose image's neighbors are the only candidates for i.
    pre = []
    for i, u in enumerate(order):
        mask = 0
        for v in bits_to_vertices(g_rows[u]):
            if position[v] < i:
                mask |= 1 << position[v]
        pre.append(mask)
    anchor = [mask.bit_length() - 1 for mask in pre]
    want_color = [g_colors[u] for u in order]

    h_by_color: dict[int, list[int]] = {}
    for w in range(n):
        h_by_color.setdefault(h_colors[w], []).append(w)
    h_nbrs = [bits_to_vertices(row) for row in h_rows]

    seen = [0] * n
    used = [False] * n
    image = [0] * n
    candidates: list = [()] * n
    pointer = [0] * n
    candidates[0] = h_by_color.get(want_color[0], ())
    depth = 0
    while True:
        cands = candidates[depth]
        want = pre[depth]
        color = want_color[depth]
        p = pointer[depth]
        end = len(cands)
        while p < end:
            w = cands[p]
            p += 1
            if seen[w] == want and h_colors[w] == color and not used[w]:
                break
        else:
            # Position exhausted: take back the placement one level up.
            if depth == 0:
                return None
            depth -= 1
            w = image[depth]
            used[w] = False
            bit = 1 << depth
            for x in h_nbrs[w]:
                seen[x] ^= bit
            continue
        pointer[depth] = p
        image[depth] = w
        used[w] = True
        bit = 1 << depth
        for x in h_nbrs[w]:
            seen[x] |= bit
        depth += 1
        if depth == n:
            mapping = [0] * n
            for i, u in enumerate(order):
                mapping[u] = image[i]
            return mapping
        a = anchor[depth]
        candidates[depth] = h_by_color.get(want_color[depth], ()) if a < 0 else h_nbrs[image[a]]
        pointer[depth] = 0
