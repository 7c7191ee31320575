"""Graph isomorphism by invariant refinement plus an iterative backtracking
search over bit-row prefix masks.

Exact for every order a ``Graph`` allows.  Both refinement and search run
on the sparser of a graph and its complement: a bijection is an isomorphism
of the graphs exactly when it is one of their complements, and the choice
depends only on (n, edges).  Strongly regular graphs defeat plain color
refinement, so refinement starts from each vertex's degree and number of
4-cliques through it.

Each graph is prepared once: ``_prepared(g)`` caches its sparse-side rows
and neighbor lists, its sorted start signatures and the colors refinement
settles on, and the fingerprint is (n, edges, sorted start signatures,
sorted colors).  Every step is equivariant, so isomorphic graphs have equal
fingerprints, and an isomorphism maps each vertex to one of the same color.

``is_isomorphic(g, h)`` orders the second graph, the class representative
in deduplication, so its cached ``_plan(h)`` serves every graph compared
with it.  The plan fixes a vertex order of h, chosen so that each new
vertex has many neighbors among the vertices already mapped, and records
for each position i the bitmask ``pre[i]`` of the earlier positions that
``order[i]`` is adjacent to.  The search maps h into g.  On the g side it
keeps ``seen[w]``, the set of placed positions whose image is adjacent to
w, updated over g's neighbor lists when an image is placed or removed.  A vertex w of the right color is
then a consistent image for position i exactly when it is unused and
``seen[w] == pre[i]``: one integer compare instead of i adjacency lookups.
Candidates for a position with an earlier neighbor are drawn from the
neighbors of that neighbor's image.  The search keeps an explicit candidate
pointer per depth instead of recursing, so no recursion limit bounds the
order.  It finds a map from h onto g and returns the inverse, g onto h.

Both caches are bounded and keyed by the (immutable, hashable) graph; the
cached values are tuples, so no caller can change what another one gets.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .graphs import Graph, bits_to_vertices

# Deduplication touches the graph under test plus the class representatives
# with equal parameters and fingerprint, so a few dozen prepared graphs
# cover it, and a few dozen search plans, one per representative.
_INVARIANT_CACHE_SIZE = 64


def _k4_counts(rows: tuple[int, ...], nbrs: tuple[tuple[int, ...], ...]) -> list[int]:
    """Number of 4-cliques through each vertex.  Each clique v < a < b < c is
    found once, from v, and credited to all four of its vertices.

    On the strongly regular bicirculants the searches find at order 26 it
    separates the two rotation orbits, which color refinement cannot: every
    vertex there has the same degree and the same neighbor colors.
    """
    counts = [0] * len(rows)
    for v, (rv, nv) in enumerate(zip(rows, nbrs)):
        for a in nv:
            # For a > v, b walks the common neighbors above a; then y holds the c > b.
            x = (rv & rows[a]) >> (a + 1) << (a + 1) if a > v else 0
            while x:
                low = x & -x
                x ^= low
                b = low.bit_length() - 1
                y = x & rows[b]
                found = y.bit_count()
                counts[v] += found
                counts[a] += found
                counts[b] += found
                while y:
                    c = y & -y
                    y ^= c
                    counts[c.bit_length() - 1] += 1
    return counts


@lru_cache(maxsize=_INVARIANT_CACHE_SIZE)
def _prepared(g: Graph) -> tuple:
    """(rows, neighbor lists, sorted start signatures, refined colors) on the
    sparser of g and its complement, which gives shorter candidate lists and
    tighter prefix constraints.  A start signature is (degree, 4-cliques
    through the vertex), and refinement from them settles on the colors."""
    n = g.n
    rows = g.rows()
    if 4 * g.edge_count() > n * (n - 1):
        full = (1 << n) - 1
        rows = tuple(full ^ (1 << u) ^ r for u, r in enumerate(rows))
    nbrs = tuple(tuple(bits_to_vertices(r)) for r in rows)
    start = list(zip((r.bit_count() for r in rows), _k4_counts(rows, nbrs)))
    palette = {sig: i for i, sig in enumerate(sorted(set(start)))}
    colors = [palette[sig] for sig in start]
    for _ in range(n):
        signatures = [(colors[u], tuple(sorted(colors[v] for v in nbrs[u]))) for u in range(n)]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new = [palette[sig] for sig in signatures]
        if new == colors:
            break
        colors = new
    return rows, nbrs, tuple(sorted(start)), tuple(colors)


def invariant_fingerprint(g: Graph) -> tuple:
    """(n, edges, sorted start signatures, sorted refined colors); unequal
    fingerprints mean non-isomorphic.  A color is a palette index, comparable
    across graphs only with equal start signatures: K4xK4 and the Shrikhande
    graph both refine to one color."""
    _, _, start, colors = _prepared(g)
    return (g.n, g.edge_count(), start, tuple(sorted(colors)))


def _search_order(rows: tuple[int, ...], colors: tuple[int, ...]) -> list[int]:
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


@lru_cache(maxsize=_INVARIANT_CACHE_SIZE)
def _plan(h: Graph) -> tuple:
    """(order, pre, anchor, wanted colors) of h for ``_match``: pre[i] is the
    earlier positions adjacent to order[i], and anchor[i] the latest of them,
    whose image's neighbors are the only candidates for i."""
    rows, nbrs, _, colors = _prepared(h)
    order = _search_order(rows, colors)
    position = [0] * h.n
    for i, u in enumerate(order):
        position[u] = i
    pre = []
    for i, u in enumerate(order):
        mask = 0
        for v in nbrs[u]:
            if position[v] < i:
                mask |= 1 << position[v]
        pre.append(mask)
    anchor = tuple(mask.bit_length() - 1 for mask in pre)
    return tuple(order), tuple(pre), anchor, tuple(colors[u] for u in order)


def is_isomorphic(g: Graph, h: Graph) -> Optional[list[int]]:
    """Return a vertex bijection phi with g(u,v) edge iff h(phi u, phi v), or
    None.  The search plan is cached on h: pass the graph compared most often."""
    if g.n != h.n or invariant_fingerprint(g) != invariant_fingerprint(h):
        return None
    _, g_nbrs, _, g_colors = _prepared(g)
    return _match(_plan(h), g_nbrs, g_colors)


def _match(plan: tuple, g_nbrs: tuple, g_colors: tuple[int, ...]) -> Optional[list[int]]:
    """Backtracking search for a color- and adjacency-preserving bijection
    from the planned graph onto g; returns its inverse, from g back."""
    order, pre, anchor, want_color = plan
    n = len(order)
    g_by_color: dict[int, list[int]] = {}
    for w in range(n):
        g_by_color.setdefault(g_colors[w], []).append(w)

    seen = [0] * n
    used = [False] * n
    image = [0] * n
    candidates: list = [()] * n
    pointer = [0] * n
    candidates[0] = g_by_color.get(want_color[0], ())
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
            if seen[w] == want and g_colors[w] == color and not used[w]:
                break
        else:
            # Position exhausted: take back the placement one level up.
            if depth == 0:
                return None
            depth -= 1
            w = image[depth]
            used[w] = False
            bit = 1 << depth
            for x in g_nbrs[w]:
                seen[x] ^= bit
            continue
        pointer[depth] = p
        image[depth] = w
        used[w] = True
        bit = 1 << depth
        for x in g_nbrs[w]:
            seen[x] |= bit
        depth += 1
        if depth == n:
            mapping = [0] * n
            for u, w in zip(order, image):
                mapping[w] = u
            return mapping
        a = anchor[depth]
        candidates[depth] = g_by_color.get(want_color[depth], ()) if a < 0 else g_nbrs[image[a]]
        pointer[depth] = 0
