"""Shared corpus and independent oracles for the test suite."""

from __future__ import annotations

import pytest

from isoreg import (
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    named_graph,
    path_graph,
    paley,
    triangular,
)


def build_corpus() -> dict[str, Graph]:
    """Every graph the invariant tests sweep; all orders at most 21."""
    corpus = {
        tag: named_graph(tag)
        for tag in (
            "c5",
            "petersen",
            "clebsch",
            "k4xk4",
            "shrikhande-a",
            "shrikhande-b",
            "gq22",
            "t6-complement",
            "t7",
        )
    }
    corpus["paley-13"] = paley(13)
    corpus["paley-17"] = paley(17)
    corpus["paley-5"] = paley(5)
    corpus["triangular-5"] = triangular(5)
    corpus["triangular-6"] = triangular(6)
    corpus["co-petersen"] = complement(corpus["petersen"])
    corpus["co-clebsch"] = complement(corpus["clebsch"])
    corpus["co-k4xk4"] = complement(corpus["k4xk4"])
    corpus["k6"] = complete_graph(6)
    corpus["k4"] = complete_graph(4)
    corpus["3k2"] = disjoint_union(complete_graph(2), complete_graph(2), complete_graph(2))
    corpus["c4"] = cycle_graph(4)
    corpus["c6"] = cycle_graph(6)
    corpus["p4"] = path_graph(4)
    corpus["empty-4"] = empty_graph(4)
    corpus["k33"] = complete_bipartite(3, 3)
    return corpus


@pytest.fixture(scope="session")
def corpus() -> dict[str, Graph]:
    return build_corpus()


def max_clique(g: Graph) -> int:
    """Exhaustive maximum clique by branch and bound on candidate bitmasks."""
    best = 0
    rows = g.rows()

    def extend(size: int, candidates: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while candidates:
            if size + candidates.bit_count() <= best:
                return
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            extend(size + 1, candidates & rows[v])

    extend(0, (1 << g.n) - 1)
    return best


def brute_valency(g: Graph, subset) -> int:
    """Independent subset-valency oracle: plain loop over vertices."""
    count = 0
    members = set(subset)
    for v in range(g.n):
        if v in members:
            continue
        if all(g.adjacent(v, u) for u in members):
            count += 1
    return count


def backtracking_isomorphism(g: Graph, h: Graph):
    """Reference isomorphism test: recursive backtracking that checks each
    candidate pair by pair with ``adjacent``, after degree-based color
    refinement.  Slow and limited by the recursion depth, but simple enough
    to trust; the iterative search in isoreg is compared against it."""
    from isoreg import invariant_fingerprint

    if g.n != h.n:
        return None
    if invariant_fingerprint(g) != invariant_fingerprint(h):
        return None

    def refined_colors(x: Graph) -> list[int]:
        colors = x.degrees()
        for _ in range(x.n):
            signatures = [
                (colors[u], tuple(sorted(colors[v] for v in x.neighbors(u)))) for u in range(x.n)
            ]
            palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
            new = [palette[sig] for sig in signatures]
            if new == colors:
                break
            colors = new
        return colors

    g_colors = refined_colors(g)
    h_colors = refined_colors(h)
    if sorted(g_colors) != sorted(h_colors):
        return None
    class_size: dict[int, int] = {}
    for c in g_colors:
        class_size[c] = class_size.get(c, 0) + 1
    remaining = set(range(g.n))
    start = min(remaining, key=lambda u: (class_size[g_colors[u]], -g.degree(u), u))
    order = [start]
    placed = 1 << start
    remaining.remove(start)
    while remaining:
        nxt = max(remaining, key=lambda u: ((g.row(u) & placed).bit_count(), g.degree(u), -u))
        order.append(nxt)
        placed |= 1 << nxt
        remaining.remove(nxt)

    n = g.n
    mapping = [-1] * n
    used = [False] * n
    h_by_color: dict[int, list[int]] = {}
    for w in range(n):
        h_by_color.setdefault(h_colors[w], []).append(w)

    def extend(idx: int) -> bool:
        if idx == n:
            return True
        u = order[idx]
        for w in h_by_color.get(g_colors[u], ()):
            if used[w]:
                continue
            ok = True
            for j in range(idx):
                v = order[j]
                if g.adjacent(u, v) != h.adjacent(w, mapping[v]):
                    ok = False
                    break
            if ok:
                mapping[u] = w
                used[w] = True
                if extend(idx + 1):
                    return True
                used[w] = False
                mapping[u] = -1
        return False

    return mapping if extend(0) else None
