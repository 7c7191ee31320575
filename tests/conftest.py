"""Shared corpus and independent oracles for the test suite."""

from __future__ import annotations

from functools import cache
from itertools import combinations

import pytest

from isoreg import (
    Graph,
    SrgParams,
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


def nontrivial_params(lo, hi):
    """Every nontrivial parameter set with lo <= n <= hi."""
    for n in range(lo, hi + 1):
        for k in range(1, n):
            for lam in range(k):
                # mu is fixed by k(k-lambda-1) = mu(n-1-k), except for k = n-1:
                # the complete graph, which is_nontrivial rejects, as its
                # complement has no edges.
                if k == n - 1:
                    mus = range(1, k) if lam == k - 1 else ()
                else:
                    mus = (k * (k - lam - 1) // (n - 1 - k),)
                for mu in mus:
                    p = SrgParams(n, k, lam, mu)
                    if p.is_nontrivial():
                        yield p


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


def reference_encode_graph6(g: Graph) -> str:
    """Reference graph6 encoder: the size header, then one ``adjacent``
    lookup per bit of the upper triangle, column by column, packed six bits
    to a character."""
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = [chr(126), chr(63 + ((n >> 12) & 63)), chr(63 + ((n >> 6) & 63)), chr(63 + (n & 63))]
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (1 if g.adjacent(i, j) else 0)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def reference_k4_counts(g: Graph) -> list[int]:
    """4-cliques through each vertex, by a plain loop over all 4-subsets."""
    counts = [0] * g.n
    for quad in combinations(range(g.n), 4):
        if all(g.adjacent(u, v) for u, v in combinations(quad, 2)):
            for u in quad:
                counts[u] += 1
    return counts


def _neighborhood_components(g: Graph, u: int) -> int:
    """Connected components of the subgraph induced on u's neighbors."""
    left = set(g.neighbors(u))
    components = 0
    while left:
        components += 1
        frontier = [left.pop()]
        while frontier:
            x = frontier.pop()
            reach = [y for y in left if g.adjacent(x, y)]
            left.difference_update(reach)
            frontier.extend(reach)
    return components


def reference_fingerprint(g: Graph) -> tuple:
    """Isomorphism invariant of the reference test, independent of isoreg's:
    order, edge count, and the sorted degrees, triangles through each vertex
    and components of each neighborhood."""
    triangles = [
        sum(g.adjacent(v, w) for v, w in combinations(g.neighbors(u), 2)) for u in range(g.n)
    ]
    components = [_neighborhood_components(g, u) for u in range(g.n)]
    return (g.n, g.edge_count(), sorted(g.degrees()), sorted(triangles), sorted(components))


def backtracking_isomorphism(g: Graph, h: Graph):
    """Reference isomorphism test: recursive backtracking that checks each
    candidate pair by pair with ``adjacent``, after ``reference_fingerprint``
    and degree-based color refinement.  Slow and limited by the recursion
    depth, but simple enough to trust; the iterative search in isoreg is
    compared against it."""
    if reference_fingerprint(g) != reference_fingerprint(h):
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


def reference_canonical_code(bits) -> int:
    """Reference type code of a j x j adjacency matrix: the minimum packed
    adjacency bit-vector over all j! vertex orderings, pairs enumerated
    lexicographically.  isoreg's degree-sequence table is checked against it."""
    from itertools import combinations, permutations

    j = len(bits)
    pairs = list(combinations(range(j), 2))
    best = None
    for perm in permutations(range(j)):
        code = 0
        for idx, (a, b) in enumerate(pairs):
            if bits[perm[a]][perm[b]]:
                code |= 1 << idx
        if best is None or code < best:
            best = code
    return best or 0


def reference_iso_code(g: Graph, subset) -> int:
    """Reference canonical code of the subgraph induced on subset."""
    return reference_canonical_code([[g.adjacent(u, v) for v in subset] for u in subset])


def labelled_small_graphs():
    """Every labelled graph on 1..4 vertices: 1 + 2 + 8 + 64 = 75 of them."""
    from itertools import combinations

    out = []
    for j in range(1, 5):
        pairs = list(combinations(range(j), 2))
        for m in range(1 << len(pairs)):
            out.append(Graph.from_edges(j, [p for i, p in enumerate(pairs) if m >> i & 1]))
    return out


def reference_valencies(g: Graph, sizes):
    """Reference subset scan with combinations and the permutation canonical
    code, every size included (no triple shortcut): the first violation in
    lexicographic order, or None, and the valency of each type seen before
    it.  isoreg's one-pass kernel is compared against it."""
    from itertools import combinations

    from isoreg import IsoType, subset_valency
    from isoreg.isoregularity import IsoWitness

    valencies = {}
    for j in sizes:
        first = {}
        for subset in combinations(range(g.n), j):
            code = reference_iso_code(g, subset)
            valency = subset_valency(g, subset)
            if code not in first:
                first[code] = (subset, valency)
            elif first[code][1] != valency:
                seen = first[code]
                return IsoWitness(IsoType(j, code), seen[0], seen[1], subset, valency), valencies
        for code, (_, valency) in first.items():
            valencies[IsoType(j, code)] = valency
    return None, valencies


def reference_t_vertex_condition(g: Graph, t: int):
    """Reference t-vertex condition: the count-vector scan that typed
    subsets by the permutation canonical code, with its own size-3 path by
    induced edge count, one equal-pair loop and one pair loop per size."""
    from itertools import combinations

    from isoreg import IsoType
    from isoreg.isoregularity import TVertexResult, TVertexWitness

    def fail(t, j, cls, ref, pair, vec, codes):
        ref_pair, ref_vec = ref
        slot = next(i for i in range(len(codes)) if ref_vec[i] != vec[i])
        witness = TVertexWitness(
            j, cls, IsoType(j, codes[slot]), ref_pair, ref_vec[slot], pair, vec[slot]
        )
        return TVertexResult(False, t, witness)

    if t not in (2, 3, 4):
        raise ValueError("t must be 2, 3 or 4")
    n = g.n
    for j in range(2, t + 1):
        codes = sorted(
            {reference_iso_code(h, range(j)) for h in labelled_small_graphs() if h.n == j}
        )
        code_index = {c: i for i, c in enumerate(codes)}
        eq_counts = [[0] * len(codes) for _ in range(n)]
        pair_counts = {
            (u, v): [0] * len(codes) for u in range(n) for v in range(u + 1, n)
        }
        for subset in combinations(range(n), j):
            if j == 3:
                a, b, c = subset
                code = (0, 1, 3, 7)[g.adjacent(a, b) + g.adjacent(a, c) + g.adjacent(b, c)]
            else:
                code = reference_iso_code(g, subset)
            slot = code_index[code]
            for u in subset:
                eq_counts[u][slot] += 1
            for u, v in combinations(subset, 2):
                pair_counts[(u, v)][slot] += 1

        reference = {"equal": None, "adjacent": None, "non-adjacent": None}
        for u in range(n):
            vec = tuple(eq_counts[u])
            if reference["equal"] is None:
                reference["equal"] = ((u, u), vec)
            elif reference["equal"][1] != vec:
                return fail(t, j, "equal", reference["equal"], (u, u), vec, codes)
        for u in range(n):
            for v in range(u + 1, n):
                cls = "adjacent" if g.adjacent(u, v) else "non-adjacent"
                vec = tuple(pair_counts[(u, v)])
                if reference[cls] is None:
                    reference[cls] = ((u, v), vec)
                elif reference[cls][1] != vec:
                    return fail(t, j, cls, reference[cls], (u, v), vec, codes)
    return TVertexResult(True, t)


def reference_leung_ma_families(m):
    """Reference Leung-Ma table: the closed forms written out entry by entry,
    as the package listed them before one table held them."""
    from isoreg.paramtheory import LeungMaEntry

    if m < 1:
        raise ValueError("family index m must be at least 1")
    m2 = m * m
    out = []
    out.append(LeungMaEntry("a", 2 * m2 + 2 * m + 1, m2, m2 + m, m2 - 1, m2))
    if m >= 2:
        out.append(LeungMaEntry("b", 2 * m2, m2, m2 - m, m2 - m, m2 - m))
    if m >= 3:
        out.append(LeungMaEntry("c", 2 * m2, m2, m2 + m, m2 + m, m2 + m))
    if m >= 2:
        out.append(LeungMaEntry("d+", 2 * m2, m2 + m, m2, m2 + m, m2 + m))
        out.append(LeungMaEntry("d-", 2 * m2, m2 - m, m2, m2 - m, m2 - m))
    return out


def reference_feasible_edge_params(p):
    """Reference edge-side solver: the scan of every R in [0, lambda] that
    the progression walk replaced, as (Q, R, W) tuples."""
    n, k, lam, mu = p.as_tuple()
    out = []
    for r in range(0, lam + 1):
        if lam > 0:
            num = lam * (lam - 1) - r * (k - lam - 1)
            if num < 0 or num % lam:
                continue
            q = num // lam
            if q > lam - 1:
                continue
        else:
            if r * (k - lam - 1) != 0:
                continue
            q = 0
        wnum = mu * (lam - r)
        if wnum < 0 or wnum % (k - mu):
            continue
        w = wnum // (k - mu)
        if w > lam:
            continue
        if lam * mu * (k - 2 * lam + q) != w * (k - mu) * (k - lam - 1):
            continue
        out.append((q, r, w))
    return out


def reference_feasible_local_params(p):
    """Reference local-parameter solver: its own scan of R in
    [0, min(lambda, mu-1)] with every bound checked inline, as (Q, R, W, V,
    vacuous names) tuples."""
    n, k, lam, mu = p.as_tuple()
    d22 = n - 2 * k + mu - 2
    if d22 < 0:
        return []
    solutions = []
    for r in range(0, min(lam, mu - 1) + 1):
        vacuous = set()
        if lam > 0:
            num = lam * (lam - 1) - r * (k - lam - 1)
            if num < 0 or num % lam:
                continue
            q = num // lam
            if q > lam - 1:
                continue
        else:
            if r * (k - lam - 1) != 0:
                continue
            q = 0
            vacuous.add("Q")
        wnum = mu * (lam - r)
        if wnum < 0 or wnum % (k - mu):
            continue
        w = wnum // (k - mu)
        if w > lam or w > mu:
            continue
        if lam * mu * (k - 2 * lam + q) != w * (k - mu) * (k - lam - 1):
            continue
        vnum = mu * (k - 2 - 2 * lam + r)
        if d22 > 0:
            if vnum < 0 or vnum % d22:
                continue
            v = vnum // d22
            if v > mu:
                continue
        else:
            if vnum != 0:
                continue
            v = 0
            vacuous.add("V")
        solutions.append((q, r, w, v, frozenset(vacuous)))
    return solutions


def reference_nonedge_relations_check(p, rp, wp, v) -> bool:
    """Reference non-edge check: both relations with D22 = k(k-lambda-1)/mu
    - k + mu - 1 taken as a Fraction, False when mu = 0."""
    from fractions import Fraction

    n, k, lam, mu = p.as_tuple()
    if mu == 0:
        return False
    d22 = Fraction(k * (k - lam - 1), mu) - k + mu - 1
    return (
        mu * (lam - rp) == (k - mu) * wp
        and Fraction(mu * (k - 2 - 2 * lam + rp)) == v * d22
    )


def reference_line_graph(g: Graph) -> Graph:
    """Reference line graph: every pair of edges of g, in lexicographic
    order, compared for a shared end."""
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


def reference_symmetric(n, rows) -> None:
    """Reference row validation of the Graph constructor: row range and
    loops row by row, then symmetry over every pair u < v in order.  Raises
    the ValueError the constructor raises for the first fault found."""
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


def _difference_row(n, residues, base, offset):
    row = 0
    for r in residues:
        row |= 1 << (offset + (base + r) % n)
    return row


def reference_bicirculant(sym) -> Graph:
    """Reference bicirculant builder, written out orbit by orbit."""
    n = sym.n
    rows = [0] * (2 * n)
    for i in range(n):
        rows[i] = _difference_row(n, sym.s, i, 0) | _difference_row(n, sym.t, i, n)
    for j in range(n):
        row = _difference_row(n, sym.sp, j, n)
        # u_i ~ w_j iff j - i in T, so w_j sees u at i = j - t.
        for t in sym.t:
            row |= 1 << ((j - t) % n)
        rows[n + j] = row
    return Graph(2 * n, rows)


def reference_tricirculant(sym) -> Graph:
    """Reference tricirculant builder: orbit a occupies a*n..a*n+n-1."""
    n = sym.n
    rows = [0] * (3 * n)
    connections = dict(zip(((0, 1), (1, 2), (2, 0)), sym.connections))
    diagonals = sym.diagonals
    for a in range(3):
        for i in range(n):
            row = _difference_row(n, diagonals[a], i, a * n)
            for (x, y), t in connections.items():
                if x == a:
                    row |= _difference_row(n, t, i, y * n)
                elif y == a:
                    for r in t:
                        row |= 1 << (x * n + (i - r) % n)
            rows[a * n + i] = row
    return Graph(3 * n, rows)


def _reference_fmt(vals) -> str:
    return ",".join(str(v) for v in sorted(vals))


def reference_symbol_text(sym) -> str:
    """Symbol text as the per-r formats wrote it before one class held every
    r: the ``circ:`` grammar of ``parse_symbol``, then the bicirculant and
    tricirculant ``text()`` methods, each field spelled out."""
    n, diagonals, connections = sym.n, sym.diagonals, sym.connections
    if len(diagonals) == 1:
        return f"circ:n={n};S={_reference_fmt(diagonals[0])}"
    if len(diagonals) == 2:
        s, sp = diagonals
        (t,) = connections
        return (f"bi:n={n};S={_reference_fmt(s)};Sp={_reference_fmt(sp)};"
                f"T={_reference_fmt(t)}")
    s0, s1, s2 = diagonals
    t01, t12, t20 = connections
    return (
        f"tri:n={n};S0={_reference_fmt(s0)};S1={_reference_fmt(s1)};S2={_reference_fmt(s2)};"
        f"T01={_reference_fmt(t01)};T12={_reference_fmt(t12)};T20={_reference_fmt(t20)}"
    )


def reference_symbol_key(sym) -> tuple:
    """Symbol key as the per-r classes built it: n, then each diagonal and
    each connection as a sorted tuple."""
    if len(sym.diagonals) == 1:
        return (sym.n, tuple(sorted(sym.diagonals[0])))
    if len(sym.diagonals) == 2:
        s, sp = sym.diagonals
        (t,) = sym.connections
        return (sym.n, tuple(sorted(s)), tuple(sorted(sp)), tuple(sorted(t)))
    s0, s1, s2 = sym.diagonals
    t01, t12, t20 = sym.connections
    return (
        sym.n,
        tuple(sorted(s0)),
        tuple(sorted(s1)),
        tuple(sorted(s2)),
        tuple(sorted(t01)),
        tuple(sorted(t12)),
        tuple(sorted(t20)),
    )


def reference_orbit_consistent(total, s_mask, n, lam, mu) -> bool:
    """Within-orbit pair condition, the diagonal pruning the joins replaced:
    common-neighbor totals constant on the adjacent class (d in S) and on
    the non-adjacent class, matching the target values when given."""
    seen_lam = lam
    seen_mu = mu
    for d in range(1, n):
        c = total[d - 1]
        if (s_mask >> d) & 1:
            if seen_lam is None:
                seen_lam = c
            elif seen_lam != c:
                return False
        else:
            if seen_mu is None:
                seen_mu = c
            elif seen_mu != c:
                return False
    return True


def reference_judge(sym, g, p, nontrivial_only, require_iso3, records, counts) -> None:
    """The shared tail of the workers as it was before it took masks, for a
    strongly regular candidate that met the target: nontriviality, the
    triple test, the profile and the record.  counts holds the srg,
    nontrivial and iso3 hits."""
    from isoreg.isoregularity import triples_isoregular

    nontrivial = p.is_nontrivial()
    if nontrivial:
        counts[1] += 1
    elif nontrivial_only:
        return
    profile = triples_isoregular(g) if nontrivial else None
    iso3 = profile is not None
    if iso3:
        counts[2] += 1
    if require_iso3 and not iso3:
        return
    records.append((sym.key(), p.as_tuple(), profile, iso3))


def reference_multicirc_worker(args):
    """Reference r-orbit worker, r = 2 or 3, as it was before the joins
    replaced its pruning: it walks the tuples of connection masks grouped by
    their bit counts, prunes each orbit's diagonal masks against that
    orbit's incident difference sum, and tests every member of the product
    of the survivors on its row blocks, then on its graph.  It counts every
    strongly regular graph it builds, not only the target matches."""
    from itertools import product
    from operator import add

    from isoreg.search import _diff_vector, _mask_to_set
    from isoreg.srg import block_srg_params, srg_params
    from isoreg.symbols import _LAYOUT, Symbol, negated_mask, row_blocks

    (n, target, diag_masks, conn_masks, build, sp_is_complement,
     require_iso3, nontrivial_only, shard, stride) = args
    lam = target[2] if target else None
    mu = target[3] if target else None
    r = len(diag_masks)
    incident = [[c for c, pair in enumerate(_LAYOUT[r][2]) if a in pair] for a in range(r)]
    full = (1 << n) - 1

    def by_count(masks):
        out = {}
        for m in masks:
            out.setdefault(m.bit_count(), []).append(m)
        return out

    diag_by_size = [by_count(masks) for masks in diag_masks]
    conn_by_count = [by_count(masks) for masks in conn_masks]
    vec = {m: _diff_vector(m, n) for m in set().union(*diag_masks)}
    records: list = []
    counts = [0, 0, 0]
    for conn_counts in product(*(sorted(groups) for groups in conn_by_count)):
        inc = [sum(conn_counts[c] for c in incident[a]) for a in range(r)]
        degrees = [target[1]] if target else {sz + inc[0] for sz in diag_by_size[0]}
        degrees = [k for k in degrees if all(k - inc[a] in diag_by_size[a] for a in range(r))]
        if not degrees:
            continue
        groups = [conn_by_count[c][cnt] for c, cnt in enumerate(conn_counts)]
        groups[0] = groups[0][shard::stride]
        conn_vec = {m: _diff_vector(m, n) for m in set().union(*groups)}
        conn_neg = {m: negated_mask(m, n) for m in conn_vec}
        for conns in product(*groups):
            sums = []
            for a in range(r):
                first, *rest = incident[a]
                total = conn_vec[conns[first]]
                for c in rest:
                    total = list(map(add, total, conn_vec[conns[c]]))
                sums.append(total)
            for k in degrees:
                survivors = []
                for a in range(r):
                    diags = [
                        m for m in diag_by_size[a][k - inc[a]]
                        if reference_orbit_consistent(list(map(add, vec[m], sums[a])), m, n,
                                                      lam, mu)
                    ]
                    if not diags:
                        break
                    survivors.append(diags)
                else:
                    negs = [conn_neg[m] for m in conns]
                    for diags in product(*survivors):
                        if sp_is_complement and diags[1] != full & ~diags[0] & ~1:
                            continue
                        if block_srg_params(n, row_blocks(diags, conns, negs)) is None:
                            continue
                        sym = Symbol(n, [_mask_to_set(m, n) for m in diags],
                                     [_mask_to_set(m, n) for m in conns])
                        g = build(sym)
                        p = srg_params(g)
                        if p is None:
                            continue
                        counts[0] += 1
                        if target is None or p.as_tuple() == target:
                            reference_judge(sym, g, p, nontrivial_only, require_iso3, records,
                                            counts)
    return records, counts


@cache
def _definition_join_keys(mask: int, n: int, t_sizes: tuple) -> tuple[tuple, ...]:
    s = mask.bit_count()
    in_x = [bool(mask >> d & 1) for d in range(1, n)]
    dx = [sum(1 for x in range(n) if mask >> x & 1 and mask >> (x + d) % n & 1)
          for d in range(1, n)]
    keys = []
    for lam in range(2 * n) if any(in_x) else [0]:
        for mu in range(2 * n) if not all(in_x) else [0]:
            a = tuple((lam if x else mu) - c for x, c in zip(in_x, dx))
            lo, hi, total = min(a, default=0), max(a, default=0), sum(a)
            keys += [(s, t, lam, mu, a) for t in t_sizes
                     if lo >= 0 and hi <= t and total == t * (t - 1)]
    return tuple(sorted(keys))


def reference_join_keys(mask: int, n: int, t_sizes, target) -> list[tuple]:
    """Reference join keys (s, t, lambda, mu, A_T) of a symmetric mask X,
    sorted, from the definition: every lambda and mu in 0..2n-1 (A_T <= t
    <= n and dX <= n-2 bound both by 2n-2), lambda only 0 when X = {} and mu
    only 0 when X = Z_n - {0}, where they are vacuous; A_T = lambda*1_X +
    mu*1_Xhat - dX is kept for each allowed t when every entry lies in 0..t
    and they sum to t(t-1).  A target keeps the keys with s + t = k and its
    lambda and mu, a vacuous one excepted."""
    keys = _definition_join_keys(mask, n, tuple(t_sizes))
    full = (1 << n) - 2
    return [key for key in keys if not target or (
        key[0] + key[1] == target[1]
        and (key[2] == target[2] or mask == 0)
        and (key[3] == target[3] or mask == full))]


def reference_bicirc_worker(args):
    """Reference bicirculant shard worker: nested T -> S -> S' loops, each S'
    pruned again for every surviving S.  It takes the argument tuple the
    search built for it before the r-orbit worker replaced it."""
    from isoreg.search import _diff_vector, _mask_to_set
    from isoreg.srg import srg_params
    from isoreg.symbols import BicirculantSymbol, bicirculant

    (n, target, s_masks, sp_masks, t_masks, sp_is_complement, require_iso3,
     nontrivial_only, use_pruning, shard, stride) = args
    lam = target[2] if target else None
    mu = target[3] if target else None
    k = target[1] if target else None
    full = (1 << n) - 1
    s_vectors = {m: _diff_vector(m, n) for m in set(s_masks) | set(sp_masks)}
    records: list = []
    counts = [0, 0, 0]
    for t_index in range(shard, len(t_masks), stride):
        t_mask = t_masks[t_index]
        bt = _diff_vector(t_mask, n)
        t_count = t_mask.bit_count()
        for s_mask in s_masks:
            s_count = s_mask.bit_count()
            if k is not None and s_count + t_count != k:
                continue
            if use_pruning:
                total = [s_vectors[s_mask][d] + bt[d] for d in range(n - 1)]
                if not reference_orbit_consistent(total, s_mask, n, lam, mu):
                    continue
            if sp_is_complement:
                sp_candidates = [full & ~s_mask & ~1]
            else:
                sp_candidates = sp_masks
            for sp_mask in sp_candidates:
                if sp_mask.bit_count() != s_count:
                    continue
                if use_pruning:
                    vec = s_vectors.get(sp_mask)
                    if vec is None:
                        vec = _diff_vector(sp_mask, n)
                    total = [vec[d] + bt[d] for d in range(n - 1)]
                    if not reference_orbit_consistent(total, sp_mask, n, lam, mu):
                        continue
                sym = BicirculantSymbol(
                    n, _mask_to_set(s_mask, n), _mask_to_set(sp_mask, n), _mask_to_set(t_mask, n)
                )
                g = bicirculant(sym)
                p = srg_params(g)
                if p is None:
                    continue
                counts[0] += 1
                if target is not None and p.as_tuple() != target:
                    continue
                reference_judge(sym, g, p, nontrivial_only, require_iso3, records, counts)
    return records, counts


def reference_t_solutions(n: int, t: int, a: tuple[int, ...]) -> tuple[int, ...]:
    """Reference T solver: the backtracker the gap-canonical one replaced.
    Every T in Z_n with |T| = t and |T & (T+d)| = a[d-1] for d = 1..n-1,
    as ascending bit masks; () when no such T exists.

    A set with t > n/2 is solved through its complement, whose
    autocorrelation is n - 2t + a.  Otherwise a backtracker fixes 0 in T,
    adds residues in increasing order while every difference stays within
    its remaining budget, and a set that uses up all budgets contributes all
    of its translates."""
    from isoreg.search import _rotate

    if 2 * t > n:
        full = (1 << n) - 1
        shift = n - 2 * t
        return tuple(sorted(full ^ m for m in reference_t_solutions(
            n, n - t, tuple(x + shift for x in a))))
    if sum(a) != t * (t - 1) or min(a) < 0 or a != a[::-1]:
        return ()
    if t == 0:
        return (0,)
    # budget[d] is how often difference d may still occur; with a symmetric
    # it stays equal to budget[n - d], so checking y - x covers x - y too.  Bit
    # d of spent is set when budget[d] is 0, and bit -x of neg when x is in
    # T, so the differences y - x of a new residue y are neg rotated by y.
    budget = [0, *a]
    members = [0]
    found: set[int] = set()

    def extend(low: int, neg: int, spent: int) -> None:
        if len(members) == t:
            # Every difference was used up exactly, since none went negative
            # and t(t-1) of them were used.
            mask = sum(1 << x for x in members)
            found.update(_rotate(mask, j, n) for j in range(n))
            return
        for y in range(low, n - t + len(members) + 1):
            if _rotate(neg, y, n) & spent:
                continue
            diffs = [y - x for x in members]
            for d in diffs:
                budget[d] -= 1
                budget[n - d] -= 1
            if all(budget[d] >= 0 for d in diffs):
                members.append(y)
                now = spent
                for d in diffs:
                    if not budget[d]:
                        now |= 1 << d | 1 << (n - d)
                extend(y + 1, neg | 1 << (n - y), now)
                members.pop()
            for d in diffs:
                budget[d] += 1
                budget[n - d] += 1

    extend(1, 1, sum(1 << d for d, x in enumerate(a, 1) if not x))
    return tuple(sorted(found))


def reference_bicirc_run(spec, use_pruning=True, nontrivial_only=True):
    """The bicirculant search's candidate count, sorted records and counters
    as the reference worker computes them for a SearchSpec, with its diagonal
    pruning or, with use_pruning off, as the plain product; with
    nontrivial_only off the records include the trivial target matches."""
    from isoreg.search import _symmetric_masks

    n = spec.n
    sym_masks = _symmetric_masks(n)
    s_masks = [m for m in sym_masks if spec.s_size is None or m.bit_count() == spec.s_size]
    if spec.sp_is_complement:
        sp_masks, sp_count = [], 1
    else:
        sp_masks = [m for m in sym_masks if spec.sp_size is None or m.bit_count() == spec.sp_size]
        sp_count = len(sp_masks)
    t_masks = [m for m in range(1 << n) if spec.t_size is None or m.bit_count() == spec.t_size]
    target = spec.target.as_tuple() if spec.target else None
    records, counts = reference_bicirc_worker(
        (n, target, s_masks, sp_masks, t_masks, spec.sp_is_complement, spec.require_iso3,
         nontrivial_only, use_pruning, 0, 1)
    )
    return len(s_masks) * sp_count * len(t_masks), sorted(records), counts


def reference_tricirc_worker(args):
    """Reference tricirculant shard worker: six nested loops over T01, T12,
    T20, S0, S1 and S2, each diagonal pruned inside the loop above it.  It
    counts every strongly regular graph it builds; with nontrivial_only off
    the records include the trivial target matches."""
    from isoreg.search import _diff_vector, _mask_to_set, _symmetric_masks
    from isoreg.srg import srg_params
    from isoreg.symbols import TricirculantSymbol, tricirculant

    (n, target, use_pruning, nontrivial_only, shard, stride) = args
    k = target[1]
    lam = target[2]
    mu = target[3]
    sym_masks = _symmetric_masks(n)
    sym_by_size: dict[int, list[int]] = {}
    for m in sym_masks:
        sym_by_size.setdefault(m.bit_count(), []).append(m)
    diff = {m: _diff_vector(m, n) for m in sym_masks}
    t_all = list(range(1 << n))
    t_diff = [None] * (1 << n)
    records: list = []
    counts = [0, 0, 0]

    def tvec(mask: int):
        if t_diff[mask] is None:
            t_diff[mask] = _diff_vector(mask, n)
        return t_diff[mask]

    for t01 in range(shard, 1 << n, stride):
        c01 = t01.bit_count()
        v01 = None
        for t12 in t_all:
            c12 = t12.bit_count()
            for t20 in t_all:
                c20 = t20.bit_count()
                s0_size = k - c01 - c20
                s1_size = k - c01 - c12
                s2_size = k - c12 - c20
                if (
                    s0_size not in sym_by_size
                    or s1_size not in sym_by_size
                    or s2_size not in sym_by_size
                ):
                    continue
                if v01 is None:
                    v01 = tvec(t01)
                v12 = tvec(t12)
                v20 = tvec(t20)
                for s0 in sym_by_size[s0_size]:
                    if use_pruning:
                        total = [diff[s0][d] + v01[d] + v20[d] for d in range(n - 1)]
                        if not reference_orbit_consistent(total, s0, n, lam, mu):
                            continue
                    for s1 in sym_by_size[s1_size]:
                        if use_pruning:
                            total = [diff[s1][d] + v01[d] + v12[d] for d in range(n - 1)]
                            if not reference_orbit_consistent(total, s1, n, lam, mu):
                                continue
                        for s2 in sym_by_size[s2_size]:
                            if use_pruning:
                                total = [diff[s2][d] + v12[d] + v20[d] for d in range(n - 1)]
                                if not reference_orbit_consistent(total, s2, n, lam, mu):
                                    continue
                            sym = TricirculantSymbol(
                                n,
                                _mask_to_set(s0, n),
                                _mask_to_set(s1, n),
                                _mask_to_set(s2, n),
                                _mask_to_set(t01, n),
                                _mask_to_set(t12, n),
                                _mask_to_set(t20, n),
                            )
                            g = tricirculant(sym)
                            p = srg_params(g)
                            if p is None:
                                continue
                            counts[0] += 1
                            if p.as_tuple() == target:
                                reference_judge(sym, g, p, nontrivial_only, False, records,
                                                counts)
    return records, counts


def srg_symbols_built(search, *args):
    """Run search(*args, jobs=1) with ``isoreg.search.bicirculant`` and
    ``tricirculant`` wrapped, the way perfbench's tracer hooks them; return
    the result and the sorted (key, params) of every strongly regular symbol
    the search built, trivial ones and those off its target included."""
    import isoreg.search as search_mod
    from isoreg.srg import srg_params

    built = []

    def hooked(build):
        def run(sym):
            g = build(sym)
            p = srg_params(g)
            if p is not None:
                built.append((sym.key(), p.as_tuple()))
            return g

        return run

    saved = {name: getattr(search_mod, name) for name in ("bicirculant", "tricirculant")}
    for name, build in saved.items():
        setattr(search_mod, name, hooked(build))
    try:
        result = search(*args, jobs=1)
    finally:
        for name, build in saved.items():
            setattr(search_mod, name, build)
    return result, sorted(built)


def deduplicate_built(built):
    """``search._finish`` over the (key, params) of ``srg_symbols_built``:
    each bicirculant symbol is rebuilt with its graph and recorded with no
    profile."""
    from isoreg.search import _finish
    from isoreg.srg import SrgParams
    from isoreg.symbols import Symbol, symbol_graph

    records = []
    for key, params in built:
        sym = Symbol(key[0], key[1:3], key[3:])
        records.append((sym, symbol_graph(sym), SrgParams(*params), None))
    return _finish(records, 0, [0, 0, 0])


def reference_complement_class_count(reps) -> int:
    """Orbits of complementation on pairwise non-isomorphic class
    representatives, by ``backtracking_isomorphism``: class i is paired with
    the class j its complement matches, if any, and each orbit is counted at
    its lowest member."""
    from isoreg.graphs import complement

    count = 0
    for i, g in enumerate(reps):
        cg = complement(g)
        partners = [j for j, h in enumerate(reps) if backtracking_isomorphism(cg, h) is not None]
        assert len(partners) <= 1
        count += not partners or partners[0] >= i
    return count
