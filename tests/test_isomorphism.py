"""Isomorphism search and its invariants, checked against a recursive
backtracking reference."""

import random
import sys

from conftest import (backtracking_isomorphism, build_corpus, deduplicate_built,
                      reference_k4_counts, srg_symbols_built)

from isoreg import (
    Graph,
    SearchSpec,
    circulant,
    complement,
    cycle_graph,
    invariant_fingerprint,
    is_isomorphic,
    named_graph,
    path_graph,
    search_bicirculant,
)
from isoreg import isomorphism
from isoreg.graphs import bits_to_vertices


def check_mapping(g, h, mapping):
    """mapping is a bijection that sends every edge of g to an edge of h.
    With equal edge counts it then sends non-edges to non-edges as well."""
    assert sorted(mapping) == list(range(g.n))
    assert g.edge_count() == h.edge_count()
    for u, v in g.edges():
        assert h.adjacent(mapping[u], mapping[v])


def relabel(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_shrikhande_representations():
    a = named_graph("shrikhande-a")
    b = named_graph("shrikhande-b")
    mapping = is_isomorphic(a, b)
    assert mapping is not None
    check_mapping(a, b, mapping)


def test_shrikhande_vs_k4xk4():
    # Same parameters (16,6,2,2), different graphs.
    assert is_isomorphic(named_graph("shrikhande-a"), named_graph("k4xk4")) is None


def test_c5_self_complementary():
    c5 = cycle_graph(5)
    mapping = is_isomorphic(c5, complement(c5))
    assert mapping is not None
    check_mapping(c5, complement(c5), mapping)


def test_order_mismatch_and_small_negatives():
    assert is_isomorphic(cycle_graph(4), cycle_graph(5)) is None
    assert is_isomorphic(path_graph(4), cycle_graph(4)) is None


def test_fingerprint_separates_shrikhande_family():
    # Neighborhoods are C6 in Shrikhande but 2K3 in K4xK4, so two 4-cliques
    # pass through each vertex of K4xK4 and none through a Shrikhande
    # vertex; the start signatures see it without any backtracking.
    fa = invariant_fingerprint(named_graph("shrikhande-a"))
    fk = invariant_fingerprint(named_graph("k4xk4"))
    assert fa != fk
    assert fa == invariant_fingerprint(named_graph("shrikhande-b"))


def test_k4_counts_match_brute_force():
    def k4_counts(g):
        return isomorphism._k4_counts(g.rows(), tuple(tuple(bits_to_vertices(r)) for r in g.rows()))

    rng = random.Random(4)
    for n in range(1, 13):
        for p in (0.2, 0.5, 0.8, 1.0):
            g = Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
            assert k4_counts(g) == reference_k4_counts(g), (n, p)
    # The counts the fingerprint starts from are those of the sparser side.
    for tag, g in build_corpus().items():
        rows, _, start, _ = isomorphism._prepared(g)
        sparse = Graph(g.n, rows)
        assert min(sparse.edge_count(), complement(g).edge_count()) == sparse.edge_count(), tag
        assert k4_counts(sparse) == reference_k4_counts(sparse), tag
        assert start == tuple(sorted(zip(sparse.degrees(), reference_k4_counts(sparse)))), tag
    assert k4_counts(named_graph("shrikhande-a")) == [0] * 16
    assert k4_counts(named_graph("k4xk4")) == [2] * 16


def test_matches_backtracking_on_same_size_named_pairs():
    graphs = build_corpus()
    for tag in ("shrikhande-a", "shrikhande-b"):
        graphs["co-" + tag] = complement(named_graph(tag))
    rng = random.Random(8)
    for tag, g in list(graphs.items()):
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs["relabelled-" + tag] = relabel(g, perm)
    tags = sorted(graphs)
    verdicts = {}
    for i, a in enumerate(tags):
        for b in tags[i + 1:]:
            g, h = graphs[a], graphs[b]
            if (g.n, g.edge_count()) != (h.n, h.edge_count()):
                continue
            expected = backtracking_isomorphism(g, h)
            mapping = is_isomorphic(g, h)
            assert (mapping is None) == (expected is None), (a, b)
            for found in (expected, mapping):
                if found is not None:
                    check_mapping(g, h, found)
            verdicts[a, b] = mapping is not None
    # Same parameters: (16,6,2,2) and (16,9,4,6) split into two classes
    # each.  Refinement runs on the sparser side, so the complements get
    # the start signatures of K4xK4 and Shrikhande, and their fingerprints
    # differ too: no search is needed to tell them apart.
    assert verdicts["shrikhande-a", "shrikhande-b"]
    assert not verdicts["k4xk4", "shrikhande-a"]
    assert verdicts["co-shrikhande-a", "co-shrikhande-b"]
    assert not verdicts["co-k4xk4", "co-shrikhande-a"]
    assert invariant_fingerprint(graphs["co-k4xk4"]) != invariant_fingerprint(graphs["co-shrikhande-a"])
    assert verdicts["gq22", "t6-complement"]
    assert verdicts["co-petersen", "triangular-5"]
    for tag in build_corpus():
        assert verdicts[tuple(sorted((tag, "relabelled-" + tag)))], tag


def test_matches_backtracking_on_full_n8_space():
    # Every strongly regular symbol the full n = 8 search builds, trivial
    # ones included, deduplicated as the search deduplicates its survivors.
    _, built = srg_symbols_built(search_bicirculant, SearchSpec(n=8))
    result = deduplicate_built(built)
    graphs = [s.graph for s in result.survivors]
    assert len(graphs) == 164
    # Isomorphism is an equivalence, so the reference's verdicts against one
    # representative per class fix its verdict on every pair.  Running it on
    # all 13,366 pairs directly takes tens of seconds, nearly all of it in
    # exhaustive refutations between the two (16,9,4,6) classes, which the
    # reference's fingerprint does not tell apart.
    reps: list = []
    classes = []
    for g in graphs:
        for cid, rep in enumerate(reps):
            expected = backtracking_isomorphism(g, rep)
            if expected is not None:
                check_mapping(g, rep, expected)
                classes.append(cid)
                break
        else:
            classes.append(len(reps))
            reps.append(g)
    assert len(reps) == 14
    # The search's own deduplication numbers the classes the same way.
    assert [s.class_id for s in result.survivors] == classes
    assert result.stats.classes == 14
    for i, g in enumerate(graphs):
        for j in range(i + 1, len(graphs)):
            mapping = is_isomorphic(g, graphs[j])
            assert (mapping is not None) == (classes[i] == classes[j]), (i, j)
            if mapping is not None:
                check_mapping(g, graphs[j], mapping)
            # The search plan is cached on the second argument, so the reverse
            # call maps the other way and tests the inverted map; 164 graphs
            # also run both caches past their bound.
            mapping = is_isomorphic(graphs[j], g)
            assert (mapping is not None) == (classes[i] == classes[j]), (j, i)
            if mapping is not None:
                check_mapping(graphs[j], g, mapping)


def test_large_graphs_at_default_recursion_limit():
    # A search that recursed once per vertex would overflow at 1,100 vertices.
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        cycle = cycle_graph(1100)
        mapping = is_isomorphic(cycle, cycle)
        assert mapping is not None
        check_mapping(cycle, cycle, mapping)

        g = circulant(1100, [1, -1, 5, -5, 30, -30])
        perm = list(range(g.n))
        random.Random(1100).shuffle(perm)
        h = relabel(g, perm)
        mapping = is_isomorphic(g, h)
        assert mapping is not None
        check_mapping(g, h, mapping)
    finally:
        sys.setrecursionlimit(saved)


def test_caches_stay_bounded():
    # 1,000 distinct graphs on 8 vertices, each the path 0..7 plus a random
    # set of other pairs.  Each is compared with its predecessor and, so that
    # the search runs and plans on it, with its reversal.
    pairs = [(i, j) for j in range(8) for i in range(j - 1)]
    rng = random.Random(1000)
    extras = set()
    while len(extras) < 1000:
        extras.add(frozenset(p for p in pairs if rng.random() < 0.4))
    graphs = [Graph.from_edges(8, [(i, i + 1) for i in range(7)] + sorted(e)) for e in extras]
    for prev, g in zip(graphs, graphs[1:]):
        invariant_fingerprint(g)
        is_isomorphic(g, prev)
        assert is_isomorphic(relabel(g, list(range(7, -1, -1))), g) is not None
    caches = [f for f in vars(isomorphism).values() if hasattr(f, "cache_info")]
    assert caches
    for f in caches:
        info = f.cache_info()
        assert info.misses > isomorphism._INVARIANT_CACHE_SIZE, f
        assert info.currsize <= isomorphism._INVARIANT_CACHE_SIZE, f
