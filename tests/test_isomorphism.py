"""Isomorphism search and its invariants, checked against a recursive
backtracking reference."""

import random
import sys

from conftest import backtracking_isomorphism, build_corpus

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
    symbol_graph,
)


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
    result = search_bicirculant(SearchSpec(n=8, nontrivial_only=False))
    graphs = [symbol_graph(s.symbol) for s in result.survivors]
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
