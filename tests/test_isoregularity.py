"""k-isoregularity, local parameters, t-vertex condition: the paper's
measured facts plus its counting relations as tested theorems."""

from itertools import combinations

import pytest

from isoreg import (
    Graph,
    complement,
    d_partition,
    d_partition_expected_sizes,
    edge_iso_params,
    gq22_vertex,
    is_k_isoregular,
    is_locally_3isoregular,
    is_locally_3isoregular_at,
    iso_profile,
    iso_type,
    named_graph,
    nonedge_iso_params,
    srg_params,
    subconstituent_characterization,
    subset_valency,
    t_vertex_condition,
)
from isoreg.search import triples_isoregular

from conftest import (
    brute_valency,
    build_corpus,
    cycle_graph,
    disjoint_union,
    labelled_small_graphs,
    reference_iso_code,
    reference_t_vertex_condition,
    reference_valencies,
    srg_symbols_built,
)


# -- subset valency ----------------------------------------------------------


def test_subset_valency_matches_brute_force():
    g = named_graph("shrikhande-a")
    for subset in combinations(range(g.n), 3):
        assert subset_valency(g, subset) == brute_valency(g, subset)


def test_subset_valency_singleton_is_degree():
    g = named_graph("t7")
    for v in range(g.n):
        assert subset_valency(g, [v]) == g.degree(v)


def test_subset_valency_rejects_empty():
    with pytest.raises(ValueError):
        subset_valency(cycle_graph(5), [])


def test_petersen_pair_label_triples():
    # Kneser labels: {12,13,23} has one common neighbor, {12,13,14} none.
    pairs = list(combinations(range(1, 6), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if not set(pairs[i]) & set(pairs[j])
    ]
    kneser = Graph.from_edges(10, edges)
    assert subset_valency(kneser, [idx[(1, 2)], idx[(1, 3)], idx[(2, 3)]]) == 1
    assert subset_valency(kneser, [idx[(1, 2)], idx[(1, 3)], idx[(1, 4)]]) == 0


def test_gq22_labeled_triples():
    # Both labeled triples of the voltage construction are independent and
    # have exactly one common neighbor; (inf,1) witnesses the first.  The
    # graph's independent triples have valencies 1 or 3 and never 0.
    g = named_graph("gq22")
    t1 = [gq22_vertex("inf", 0), gq22_vertex("0", 1), gq22_vertex("1", 1)]
    t2 = [gq22_vertex("inf", 0), gq22_vertex("0", 1), gq22_vertex("w", 2)]
    for t in (t1, t2):
        assert all(not g.adjacent(a, b) for a, b in combinations(t, 2))
    assert subset_valency(g, t1) == 1
    assert all(g.adjacent(gq22_vertex("inf", 1), v) for v in t1)
    assert subset_valency(g, t2) == 1
    independent_valencies = {
        subset_valency(g, s)
        for s in combinations(range(15), 3)
        if not any(g.adjacent(a, b) for a, b in combinations(s, 2))
    }
    assert independent_valencies == {1, 3}


# -- iso types ---------------------------------------------------------------


def test_iso_type_size3_is_edge_count():
    g = named_graph("k4xk4")
    for subset in combinations(range(8), 3):
        edges = sum(g.adjacent(a, b) for a, b in combinations(subset, 2))
        assert iso_type(g, subset).name == ("3K1", "K2+K1", "K1,2", "K3")[edges]


def test_iso_type_small_examples():
    from isoreg import complete_graph

    assert iso_type(complete_graph(3), [0, 1, 2]).name == "K3"
    c4 = cycle_graph(4)
    # A diagonal (non-adjacent) pair plus one more vertex induces a 2-claw.
    assert iso_type(c4, [0, 2, 1]).name == "K1,2"
    assert iso_type(c4, [1, 3, 0]).name == "K1,2"


def test_iso_type_distinguishes_p4_from_claw():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    claw = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    t_path = iso_type(p4, range(4))
    t_claw = iso_type(claw, range(4))
    assert t_path != t_claw
    assert t_path.name == "P4" and t_claw.name == "K1,3"


def test_iso_type_order_invariance():
    g = named_graph("gq22")
    assert iso_type(g, [3, 1, 7]) == iso_type(g, [7, 3, 1])
    with pytest.raises(ValueError):
        iso_type(g, [0, 1, 2, 3, 4])
    # A repeated vertex is a multiset, not an induced subgraph.
    with pytest.raises(ValueError):
        iso_type(g, [0, 0, 1])
    with pytest.raises(ValueError):
        iso_type(g, [2, 5, 2, 5])


# One edge list per type on four vertices, named as in the paper.
_SIZE4_REPS = {
    "4K1": [],
    "K2+2K1": [(0, 1)],
    "2K2": [(0, 1), (2, 3)],
    "K1,2+K1": [(0, 1), (0, 2)],
    "K1,3": [(0, 1), (0, 2), (0, 3)],
    "P4": [(0, 1), (1, 2), (2, 3)],
    "K3+K1": [(0, 1), (0, 2), (1, 2)],
    "paw": [(0, 1), (0, 2), (1, 2), (2, 3)],
    "C4": [(0, 1), (1, 2), (2, 3), (0, 3)],
    "diamond": [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)],
    "K4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
}


def test_degree_table_matches_permutation_code_on_all_small_graphs():
    # The 18-row degree-sequence table against the minimum over all j!
    # orderings, on every labelled graph with 1..4 vertices.
    from isoreg.isoregularity import _TYPES, TYPES_BY_SIZE, IsoType

    graphs = labelled_small_graphs()
    assert len(graphs) == 75
    for h in graphs:
        assert iso_type(h, range(h.n)) == IsoType(h.n, reference_iso_code(h, range(h.n)))
    assert len(_TYPES) == 18
    assert [len(TYPES_BY_SIZE[j]) for j in (1, 2, 3, 4)] == [1, 2, 4, 11]
    for name, edges in _SIZE4_REPS.items():
        assert iso_type(Graph.from_edges(4, edges), range(4)).name == name


# -- k-isoregularity ---------------------------------------------------------


def test_three_isoregular_verdicts():
    assert is_k_isoregular(named_graph("clebsch"), 3).holds
    assert is_k_isoregular(named_graph("k4xk4"), 3).holds
    assert is_k_isoregular(cycle_graph(5), 3).holds
    assert not is_k_isoregular(named_graph("shrikhande-a"), 3).holds
    assert not is_k_isoregular(named_graph("paley-13"), 3).holds
    assert not is_k_isoregular(named_graph("paley-17"), 3).holds


def test_shrikhande_has_k12_witness():
    g = named_graph("shrikhande-a")
    seen = {}
    for subset in combinations(range(16), 3):
        if iso_type(g, subset).name == "K1,2":
            seen.setdefault(subset_valency(g, subset), subset)
    assert set(seen) == {0, 1}


def test_witness_is_deterministic_and_real():
    g = named_graph("shrikhande-a")
    w1 = is_k_isoregular(g, 3).witness
    w2 = is_k_isoregular(g, 3).witness
    assert w1 == w2
    assert iso_type(g, w1.subset_a) == iso_type(g, w1.subset_b) == w1.type
    assert subset_valency(g, w1.subset_a) == w1.valency_a
    assert subset_valency(g, w1.subset_b) == w1.valency_b
    assert w1.valency_a != w1.valency_b


def test_isoregularity_monotone_on_corpus():
    for name, g in build_corpus().items():
        verdicts = [is_k_isoregular(g, k).holds for k in (1, 2, 3)]
        for lower, higher in zip(verdicts, verdicts[1:]):
            assert not (higher and not lower), name


def test_two_isoregular_iff_srg_on_corpus():
    for name, g in build_corpus().items():
        assert is_k_isoregular(g, 2).holds == (srg_params(g) is not None), name


def test_three_isoregularity_closed_under_complement():
    for name, g in build_corpus().items():
        if g.n < 2:
            continue
        assert (
            is_k_isoregular(g, 3).holds == is_k_isoregular(complement(g), 3).holds
        ), name


def test_profiles():
    assert iso_profile(named_graph("clebsch"), 3).size3() == (0, 0, 0, 1)
    assert iso_profile(named_graph("k4xk4"), 3).size3() == (1, 0, 1, 0)
    assert iso_profile(named_graph("shrikhande-a"), 3) is None
    c5 = iso_profile(cycle_graph(5), 3)
    assert c5 is not None
    assert c5.valencies["K1"] == 2 and c5.valencies["K2"] == 0
    assert {"K3", "3K1"} <= c5.vacuous


def test_size4_isoregularity():
    # Clebsch is 3- but not 4-isoregular: two kinds of independent 4-sets.
    verdict = is_k_isoregular(named_graph("clebsch"), 4)
    assert not verdict.holds
    assert verdict.witness.type.name == "4K1"
    assert {verdict.witness.valency_a, verdict.witness.valency_b} == {0, 1}
    # The pentagon is homogeneous, so every level holds.
    assert is_k_isoregular(cycle_graph(5), 4).holds
    with pytest.raises(ValueError):
        is_k_isoregular(cycle_graph(5), 5)


def test_fast_triples_check_agrees_with_full_enumeration():
    for name, g in build_corpus().items():
        if srg_params(g) is None:
            continue
        assert (triples_isoregular(g) is not None) == is_k_isoregular(g, 3).holds, name


def _reference_graphs():
    """The corpus and every strongly regular symbol the full n = 8 search
    builds, trivial ones included."""
    from isoreg import SearchSpec, Symbol, search_bicirculant, symbol_graph

    graphs = dict(build_corpus())
    _, built = srg_symbols_built(search_bicirculant, SearchSpec(n=8))
    assert len(built) == 164
    for i, (key, _) in enumerate(built):
        graphs[f"n8-{i}"] = symbol_graph(Symbol(key[0], key[1:3], key[3:]))
    return graphs


def test_valency_pass_matches_reference_scan():
    # The bit-row triple kernel against the combinations + iso_type scan:
    # the same first witness and the same valencies, at the triple level
    # alone and through the k <= 3 pass behind is_k_isoregular/iso_profile.
    from isoreg.isoregularity import IsoType, _triple_scan, _valencies

    codes = (0, 1, 3, 7)  # size-3 canonical code by induced edge count
    for name, g in _reference_graphs().items():
        witness, vals = _triple_scan(g)
        ref_witness, ref_vals = reference_valencies(g, (3,))
        assert witness == ref_witness, name
        if witness is None:
            got = {IsoType(3, codes[e]): v for e, v in enumerate(vals) if v is not None}
            assert got == ref_vals, name
        size3 = tuple(ref_vals.get(IsoType(3, codes[e]), 0) for e in (3, 2, 1, 0))
        assert triples_isoregular(g) == (None if ref_witness is not None else size3), name
        reference = reference_valencies(g, (1, 2, 3))
        assert _valencies(g, 3) == reference, name
        assert is_k_isoregular(g, 3).witness == reference[0], name


def test_four_level_pass_matches_reference_scan():
    from isoreg.isoregularity import _valencies

    for name, g in build_corpus().items():
        assert _valencies(g, 4) == reference_valencies(g, (1, 2, 3, 4)), name


# -- local parameters --------------------------------------------------------


def test_petersen_edges_and_nonedges():
    pet = named_graph("petersen")
    for u, v in pet.edges():
        params = edge_iso_params(pet, u, v)
        assert params is not None
        assert params.as_tuple() == (0, 0, 0)
        assert "K3" in params.vacuous  # no triangles through an edge
    for u in range(10):
        for v in range(u + 1, 10):
            if not pet.adjacent(u, v):
                assert nonedge_iso_params(pet, u, v) is None


def test_complement_petersen_nonedges_present():
    co = complement(named_graph("petersen"))
    found = [
        (u, v)
        for u in range(10)
        for v in range(u + 1, 10)
        if not co.adjacent(u, v) and nonedge_iso_params(co, u, v) is not None
    ]
    assert len(found) == 15  # every non-edge


def test_shrikhande_edge_absent():
    g = named_graph("shrikhande-a")
    u, v = next(iter(g.edges()))
    assert edge_iso_params(g, u, v) is None


def test_t6_complement_edges():
    g = named_graph("t6-complement")
    for u, v in g.edges():
        params = edge_iso_params(g, u, v)
        assert params is not None and params.as_tuple() == (0, 0, 1)
    assert is_locally_3isoregular(g) is None


def test_t7_no_edge_isoregular():
    g = named_graph("t7")
    assert all(edge_iso_params(g, u, v) is None for u, v in g.edges())


def test_clebsch_nonedges_and_locality():
    g = named_graph("clebsch")
    for u in range(16):
        for v in range(u + 1, 16):
            if not g.adjacent(u, v):
                params = nonedge_iso_params(g, u, v)
                assert params is not None and params.as_tuple() == (0, 0, 1)
    assert all(is_locally_3isoregular_at(g, x).holds for x in range(16))


def test_local_reports():
    pet = named_graph("petersen")
    report = is_locally_3isoregular_at(pet, 0)
    assert report.edge is not None and report.nonedge is None and not report.holds
    assert is_locally_3isoregular(pet) is None


def test_local_closed_under_complement():
    for name, g in build_corpus().items():
        if not (2 <= g.n <= 16):
            continue
        co = complement(g)
        for x in range(g.n):
            assert (
                is_locally_3isoregular_at(g, x).holds
                == is_locally_3isoregular_at(co, x).holds
            ), (name, x)


def test_edge_nonedge_input_validation():
    pet = named_graph("petersen")
    with pytest.raises(ValueError):
        edge_iso_params(pet, 0, 0)
    u, v = next(iter(pet.edges()))
    with pytest.raises(ValueError):
        nonedge_iso_params(pet, u, v)


# -- the counting relations as tested theorems -------------------------------


def test_edge_relations_hold_for_all_measured_pairs():
    # Relations (i), (ii) for 3-isoregular edges; the non-edge relations;
    # and R = R', W = W' wherever both sides exist at a vertex.
    from isoreg import edge_relations_check, nonedge_relations_check

    for name, g in build_corpus().items():
        p = srg_params(g)
        if p is None or not p.is_nontrivial():
            continue
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.adjacent(u, v):
                    ep = edge_iso_params(g, u, v)
                    if ep is not None:
                        assert edge_relations_check(p, *ep.as_tuple()), (name, u, v)
                else:
                    np_ = nonedge_iso_params(g, u, v)
                    if np_ is not None:
                        assert nonedge_relations_check(p, *np_.as_tuple()), (name, u, v)
        for x in range(g.n):
            report = is_locally_3isoregular_at(g, x)
            if report.holds:
                _, ep = report.edge
                _, np_ = report.nonedge
                assert ep.r == np_.rp and ep.w == np_.wp, (name, x)


def test_d_partition_sizes():
    pet = named_graph("petersen")
    edge = next(iter(pet.edges()))
    dp = d_partition(pet, *edge)
    assert dp.sizes() == (0, 2, 2, 4)
    assert dp.sizes() == d_partition_expected_sizes(srg_params(pet), True)

    k4 = named_graph("k4xk4")
    edge = next(iter(k4.edges()))
    assert d_partition(k4, *edge).sizes() == (2, 3, 3, 6)

    for name in ("petersen", "k4xk4", "gq22", "t7"):
        g = named_graph(name)
        p = srg_params(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                expected = d_partition_expected_sizes(p, g.adjacent(u, v))
                assert d_partition(g, u, v).sizes() == expected, (name, u, v)


def test_d_partition_cells_disjoint_cover():
    g = named_graph("gq22")
    dp = d_partition(g, 0, 7)
    cells = [set(dp.d11), set(dp.d12), set(dp.d21), set(dp.d22)]
    union = set().union(*cells)
    assert sum(len(c) for c in cells) == len(union)
    assert union | {0, 7} == set(range(15))


# -- t-vertex condition ------------------------------------------------------


def test_t2_iff_regular_on_corpus():
    for name, g in build_corpus().items():
        assert t_vertex_condition(g, 2).holds == g.is_regular(), name


def test_t3_iff_srg_on_corpus():
    for name, g in build_corpus().items():
        assert t_vertex_condition(g, 3).holds == (srg_params(g) is not None), name


def test_petersen_t4():
    assert t_vertex_condition(named_graph("petersen"), 4).holds


def _random_tvertex_graphs(seed, count):
    """count seeded random graphs on 4..10 vertices, count seeded random
    circulants on 5..14 vertices and count disjoint unions of two random
    circulants of one valency.  The last two are regular, so their t-vertex
    checks reach j = 3 and 4, and the unions can fail on equal pairs there."""
    import random

    from isoreg.symbols import circulant

    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(4, 10)
        density = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        graphs.append(Graph.from_edges(n, edges))
    for _ in range(count):
        n = rng.randint(5, 14)
        half = [d for d in range(1, n // 2 + 1) if rng.random() < 0.5]
        graphs.append(circulant(n, {x for d in half for x in (d, n - d)}))
    for _ in range(count):
        half = rng.randint(1, 2)
        parts = []
        for _ in range(2):
            n = rng.randint(2 * half + 1, 9)
            steps = rng.sample(range(1, (n - 1) // 2 + 1), half)
            parts.append(circulant(n, {x for d in steps for x in (d, n - d)}))
        graphs.append(disjoint_union(*parts))
    return graphs


def test_t_vertex_condition_matches_reference():
    # The one subset path against the count-vector scan it replaced: the
    # same verdict and witness for t = 2, 3, 4.
    graphs = list(build_corpus().items())
    graphs += [(f"random-{i}", g) for i, g in enumerate(_random_tvertex_graphs(20261019, 40))]
    levels = set()
    for name, g in graphs:
        for t in (2, 3, 4):
            verdict = t_vertex_condition(g, t)
            assert verdict == reference_t_vertex_condition(g, t), (name, t)
            if verdict.witness is not None:
                levels.add((verdict.witness.j, verdict.witness.pair_class))
    assert {j for j, _ in levels} == {2, 3, 4}
    assert {(3, "equal"), (3, "adjacent"), (4, "non-adjacent")} <= levels


def test_t4_witness_for_shrikhande():
    verdict = t_vertex_condition(named_graph("shrikhande-a"), 4)
    assert not verdict.holds
    assert verdict.witness.j == 4
    with pytest.raises(ValueError):
        t_vertex_condition(cycle_graph(5), 5)


# -- subconstituent characterization ------------------------------------------


def test_subconstituent_characterization_matches_isoregularity():
    for name, g in build_corpus().items():
        p = srg_params(g)
        if p is None or not p.is_nontrivial():
            continue
        assert (
            subconstituent_characterization(g) == is_k_isoregular(g, 3).holds
        ), name


def test_subconstituent_characterization_rejects_non_srg():
    with pytest.raises(ValueError):
        subconstituent_characterization(cycle_graph(6))
