"""Graph type, symbol constructions, and named graphs."""

import random
from itertools import combinations

import pytest

from isoreg import (
    BicirculantSymbol,
    Graph,
    TricirculantSymbol,
    bicirculant,
    cartesian_product,
    circulant,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    gq22_voltage,
    is_isomorphic,
    line_graph,
    named_graph,
    named_tags,
    paley,
    parse_symbol,
    srg_params,
    symbol_graph,
    triangular,
    tricirculant,
)
from isoreg.formats import encode_graph6

from conftest import reference_line_graph


def test_graph_rejects_loops_and_asymmetry():
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b10])
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(5000, [0] * 5000)


def test_graph_basics():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.degree(1) == 2
    assert g.neighbors(2) == [1, 3]
    assert g.edge_count() == 3
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.is_connected()
    assert not disjoint_union(g, g).is_connected()
    assert g.induced([1, 2, 3]) == Graph.from_edges(3, [(0, 1), (1, 2)])


def test_circulant_examples():
    assert circulant(5, {1, 4}) == cycle_graph(5)
    assert circulant(4, set()) == empty_graph(4)
    assert circulant(6, {1, 2, 3, 4, 5}) == complete_graph(6)


def test_circulant_rejects_bad_symbols():
    with pytest.raises(ValueError):
        circulant(5, {0, 1, 4})
    with pytest.raises(ValueError):
        circulant(5, {1})
    with pytest.raises(ValueError):
        circulant(1, set())


def test_bicirculant_named_symbols():
    clebsch = bicirculant(BicirculantSymbol(8, {1, -1, 4}, {3, -3, 4}, {0, 2}))
    assert srg_params(clebsch).as_tuple() == (16, 5, 0, 2)
    k4sq = bicirculant(BicirculantSymbol(8, {1, -1}, {3, -3}, {0, 1, 3, 4}))
    assert srg_params(k4sq).as_tuple() == (16, 6, 2, 2)
    assert is_isomorphic(k4sq, cartesian_product(complete_graph(4), complete_graph(4)))


def test_bicirculant_petersen_matches_kneser():
    from itertools import combinations

    petersen = named_graph("petersen")
    pairs = list(combinations(range(1, 6), 2))
    edges = [
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if not set(pairs[i]) & set(pairs[j])
    ]
    kneser = Graph.from_edges(10, edges)
    assert is_isomorphic(petersen, kneser) is not None


def test_clebsch_matches_folded_five_cube():
    # Vertices: 4-bit strings; adjacent at Hamming distance 1 or 4 (the
    # folded 5-cube collapses antipodal pairs of the 5-cube).
    edges = []
    for u in range(16):
        for v in range(u + 1, 16):
            if (u ^ v).bit_count() in (1, 4):
                edges.append((u, v))
    folded = Graph.from_edges(16, edges)
    assert is_isomorphic(named_graph("clebsch"), folded) is not None


def test_shrikhande_matches_z4_lattice_construction():
    # Cayley graph of Z4 x Z4 with connection set {(1,0),(3,0),(0,1),(0,3),
    # (1,1),(3,3)}.
    connection = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for a in range(16):
        for b in range(a + 1, 16):
            diff = ((b // 4 - a // 4) % 4, (b % 4 - a % 4) % 4)
            if diff in connection or ((-diff[0]) % 4, (-diff[1]) % 4) in connection:
                edges.append((a, b))
    shrikhande = Graph.from_edges(16, edges)
    assert is_isomorphic(named_graph("shrikhande-a"), shrikhande) is not None
    assert is_isomorphic(named_graph("k4xk4"), shrikhande) is None


def test_bicirculant_rejects_invalid_symbol():
    with pytest.raises(ValueError):
        BicirculantSymbol(8, {1}, {3, 5}, {0})
    with pytest.raises(ValueError):
        BicirculantSymbol(8, {0, 1, 7}, {3, 5}, {0})
    with pytest.raises(ValueError):
        BicirculantSymbol(8, {1, 7}, {3, 5}, {0}).multiply(2)


def test_rotation_is_automorphism():
    # The orbit rotation i -> i+1 preserves adjacency, exhaustively.
    sym = BicirculantSymbol(8, {1, -1, 4}, {3, -3, 4}, {0, 2})
    g = bicirculant(sym)
    n = sym.n

    def rho(v: int) -> int:
        return (v + 1) % n if v < n else n + ((v - n + 1) % n)

    for u in range(g.n):
        for v in range(g.n):
            assert g.adjacent(u, v) == g.adjacent(rho(u), rho(v))

    tsym = TricirculantSymbol(5, {1, -1}, {2, -2}, {1, -1}, {0}, {1, 2}, {0, 3})
    t = tricirculant(tsym)

    def rho3(v: int) -> int:
        orbit, i = divmod(v, 5)
        return orbit * 5 + (i + 1) % 5

    for u in range(t.n):
        for v in range(t.n):
            assert t.adjacent(u, v) == t.adjacent(rho3(u), rho3(v))


def test_bicirculant_complement_identity():
    # complement(bicirculant([S,S',T])) equals bicirculant([S^,S'^,T^c]) on
    # the same labels.
    sym = BicirculantSymbol(8, {1, -1}, {3, -3}, {0, 1, -1, 4})
    assert complement(bicirculant(sym)) == bicirculant(sym.complement())


@pytest.mark.parametrize("n", [5, 8, 13])
def test_symbol_equivalences_give_isomorphic_graphs(n):
    base = {
        5: BicirculantSymbol(5, {1, -1}, {2, -2}, {0}),
        8: BicirculantSymbol(8, {1, -1, 4}, {3, -3, 4}, {0, 2}),
        13: BicirculantSymbol(13, {1, -1, 3, -3, 4, -4}, {2, -2, 5, -5, 6, -6}, {0, 1, 3, 9}),
    }[n]
    g = bicirculant(base)
    assert is_isomorphic(g, bicirculant(base.translate(1))) is not None
    multiplier = 2 if n != 8 else 3
    assert is_isomorphic(g, bicirculant(base.multiply(multiplier))) is not None
    assert is_isomorphic(g, bicirculant(base.swap_orbits())) is not None


def test_tricirculant_trivial_cases():
    empty9 = tricirculant(TricirculantSymbol(3, (), (), (), (), (), ()))
    assert empty9 == empty_graph(9)
    s = {1, 2, 3, 4}
    three_k5 = tricirculant(TricirculantSymbol(5, s, s, s, (), (), ()))
    assert is_isomorphic(
        three_k5, disjoint_union(complete_graph(5), complete_graph(5), complete_graph(5))
    )


def test_paley_examples():
    assert paley(5) == cycle_graph(5)
    assert srg_params(paley(13)).as_tuple() == (13, 6, 2, 3)
    assert srg_params(paley(17)).as_tuple() == (17, 8, 3, 4)
    with pytest.raises(ValueError):
        paley(9)
    with pytest.raises(ValueError):
        paley(7)


def test_triangular_examples():
    assert is_isomorphic(triangular(5), complement(named_graph("petersen")))
    assert srg_params(triangular(6)).as_tuple() == (15, 8, 4, 4)
    assert srg_params(triangular(7)).as_tuple() == (21, 10, 5, 4)
    with pytest.raises(ValueError):
        triangular(2)


@pytest.mark.parametrize("m", range(3, 10))
def test_triangular_is_line_graph_of_complete_graph(m):
    # T(m) by its definition: the 2-subsets of {1..m} in lexicographic
    # order, adjacent when they meet.
    pairs = list(combinations(range(1, m + 1), 2))
    edges = [(i, j) for j in range(len(pairs)) for i in range(j) if set(pairs[i]) & set(pairs[j])]
    assert triangular(m) == line_graph(complete_graph(m)) == Graph.from_edges(len(pairs), edges)


def test_line_graph_matches_pair_loop():
    # Incident-edge masks against the loop over every pair of edges, on
    # seeded random graphs of every density and on the corpus.
    rng = random.Random(26)
    graphs = [named_graph(tag) for tag in named_tags() if tag != "paley-<p>"]
    for n in range(2, 31):
        p = (0.05, 0.2, 0.5, 0.9, 1.0)[n % 5]
        edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < p] or [(0, 1)]
        graphs.append(Graph.from_edges(n, edges))
    for g in graphs:
        assert line_graph(g) == reference_line_graph(g), g


# The graph6 of every registry tag, paley-<p> at p = 13: a change to how a
# named graph is built or labelled shows here.
_NAMED_GRAPH6 = {
    "c5": "Dhc",
    "clebsch": "OhdHKeAOT?ICIKDM@R_I[",
    "gq22": "N{S{aKj`QSeFaKSPcpW",
    "k4xk4": "OhCGKELpbEUKuCZIEq_uS",
    "petersen": "IheA@GUAo",
    "shrikhande-a": "OhCGKFHxBcFKfCRiCyceS",
    "shrikhande-b": "OzK[]KD_aBSESEIJAeoSu",
    "t6-complement": "N??yrPoe\\TUWrHtQ[q?",
    "t7": "T~~}DERa{NkWShQdgpxbKITSdKwpeohTkKXn",
    "paley-13": "LlthgsL`mEkLkL",
}


def test_named_graph6_pinned():
    tags = [tag.replace("<p>", "13") for tag in named_tags()]
    assert {tag: encode_graph6(named_graph(tag)) for tag in tags} == _NAMED_GRAPH6


def test_line_graph_and_product():
    assert is_isomorphic(
        line_graph(complete_bipartite(4, 4)),
        cartesian_product(complete_graph(4), complete_graph(4)),
    )
    assert is_isomorphic(cartesian_product(complete_graph(2), complete_graph(2)), cycle_graph(4))
    assert is_isomorphic(line_graph(cycle_graph(5)), cycle_graph(5))
    assert triangular(6) == line_graph(complete_graph(6))


def test_complement_involution():
    pet = named_graph("petersen")
    assert complement(complement(pet)) == pet
    assert complement(complete_graph(4)) == empty_graph(4)


def test_gq22_voltage_facts():
    g = gq22_voltage()
    assert g.n == 15
    assert all(g.degree(v) == 6 for v in range(15))
    assert srg_params(g).as_tuple() == (15, 6, 1, 3)
    assert is_isomorphic(g, complement(triangular(6))) is not None
    assert is_isomorphic(g, complement(line_graph(complete_graph(6)))) is not None


def test_symbol_text_round_trip():
    sym = BicirculantSymbol(8, {1, -1, 4}, {3, -3, 4}, {0, 2})
    assert parse_symbol(sym.text()) == sym
    assert symbol_graph(parse_symbol(sym.text())) == bicirculant(sym)
    tsym = TricirculantSymbol(5, {1, -1}, (), (), {0}, {1}, {2})
    assert parse_symbol(tsym.text()) == tsym
    assert symbol_graph(parse_symbol("circ:n=5;S=1,-1")) == cycle_graph(5)
    with pytest.raises(ValueError):
        parse_symbol("bi:n=8;S=1")
    with pytest.raises(ValueError):
        parse_symbol("hex:n=8;S=1,-1")
    with pytest.raises(ValueError):
        parse_symbol("bi:n=8;S=a,b;Sp=;T=")


def test_named_registry():
    assert named_graph("C5") == cycle_graph(5)
    assert srg_params(named_graph("paley-13")).as_tuple() == (13, 6, 2, 3)
    with pytest.raises(ValueError):
        named_graph("nope")
    with pytest.raises(ValueError):
        named_graph("paley-x")


def test_builders_match_reference_on_random_symbols():
    import random

    from isoreg import BicirculantSymbol, TricirculantSymbol, bicirculant, tricirculant
    from isoreg.search import symmetric_subsets

    from conftest import reference_bicirculant, reference_tricirculant

    rng = random.Random(20251018)
    for _ in range(200):
        n = rng.randint(2, 12)
        sym_sets = symmetric_subsets(n)

        def any_set():
            return [r for r in range(n) if rng.random() < 0.5]

        bi = BicirculantSymbol(n, rng.choice(sym_sets), rng.choice(sym_sets), any_set())
        assert bicirculant(bi).rows() == reference_bicirculant(bi).rows(), bi.text()
        tri = TricirculantSymbol(
            n, *(rng.choice(sym_sets) for _ in range(3)), *(any_set() for _ in range(3))
        )
        assert tricirculant(tri).rows() == reference_tricirculant(tri).rows(), tri.text()


def _random_symbols(seed, count):
    """count seeded random symbols for each r = 1, 2, 3 at n = 2..12, with
    residues given unreduced (negative or beyond n)."""
    import random

    from isoreg import Symbol
    from isoreg.search import symmetric_subsets

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 12)
        sym_sets = symmetric_subsets(n)

        def unreduced(residues):
            return [v + n * rng.randint(-2, 2) for v in residues]

        for r in (1, 2, 3):
            diagonals = [unreduced(rng.choice(sym_sets)) for _ in range(r)]
            connections = [
                unreduced(v for v in range(n) if rng.random() < 0.5)
                for _ in range(r * (r - 1) // 2)
            ]
            out.append(Symbol(n, diagonals, connections))
    return out


def test_symbol_text_and_key_match_reference_on_random_symbols():
    # text() and key() keep the per-r formats byte for byte, and the text,
    # circ: included, parses back to the same symbol.
    from conftest import reference_symbol_key, reference_symbol_text

    for sym in _random_symbols(20261018, 150):
        text = sym.text()
        assert text == reference_symbol_text(sym)
        assert sym.key() == reference_symbol_key(sym)
        assert parse_symbol(text) == sym, text


def test_symbol_complement_is_graph_complement_on_random_symbols():
    for sym in _random_symbols(1018, 60):
        assert complement(symbol_graph(sym)) == symbol_graph(sym.complement()), sym.text()


@pytest.mark.parametrize("n", [5, 7, 8])
def test_tricirculant_multiply_gives_isomorphic_graph(n):
    import random
    from math import gcd

    from isoreg.search import symmetric_subsets

    rng = random.Random(n)
    sym_sets = symmetric_subsets(n)
    sym = TricirculantSymbol(
        n, *(rng.choice(sym_sets) for _ in range(3)),
        *([v for v in range(n) if rng.random() < 0.5] for _ in range(3)),
    )
    g = tricirculant(sym)
    for a in range(2, n):
        if gcd(a, n) == 1:
            assert is_isomorphic(g, tricirculant(sym.multiply(a))) is not None, (a, sym.text())


def test_bicirculant_methods_reject_other_orbit_counts():
    from isoreg import Symbol

    for sym in (Symbol(5, [{1, 4}]), TricirculantSymbol(5, {1, 4}, (), (), {0}, {1}, {2})):
        with pytest.raises(ValueError):
            sym.translate(1)
        with pytest.raises(ValueError):
            sym.swap_orbits()


def _validation_error(n, rows):
    """The ValueError text of Graph(n, rows), or None when it is accepted."""
    try:
        g = Graph(n, rows)
    except ValueError as exc:
        return str(exc)
    assert g.rows() == tuple(rows)
    return None


def _reference_error(n, rows):
    from conftest import reference_symmetric

    try:
        reference_symmetric(n, rows)
    except ValueError as exc:
        return str(exc)
    return None


def _flip(rows, u, v):
    rows = list(rows)
    rows[u] ^= 1 << v
    return rows


def test_symmetry_kernel_matches_pair_loop_on_random_matrices():
    # N = 1..70 crosses the row strides p = 8, 16, 32, 64 and 128.  Each
    # matrix is symmetric, or carries one flipped off-diagonal bit, alone or
    # with a loop, a bit outside 0..n-1 (both reported first) or a second
    # flipped bit anywhere.
    import random

    rng = random.Random(20261018)
    rejected = 0
    for n in range(1, 71):
        for trial in range(40):
            density = rng.random()
            rows = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < density:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
            kind = trial % 5
            if kind and n > 1:
                u, v = rng.sample(range(n), 2)
                rows = _flip(rows, u, v)
            if kind == 2:
                u = rng.randrange(n)
                rows = _flip(rows, u, u)
            elif kind == 3:
                rows = _flip(rows, rng.randrange(n), n + rng.randrange(8))
            elif kind == 4:
                u = rng.randrange(n)
                rows = _flip(rows, u, rng.randrange(n))
            want = _reference_error(n, rows)
            assert _validation_error(n, rows) == want, (n, trial)
            rejected += want is not None
    assert 0 < rejected < 70 * 40


@pytest.mark.parametrize("n", [1100, 4096])
def test_symmetry_kernel_matches_pair_loop_on_large_matrices(n):
    import random

    rng = random.Random(n)
    rows = [0] * n
    for _ in range(8 * n):
        u, v = rng.sample(range(n), 2)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    assert _validation_error(n, rows) is _reference_error(n, rows) is None
    flipped = _flip(rows, *rng.sample(range(n), 2))
    want = _reference_error(n, flipped)
    assert want.startswith("adjacency not symmetric")
    assert _validation_error(n, flipped) == want
