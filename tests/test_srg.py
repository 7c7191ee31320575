"""Strong regularity detection, exact spectra, and the clique bound."""

import hashlib
import random
from itertools import product
from math import isqrt

import pytest

from isoreg import (
    Graph,
    SrgParams,
    complement,
    complement_params,
    eigenvalues,
    hoffman_bound,
    named_graph,
    srg_params,
    subconstituent,
)

from isoreg.graphs import vertices_to_bits
from isoreg.srg import block_srg_params
from isoreg.symbols import _LAYOUT, Symbol, negated_mask, row_blocks, symbol_graph

from conftest import (
    build_corpus,
    is_connected,
    max_clique,
    nontrivial_params,
    symmetric_subsets,
)


def test_srg_params_named():
    assert srg_params(named_graph("petersen")).as_tuple() == (10, 3, 0, 1)
    assert srg_params(named_graph("clebsch")).as_tuple() == (16, 5, 0, 2)
    assert srg_params(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])) is None


def test_verify_identity():
    assert SrgParams(16, 6, 2, 2).identity_holds()
    assert SrgParams(10, 3, 0, 1).identity_holds()
    assert not SrgParams(10, 3, 1, 1).identity_holds()


def test_identity_holds_across_corpus():
    for name, g in build_corpus().items():
        p = srg_params(g)
        if p is not None:
            assert p.identity_holds(), name


def test_complement_params():
    assert complement_params(SrgParams(16, 5, 0, 2)).as_tuple() == (16, 10, 6, 6)
    assert complement_params(SrgParams(10, 3, 0, 1)).as_tuple() == (10, 6, 3, 4)
    p = SrgParams(16, 6, 2, 2)
    assert complement_params(complement_params(p)) == p


def test_complement_params_match_measured():
    for name, g in build_corpus().items():
        p = srg_params(g)
        if p is None or not p.is_nontrivial():
            continue
        assert srg_params(complement(g)) == complement_params(p), name


def test_eigenvalues_integer_case():
    assert eigenvalues(SrgParams(16, 6, 2, 2)) == ("6", "2", "-2")


def test_eigenvalues_family_discriminant():
    # (lam-mu)^2 + 4(k-mu) = (2m+1)^2 for the twice-odd family; r = m and
    # s = -(m+1) exactly.
    for m in range(1, 101):
        p = SrgParams(2 * (2 * m * m + 2 * m + 1), m * (2 * m + 1), m * m - 1, m * m)
        disc = (p.lam - p.mu) ** 2 + 4 * (p.k - p.mu)
        assert disc == (2 * m + 1) ** 2
        assert eigenvalues(p) == (str(p.k), str(m), str(-(m + 1)))
    # lam = mu families have s = -sqrt(k - mu) = -m.
    for m in range(2, 40):
        p = SrgParams(4 * m * m, 2 * m * m + m, m * m + m, m * m + m)
        assert eigenvalues(p)[1:] == (str(m), str(-m))


def test_eigenvalues_conference_case():
    assert eigenvalues(SrgParams(5, 2, 0, 1)) == ("2", "(-1+sqrt(5))/2", "(-1-sqrt(5))/2")
    # The discriminant 45 = 3^2 * 5 is not squarefree.
    p = SrgParams(45, 22, 10, 11)
    assert eigenvalues(p) == ("22", "(-1+3sqrt(5))/2", "(-1-3sqrt(5))/2")
    assert hoffman_bound(p) == "3sqrt(5)"


def test_eigenvalue_relations_on_corpus():
    # Where the discriminant is a square, r and s print as integers with
    # r + s = lambda - mu and rs = mu - k; elsewhere both are surds.
    squares = 0
    for name, g in build_corpus().items():
        p = srg_params(g)
        if p is None or not p.is_nontrivial():
            continue
        disc = (p.lam - p.mu) ** 2 + 4 * (p.k - p.mu)
        k, r, s = eigenvalues(p)
        assert k == str(p.k), name
        if isqrt(disc) ** 2 != disc:
            assert "sqrt" in r and "sqrt" in s, name
            continue
        r, s = int(r), int(s)
        assert r + s == p.lam - p.mu, name
        assert r * s == p.mu - p.k, name
        squares += 1
    assert squares


def test_hoffman_bound_values():
    assert hoffman_bound(SrgParams(16, 6, 2, 2)) == "4"
    assert hoffman_bound(SrgParams(10, 3, 0, 1)) == "5/2"
    for m in range(2, 30):
        p = SrgParams(4 * m * m, 2 * m * m + m, m * m + m, m * m + m)
        assert hoffman_bound(p) == str(2 + 2 * m)


def test_hoffman_bound_is_a_theorem_on_corpus():
    # Every clique found by exhaustive search respects 1 + k/(-s), with
    # -s = (sqrt(D) - c)/2, c = lambda - mu and D = c^2 + 4(k - mu).  For a
    # clique size w and x = 2k + (w - 1)c, w <= 1 + k/(-s) holds iff
    # x >= 0 and (w - 1)^2 D <= x^2.
    for name, g in build_corpus().items():
        p = srg_params(g)
        if p is None or not p.is_nontrivial():
            continue
        c = p.lam - p.mu
        disc = c * c + 4 * (p.k - p.mu)
        w = max_clique(g)
        x = 2 * p.k + (w - 1) * c
        assert x >= 0 and (w - 1) ** 2 * disc <= x * x, name


def test_hoffman_k4xk4_tight():
    assert str(max_clique(named_graph("k4xk4"))) == hoffman_bound(SrgParams(16, 6, 2, 2)) == "4"


def test_spectral_text_pinned_over_parameter_sweep():
    # The eigenvalue and Hoffman-bound text of every nontrivial set with
    # 5 <= n <= 89, one line per set, against the SHA-256 recorded from the
    # general quadratic-surd class that printed them before the closed forms.
    # No named graph has a discriminant that is neither a square nor
    # squarefree; 2,320 sets here do, so this pins the squarefree split.
    lines = []
    irrational = folded = 0
    for p in nontrivial_params(5, 89):
        k, r, s = eigenvalues(p)
        bound = hoffman_bound(p)
        lines.append(f"{p.n},{p.k},{p.lam},{p.mu} {k} {r} {s} {bound}\n")
        irrational += "sqrt" in f"{bound}"
        disc = (p.lam - p.mu) ** 2 + 4 * (p.k - p.mu)
        folded += isqrt(disc) ** 2 != disc and any(
            disc % (f * f) == 0 for f in range(2, isqrt(disc) + 1))
    assert (len(lines), irrational, folded) == (4320, 3949, 2320)
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "3128c68d4a4abc17b5ac7ea883481b1e41f8ff2909527c97f8cf233d831d1825"


def test_subconstituents():
    sub = subconstituent(named_graph("paley-13"), 0, 1)
    assert sub.n == 6
    assert [sub.degree(u) for u in range(sub.n)] == [2] * 6
    assert is_connected(sub)  # a single hexagon

    cleb = named_graph("clebsch")
    sub1 = subconstituent(cleb, 0, 1)
    assert (sub1.n, sub1.edge_count()) == (5, 0)

    gq = named_graph("gq22")
    sub = subconstituent(gq, 0, 1)
    assert (sub.n, sub.edge_count()) == (6, 3)
    assert [sub.degree(u) for u in range(sub.n)] == [1] * 6  # 3K2

    with pytest.raises(ValueError):
        subconstituent(cleb, 0, 3)


def test_is_nontrivial_srg():
    corpus = build_corpus()
    assert not srg_params(corpus["k6"]).is_nontrivial()
    assert not srg_params(corpus["3k2"]).is_nontrivial()
    assert srg_params(corpus["petersen"]).is_nontrivial()


def test_eigenvalues_reject_trivial():
    with pytest.raises(ValueError):
        eigenvalues(SrgParams(6, 5, 4, 0))
    with pytest.raises(ValueError):
        hoffman_bound(SrgParams(6, 5, 4, 0))


def _symbol_srg_params(sym):
    """block_srg_params on the row blocks of sym, made from its sets."""
    conns = [vertices_to_bits(t) for t in sym.connections]
    blocks = row_blocks([vertices_to_bits(s) for s in sym.diagonals], conns,
                        [negated_mask(t, sym.n) for t in conns])
    return block_srg_params(sym.n, blocks)


def _random_symbol(rng, n, r):
    """A seeded random r-orbit symbol; each set is empty, full or random
    with equal odds, so the vacuous lambda and mu cases come up often."""
    def pick(universe, pairs):
        kind = rng.randrange(3)
        if kind < 2:
            return universe if kind else set()
        return {v for pair in pairs if rng.random() < 0.5 for v in pair}

    nonzero = set(range(1, n))
    sym_pairs = [{d, n - d} for d in range(1, n // 2 + 1)]
    diagonals = [pick(nonzero, sym_pairs) for _ in range(r)]
    connections = [pick(set(range(n)), [{v} for v in range(n)]) for _ in _LAYOUT[r][2]]
    return Symbol(n, diagonals, connections)


def test_block_srg_params_matches_graph_on_random_symbols():
    # The symbol-level test against srg_params of the built graph, on
    # circulants, bicirculants and tricirculants, hits and misses alike.
    rng = random.Random(9)
    outcomes = set()
    for n in range(2, 15):
        for r in (1, 2, 3):
            for _ in range(60):
                sym = _random_symbol(rng, n, r)
                want = srg_params(symbol_graph(sym))
                assert _symbol_srg_params(sym) == want, sym.text()
                outcomes.add((r, want is None))
    assert outcomes == {(r, miss) for r in (1, 2, 3) for miss in (True, False)}


@pytest.mark.parametrize("n", range(2, 15))
def test_block_srg_params_matches_graph_on_vacuous_symbols(n):
    # Empty and full diagonal and connection sets: the complete, empty and
    # complete multipartite cases, where lambda or mu is vacuous.
    diagonals = (set(), set(range(1, n)))
    connections = (set(), set(range(n)))
    syms = [Symbol(n, (s,)) for s in diagonals]
    syms += [Symbol(n, ds, (t,)) for ds in product(diagonals, repeat=2) for t in connections]
    syms += [Symbol(n, ds, ts) for ds in product(diagonals, repeat=3)
             for ts in product(connections, repeat=3)]
    for sym in syms:
        assert _symbol_srg_params(sym) == srg_params(symbol_graph(sym)), sym.text()


def test_block_srg_params_matches_graph_on_every_small_symbol():
    # Every bicirculant symbol for n <= 6 and every tricirculant symbol for
    # n <= 3.
    count = hits = 0
    for n, r in [(n, 2) for n in range(2, 7)] + [(2, 3), (3, 3)]:
        diagonals = symmetric_subsets(n)
        connections = [[v for v in range(n) if m >> v & 1] for m in range(1 << n)]
        for ds in product(diagonals, repeat=r):
            for ts in product(connections, repeat=len(_LAYOUT[r][2])):
                sym = Symbol(n, ds, ts)
                want = srg_params(symbol_graph(sym))
                assert _symbol_srg_params(sym) == want, sym.text()
                count += 1
                hits += want is not None
    assert count == 2 * 2 * 4 + 2 * 2 * 8 + 4 * 4 * 16 + 4 * 4 * 32 + 8 * 8 * 64 + 8 * 64 + 8 * 512
    assert hits
