"""Symbol-space searches: enumeration, pruning soundness, deduplication."""

import pytest

from isoreg import (
    SearchCapError,
    SearchSpec,
    SrgParams,
    confirm_nonexistence_bicirc_odd,
    is_isomorphic,
    named_graph,
    search_bicirculant,
    search_tricirculant_srg,
    symbol_graph,
    symmetric_subsets,
)
from isoreg.formats import decode_graph6
from isoreg.search import triples_isoregular


def test_symmetric_subsets_examples():
    assert symmetric_subsets(5) == [(), (1, 4), (2, 3), (1, 2, 3, 4)]
    assert symmetric_subsets(8, 3) == [(1, 4, 7), (2, 4, 6), (3, 4, 5)]
    assert len(symmetric_subsets(13, 6)) == 20
    assert symmetric_subsets(5, 3) == []  # no self-paired element at odd n
    for s in symmetric_subsets(9):
        assert all((9 - x) % 9 in s for x in s)


def test_search_petersen_target():
    result = search_bicirculant(SearchSpec(n=5, target=SrgParams(10, 3, 0, 1)))
    assert result.stats.candidates == 512
    assert result.stats.classes == 1
    rep = result.survivors[result.class_reps[0]].graph
    assert is_isomorphic(rep, named_graph("petersen")) is not None
    # Survivor records replay: symbol reconstructs to the recorded data.
    for survivor in result.survivors:
        g = symbol_graph(survivor.symbol)
        assert g == survivor.graph
        assert decode_graph6(survivor.graph6) == g
        from isoreg import srg_params

        assert srg_params(g) == survivor.params
        assert triples_isoregular(g) == survivor.profile


def _assert_matches_plain_product(spec):
    """The search against the plain product of the reference worker, which
    judges every symbol of the space: the same records and, with no target
    (every strongly regular graph counts), the same counters."""
    from conftest import reference_bicirc_run

    candidates, records, counts = reference_bicirc_run(spec, use_pruning=False)
    result = search_bicirculant(spec)
    got = [(s.symbol.key(), s.params.as_tuple(), s.profile, s.iso3) for s in result.survivors]
    assert got == records
    assert result.stats[:5] == (candidates, *counts, len(records))


def test_pruning_soundness_full_n5():
    _assert_matches_plain_product(SearchSpec(n=5))


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(n=5, s_size=2, sp_is_complement=True, t_size=1),
        SearchSpec(n=8, s_size=3, sp_size=3, t_size=2),
        SearchSpec(n=9, s_size=4, sp_is_complement=True),
    ],
    ids=["n5-complement", "n8-sizes", "n9-complement"],
)
def test_pruning_soundness_on_restricted_sizes(spec):
    # Only masks of the allowed sizes are built, S' of sizes n-1-s under
    # sp_is_complement; the join still agrees with the plain product on
    # survivors and counters.
    _assert_matches_plain_product(spec)


def test_symmetric_masks_by_size_match_brute_force():
    # Closed-form counts and size-restricted mask lists against a scan of
    # every mask of Z_n minus 0 with S = -S.
    from isoreg.search import _symmetric_count, _symmetric_masks

    for n in range(2, 15):
        symmetric = [
            m for m in range(0, 1 << n, 2)
            if all((m >> d & 1) == (m >> (n - d) & 1) for d in range(1, n))
        ]
        assert sorted(_symmetric_masks(n)) == symmetric
        for size in range(n):
            want = [m for m in symmetric if m.bit_count() == size]
            assert sorted(_symmetric_masks(n, [size])) == want, (n, size)
            assert _symmetric_count(n, size) == len(want), (n, size)
        assert _symmetric_masks(n, []) == _symmetric_masks(n, [-1, n]) == []
    # A size restriction builds no other mask, so a large modulus is cheap.
    assert symmetric_subsets(60, 0) == [()]
    assert len(symmetric_subsets(60, 2)) == 29


def test_search_caps():
    with pytest.raises(SearchCapError):
        search_bicirculant(SearchSpec(n=15))
    with pytest.raises(SearchCapError):
        search_tricirculant_srg(14, SrgParams(42, 10, 3, 2))
    # 2n above MAX_VERTICES is refused before any candidate count, even for
    # a one-symbol space.
    for n in (2049, 200000):
        with pytest.raises(SearchCapError, match=f"2n = {2 * n} above the vertex cap 4096"):
            search_bicirculant(SearchSpec(n=n, s_size=0, sp_size=0, t_size=0))
    with pytest.raises(SearchCapError) as info:
        search_bicirculant(SearchSpec(n=20000))
    assert info.value.estimate is None
    # The odd run reaches as far as the candidate cap.
    with pytest.raises(SearchCapError) as info:
        confirm_nonexistence_bicirc_odd(15)
    assert info.value.estimate == 536870912


def test_search_jobs_deterministic():
    spec = SearchSpec(n=8, target=SrgParams(16, 5, 0, 2))
    serial = search_bicirculant(spec, jobs=1)
    parallel = search_bicirculant(spec, jobs=2)
    assert [s.to_json() for s in serial.survivors] == [s.to_json() for s in parallel.survivors]
    assert serial.stats == parallel.stats
    assert serial.stats.classes == 1  # the Clebsch graph


def test_thm22_constrained_search_n5():
    # Constrained form of the twice-odd search: S' = S-hat, |S| = 2, |T| = 1.
    spec = SearchSpec(
        n=5, target=SrgParams(10, 3, 0, 1), s_size=2, t_size=1, sp_is_complement=True
    )
    result = search_bicirculant(spec)
    assert result.stats.candidates == 10  # 2 symmetric pairs x 5 singletons
    assert result.stats.classes == 1
    assert all(s.symbol.sp == s.symbol.s_hat() for s in result.survivors)


def test_thm22_constrained_search_n13():
    # |S| = m(m+1) = 6, S' = S-hat, |T| = m^2 = 4 at m = 2: the constrained
    # space is 20 x 715 symbols and contains the SRG(26,10,3,4) class.
    spec = SearchSpec(
        n=13, target=SrgParams(26, 10, 3, 4), s_size=6, t_size=4, sp_is_complement=True
    )
    result = search_bicirculant(spec)
    assert result.stats.candidates == 20 * 715
    assert result.stats.classes >= 1
    assert all(s.params.as_tuple() == (26, 10, 3, 4) for s in result.survivors)


def test_tricirculant_t6_target():
    result = search_tricirculant_srg(5, SrgParams(15, 8, 4, 4))
    from isoreg import triangular

    reps = [result.survivors[i].graph for i in result.class_reps]
    assert any(is_isomorphic(g, triangular(6)) is not None for g in reps)


def test_confirm_odd_n5():
    run = confirm_nonexistence_bicirc_odd(5)
    assert run.family_index == 1
    assert run.result.stats.iso3 == 0
    assert run.locally_iso3_classes == 0  # not even locally 3-isoregular
    assert run.structure_ok
    # Petersen-side symbols have |T| = 1, complement-side |T| = 4.
    t_sizes = {s.params.as_tuple(): len(s.symbol.t) for s in run.result.survivors}
    assert t_sizes == {(10, 3, 0, 1): 1, (10, 6, 3, 4): 4}
    with pytest.raises(ValueError):
        confirm_nonexistence_bicirc_odd(6)
    with pytest.raises(ValueError):
        confirm_nonexistence_bicirc_odd(15)


def test_confirm_odd_n7_no_survivors():
    run = confirm_nonexistence_bicirc_odd(7)
    assert run.family_index is None  # 14 is not (2m+1)^2 + 1
    assert run.result.stats.nontrivial_srg == 0
    assert run.structure_ok


def test_tricirculant_small_space():
    # n = 3 with an unreachable valency: the degree equations are infeasible.
    result = search_tricirculant_srg(3, SrgParams(9, 9, 8, 9))
    assert result.stats.candidates == 0
    assert result.survivors == ()


def test_tricirculant_pruning_soundness_n3():
    # The join against the plain product of the six-loop reference worker,
    # which judges every symbol of the space.
    from conftest import reference_tricirc_worker

    target = SrgParams(9, 4, 1, 2)
    records, counts = reference_tricirc_worker((3, target.as_tuple(), False, True, 0, 1))
    result = search_tricirculant_srg(3, target)
    got = [(s.symbol.key(), s.params.as_tuple(), s.profile, s.iso3) for s in result.survivors]
    assert got == sorted(records)
    assert result.stats[1:5] == (*counts, len(records))
    assert result.stats.classes == 1


def test_closure_under_symbol_equivalences():
    # Survivors of the full n = 8 3-isoregular run are closed under
    # translation, multiplier, orbit swap, and complementation.
    result = search_bicirculant(SearchSpec(n=8, require_iso3=True))
    keys = {s.symbol.key() for s in result.survivors}
    for survivor in result.survivors:
        sym = survivor.symbol
        assert sym.translate(1).key() in keys
        assert sym.multiply(3).key() in keys
        assert sym.swap_orbits().key() in keys
        assert sym.complement().key() in keys


def test_iso3_survivor_profiles_replay():
    from isoreg import iso_profile

    result = search_bicirculant(SearchSpec(n=8, require_iso3=True))
    for survivor in result.survivors:
        assert iso_profile(survivor.graph, 3).size3() == survivor.profile


def _tricirc_targets(n):
    """Every parameter set on 3n vertices that satisfies the identity
    k(k - lambda - 1) = mu(v - 1 - k), trivial ones included; the complete
    graph reports its vacuous mu as 0."""
    order = 3 * n
    return [
        SrgParams(order, k, lam, mu)
        for k in range(order)
        for lam in range(max(k, 1))
        for mu in range(k + 1)
        if k * (k - lam - 1) == mu * (order - 1 - k) and not (k == order - 1 and mu)
    ]


def test_parameter_nontriviality_matches_connectivity(monkeypatch):
    # Every strongly regular graph the searches count, trivial ones included:
    # 0 < mu < k holds exactly when the graph and its complement are
    # connected, so the searches need no connectivity test.  Both searches
    # count every strongly regular graph they build, so a judged candidate
    # that raised the srg counter is one.
    import isoreg.search as search_mod
    from isoreg import Symbol, complement, srg_params
    from isoreg.search import _mask_to_set

    seen = []
    judge = search_mod._judge

    def recording_judge(rule, diags, conns, negs, records, counts):
        before = counts[0]
        judge(rule, diags, conns, negs, records, counts)
        if counts[0] > before:
            n = rule[0]
            g = symbol_graph(Symbol(n, [_mask_to_set(m, n) for m in diags],
                                    [_mask_to_set(m, n) for m in conns]))
            seen.append((g, srg_params(g)))

    monkeypatch.setattr(search_mod, "_judge", recording_judge)
    for m in range(2, 9):
        search_bicirculant(SearchSpec(n=m))
    assert len(seen) == 282
    for n in (3, 5):
        for target in _tricirc_targets(n):
            search_tricirculant_srg(n, target)
    assert len(seen) == 282 + 394
    for g, p in seen:
        connected = g.is_connected() and complement(g).is_connected()
        assert p.is_nontrivial() == connected, p.as_tuple()
    assert 0 < sum(p.is_nontrivial() for _, p in seen) < len(seen)


def _inline_pool(monkeypatch) -> list[int]:
    """Replace the process pool with one that records its size and runs the
    shards inline, so no large pool is ever started; returns the sizes."""
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


def test_jobs_clamped_to_cpu_count(monkeypatch):
    import os

    sizes = _inline_pool(monkeypatch)
    spec = SearchSpec(n=6)
    serial = search_bicirculant(spec)
    tri_serial = search_tricirculant_srg(3, SrgParams(9, 4, 1, 2))
    assert sizes == []
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert search_bicirculant(spec, jobs=1000) == serial
    assert search_tricirculant_srg(3, SrgParams(9, 4, 1, 2), jobs=1000) == tri_serial
    assert sizes == [3, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert search_bicirculant(spec, jobs=1000) == serial
    assert sizes == [3, 3]


def _bicirc_specs(n):
    """The spaces the bicirculant search is compared on at modulus n: the full
    space, S' = S-hat, the 3-isoregular filter, every size filter, every
    S-hat size combination, every parameter set the space contains as a
    target, and each of those with lambda + 1, a target that the strongly
    regular graphs of its valency miss."""
    from conftest import reference_bicirc_run

    sizes = sorted({len(s) for s in symmetric_subsets(n)})
    base = SearchSpec(n=n)
    specs = [base, base._replace(sp_is_complement=True), base._replace(require_iso3=True)]
    specs += [base._replace(s_size=a) for a in sizes]
    specs += [base._replace(sp_size=a) for a in sizes]
    specs += [base._replace(t_size=b) for b in range(n + 1)]
    specs += [
        base._replace(sp_is_complement=True, s_size=a, t_size=b)
        for a in sizes
        for b in range(n + 1)
    ]
    targets = sorted({params for _, params, _, _ in
                      reference_bicirc_run(base, nontrivial_only=False)[1]})
    targets += [(v, k, lam + 1, mu) for v, k, lam, mu in targets]
    specs += [base._replace(target=SrgParams(*t)) for t in targets]
    specs += [base._replace(target=SrgParams(*t), sp_is_complement=True) for t in targets]
    return specs


def _assert_same_symbols(result, built, target, records, iso3_only=False):
    """A search's result and the strongly regular symbols it built
    (``conftest.srg_symbols_built``) against a reference's sorted records,
    trivial target matches included: the nontrivial records are the
    survivors, and the (key, params) of all of them are the built symbols
    that meet the target, symbol by symbol.  With iso3_only the reference
    kept only the 3-isoregular matches, so they are among those symbols."""
    got = [(s.symbol.key(), s.params.as_tuple(), s.profile, s.iso3) for s in result.survivors]
    assert got == [rec for rec in records if SrgParams(*rec[1]).is_nontrivial()]
    hits = [rec for rec in built if target is None or rec[1] == target.as_tuple()]
    matched = [rec[:2] for rec in records]
    if iso3_only:
        assert set(matched) <= set(hits)
    else:
        assert matched == hits
    assert result.stats.srg == len(built)


@pytest.mark.parametrize("n", range(2, 9))
def test_bicirc_worker_matches_reference(n):
    # The join against the nested-loop worker, pruned: same candidate count,
    # records and counters on every space; and against its plain product,
    # which judges every symbol: same records.  Both references keep the
    # trivial target matches, which are compared symbol by symbol with the
    # symbols the search built.  With a target the plain product also counts
    # the strongly regular graphs of the target's valency that miss it, so
    # only the target-hit counters match it.  At n = 8 only the full space,
    # which contains all the others, is compared with the plain product.
    from conftest import reference_bicirc_run, srg_symbols_built

    for i, spec in enumerate(_bicirc_specs(n)):
        result, built = srg_symbols_built(search_bicirculant, spec)
        stats = list(result.stats[:4])
        candidates, records, counts = reference_bicirc_run(spec, nontrivial_only=False)
        _assert_same_symbols(result, built, spec.target, records, spec.require_iso3)
        assert stats == [candidates, *counts], spec
        if n < 8 or i == 0:
            candidates, records, counts = reference_bicirc_run(spec, use_pruning=False,
                                                               nontrivial_only=False)
            _assert_same_symbols(result, built, spec.target, records, spec.require_iso3)
            assert stats[0] == candidates and stats[2:] == counts[1:], spec
            if spec.target is None:
                assert stats[1] == counts[0], spec


@pytest.mark.parametrize(
    "n,target,pruned_reference",
    [(3, t, prune) for t in [*_tricirc_targets(3), SrgParams(9, 8, 7, 3)]
     for prune in (True, False)]
    + [(5, t, True) for t in _tricirc_targets(5)]
    + [(7, SrgParams(21, 10, 5, 4), True)],
    ids=str,
)
def test_tricirc_worker_matches_reference(monkeypatch, n, target, pruned_reference):
    # The join against the six-loop worker it replaced, pruned, on every
    # parameter set at n = 3 and 5, on (9,8,7,3) at n = 3, whose join builds
    # only K9, which misses it, and on (21,10,5,4) at n = 7, and against that
    # worker's plain product, which judges every symbol, at n = 3: the same
    # records, trivial target matches included and compared symbol by symbol
    # with the symbols the search built, and the same counters (with the
    # pruned worker every one: both count every strongly regular graph they
    # build; the plain product also counts those of the target's valency
    # that miss it, so there only the target-hit counters); the same records
    # at --jobs 2, run as two shards inline; and the candidate count against
    # a count over every T01, T12, T20 bit count of the diagonal triples of
    # the sizes the valency leaves.
    import os
    from collections import Counter
    from itertools import product

    from conftest import reference_tricirc_worker, srg_symbols_built

    records, counts = reference_tricirc_worker(
        (n, target.as_tuple(), pruned_reference, False, 0, 1))
    result, built = srg_symbols_built(search_tricirculant_srg, n, target)
    _assert_same_symbols(result, built, target, sorted(records))
    stats = result.stats
    if pruned_reference:
        assert [stats.srg, stats.nontrivial_srg, stats.iso3] == counts
    else:
        assert [stats.nontrivial_srg, stats.iso3] == counts[1:]
    sizes = _inline_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert search_tricirculant_srg(n, target, jobs=2) == result
    assert sizes == [2]
    per_size = Counter(len(s) for s in symmetric_subsets(n))
    per_count = Counter(m.bit_count() for m in range(1 << n))
    candidates = sum(
        per_count[c01] * per_count[c12] * per_count[c20]
        * per_size[target.k - c01 - c20] * per_size[target.k - c01 - c12]
        * per_size[target.k - c12 - c20]
        for c01, c12, c20 in product(per_count, repeat=3)
    )
    assert stats.candidates == candidates


@pytest.mark.parametrize("n", range(2, 8))
def test_tricirc_worker_walks_only_sized_triples(monkeypatch, n):
    # For every parameter set on 3n vertices, the worker walks each diagonal
    # triple whose three connection sizes (k - |S_a| - |S_b| + |S_c|)/2 are
    # integers in 0..n exactly once, under the shape of those sizes, and no
    # other; so it walks no more triples than the candidate count.  Judging
    # is stubbed out: only the walk is compared.
    from itertools import product

    import isoreg.search as search
    from isoreg.symbols import _LAYOUT

    walk = search._diagonal_triples
    walked = []

    def recording_walk(*args):
        for shape, diags in walk(*args):
            walked.append((shape, diags))
            yield shape, diags

    monkeypatch.setattr(search, "_diagonal_triples", recording_walk)
    monkeypatch.setattr(search, "_judge", lambda *args: None)
    masks = search._symmetric_masks(n)
    for target in _tricirc_targets(n):
        walked.clear()
        candidates = search_tricirculant_srg(n, target).stats.candidates
        want = []
        for diags in product(masks, repeat=3):
            sizes = [divmod(target.k - diags[a].bit_count() - diags[b].bit_count()
                            + diags[3 - a - b].bit_count(), 2) for a, b in _LAYOUT[3][2]]
            if all(not odd and 0 <= t <= n for t, odd in sizes):
                want.append((tuple(t for t, _ in sizes), diags))
        assert sorted(walked) == sorted(want), target
        assert len(walked) <= candidates, target


def _multicirc_bicirc_run(spec):
    """Candidate count, sorted records (trivial target matches included) and
    counters of a bicirculant space under the pruned r-orbit reference
    worker, the default path before T was solved from its autocorrelation."""
    from conftest import reference_multicirc_worker
    from isoreg.search import _symmetric_masks
    from isoreg.symbols import bicirculant

    n = spec.n
    sym_masks = _symmetric_masks(n)
    s_masks = [m for m in sym_masks if spec.s_size is None or m.bit_count() == spec.s_size]
    sp_masks = [m for m in sym_masks if spec.sp_size is None or m.bit_count() == spec.sp_size]
    t_masks = [m for m in range(1 << n) if spec.t_size is None or m.bit_count() == spec.t_size]
    target = spec.target.as_tuple() if spec.target else None
    records, counts = reference_multicirc_worker(
        (n, target, (s_masks, sp_masks), (t_masks,), bicirculant, spec.sp_is_complement,
         spec.require_iso3, False, 0, 1)
    )
    candidates = len(s_masks) * (1 if spec.sp_is_complement else len(sp_masks)) * len(t_masks)
    return candidates, sorted(records), counts


_DEDUP13 = SrgParams(26, 10, 3, 4)

# Edge spaces at n = 12 and 13, each with the parameter sets it contains:
# S = {} and S = Z_n - {0}, which leave lambda or mu vacuous, T = {} and
# T = Z_n, and S' = S-hat at |S| = (n-1)//2.  At n = 12 that last space holds
# no symbol (|S-hat| = 6), so it takes a parameter set of the full space.
_EDGE_SPACES = [
    (12, "s0", {"s_size": 0}, [(24, 0, 0, 0), (24, 1, 0, 0), (24, 12, 0, 12)]),
    (12, "s11", {"s_size": 11}, [(24, 11, 10, 0), (24, 22, 20, 22), (24, 23, 22, 0)]),
    (12, "t0", {"t_size": 0}, [(24, 0, 0, 0), (24, 1, 0, 0), (24, 2, 1, 0), (24, 3, 2, 0),
                               (24, 5, 4, 0), (24, 11, 10, 0)]),
    (12, "t12", {"t_size": 12}, [(24, 12, 0, 12), (24, 18, 12, 18), (24, 20, 16, 20),
                                 (24, 21, 18, 21), (24, 22, 20, 22), (24, 23, 22, 0)]),
    (12, "shat-s5", {"sp_is_complement": True, "s_size": 5}, [(24, 11, 10, 0)]),
    (13, "s0", {"s_size": 0}, [(26, 0, 0, 0), (26, 1, 0, 0), (26, 13, 0, 13)]),
    (13, "s12", {"s_size": 12}, [(26, 12, 11, 0), (26, 24, 22, 24), (26, 25, 24, 0)]),
    (13, "t0", {"t_size": 0}, [(26, 0, 0, 0), (26, 12, 11, 0)]),
    (13, "t13", {"t_size": 13}, [(26, 13, 0, 13), (26, 25, 24, 0)]),
    (13, "shat-s6", {"sp_is_complement": True, "s_size": 6}, [(26, 10, 3, 4), (26, 15, 8, 9)]),
]
_EDGE_CASES = [
    (f"n{n}-{label}" + ("-" + ",".join(map(str, target)) if target else ""),
     SearchSpec(n=n, target=target and SrgParams(*target), **filters))
    for n, label, filters, targets in _EDGE_SPACES
    for target in [None, *targets]
]


@pytest.mark.parametrize(
    "spec",
    [SearchSpec(n=n) for n in range(9, 14)]
    + [
        SearchSpec(n=13, target=_DEDUP13),
        SearchSpec(n=13, target=_DEDUP13, sp_is_complement=True, s_size=6, t_size=4),
    ]
    + [spec for _, spec in _EDGE_CASES],
    ids=["n9", "n10", "n11", "n12", "n13", "n13-target", "n13-target-shat"]
    + [name for name, _ in _EDGE_CASES],
)
def test_difference_function_search_matches_multicirc_worker(spec):
    # The default bicirculant path solves T from (S, S') against the pruned
    # r-orbit reference worker, which walks every T, on the full spaces
    # n = 9..13, the dedup13 target with and without its filters, and the
    # edge spaces above without a target and with each of theirs; trivial
    # target matches are compared symbol by symbol with the symbols the
    # search built.
    from conftest import srg_symbols_built

    candidates, records, counts = _multicirc_bicirc_run(spec)
    result, built = srg_symbols_built(search_bicirculant, spec)
    _assert_same_symbols(result, built, spec.target, records)
    stats = result.stats
    assert (stats.candidates, [stats.srg, stats.nontrivial_srg, stats.iso3]) == (
        candidates, counts)


def _autocorrelation(members, n):
    return tuple(sum((x + d) % n in members for x in members) for d in range(1, n))


def _symmetric_vectors(n, t):
    """Every symmetric vector over d = 1..n-1 with entries in 0..t and sum
    t(t-1): the entries at d <= n/2 count twice, n/2 itself once."""
    weights = [1 if 2 * d == n else 2 for d in range(1, n // 2 + 1)]

    def fill(i, left):
        if i == len(weights):
            if not left:
                yield ()
            return
        room = t * sum(weights[i + 1:])
        for x in range(max(0, -((room - left) // weights[i])), min(t, left // weights[i]) + 1):
            for rest in fill(i + 1, left - weights[i] * x):
                yield (x, *rest)

    for free in fill(0, t * (t - 1)):
        yield tuple(free[min(d, n - d) - 1] for d in range(1, n))


@pytest.mark.parametrize("n", range(2, 13))
def test_t_solver_matches_brute_force(n):
    # Every realisable (A, t), t = 0 and t = n included, against a scan of
    # every subset of Z_n and against the backtracker the gap-canonical one
    # replaced; then every symmetric vector with entries in 0..t and sum
    # t(t-1) that no subset realises, and vectors that are negative,
    # asymmetric or of the wrong sum.
    from conftest import reference_t_solutions
    from isoreg.search import _t_solutions

    realised = {}
    for mask in range(1 << n):
        members = {x for x in range(n) if (mask >> x) & 1}
        realised.setdefault((len(members), _autocorrelation(members, n)), []).append(mask)
    assert {t for t, _ in realised} == set(range(n + 1))
    for (t, a), masks in realised.items():
        assert _t_solutions(n, t, a) == tuple(masks) == reference_t_solutions(n, t, a), (t, a)
    unrealised = 0
    for t in range(n + 1):
        for a in _symmetric_vectors(n, t):
            if (t, a) not in realised:
                unrealised += 1
                assert _t_solutions(n, t, a) == (), (t, a)
    if n >= 6:
        assert unrealised > 0
    t = n // 2
    a = _autocorrelation(set(range(t)), n)
    if n >= 5:
        skewed = (a[0] + 1, a[1] - 1) + a[2:]
        assert _t_solutions(n, t, skewed) == ()
    assert _t_solutions(n, t, tuple(x + 1 for x in a)) == ()
    if n >= 5:
        assert _t_solutions(n, 2, (-1, 2) + (0,) * (n - 5) + (2, -1)) == ()


@pytest.mark.parametrize("n", range(13, 17))
def test_t_solver_matches_reference(n):
    # The gap-canonical backtracker against the one it replaced, beyond the
    # moduli a subset scan covers: on the autocorrelations of seeded random
    # T of every size (t = n/2 included), of periodic T, whose every gap
    # repeats, and of T whose largest cyclic gap occurs more than once; and
    # on each vector with one unit moved from one distance pair to another,
    # which keeps it symmetric with the same sum but mostly unrealisable.
    import random

    from conftest import reference_t_solutions
    from isoreg.search import _t_solutions

    rng = random.Random(n)
    sets = [set(rng.sample(range(n), t)) for t in range(n + 1) for _ in range(4)]
    for p in range(1, n):
        if n % p == 0:
            base = rng.sample(range(p), rng.randint(1, p))
            sets.append({x + p * j for x in base for j in range(n // p)})
    ties = 0
    while ties < 12:
        xs = sorted(rng.sample(range(n), rng.randint(2, n - 1)))
        gaps = [b - a for a, b in zip(xs, xs[1:] + [xs[0] + n])]
        if gaps.count(max(gaps)) > 1:
            sets.append(set(xs))
            ties += 1
    for members in sets:
        t = len(members)
        a = _autocorrelation(members, n)
        vectors = [a]
        d, e = rng.sample(range(1, (n + 1) // 2), 2)
        if a[d - 1] and a[e - 1] < t:
            moved = list(a)
            for x, step in ((d, -1), (n - d, -1), (e, 1), (n - e, 1)):
                moved[x - 1] += step
            vectors.append(tuple(moved))
        for v in vectors:
            assert _t_solutions(n, t, v) == reference_t_solutions(n, t, v), (t, v)
        assert sum(1 << x for x in members) in _t_solutions(n, t, a)


@pytest.mark.parametrize("n", range(2, 16))
def test_join_keys_match_reference(n):
    # The lambda window cut by the one the mu window implies against the
    # walk over lambda's own window: the same keys for every symmetric mask,
    # without a target and with every (k, lambda, mu) a key holds, and with
    # lambda + 1 in its place.
    from conftest import reference_join_keys
    from isoreg.search import _join_keys, _symmetric_masks

    masks = _symmetric_masks(n)
    t_sizes = range(n + 1)
    targets = set()
    for m in masks:
        keys = reference_join_keys(m, n, t_sizes, None)
        assert _join_keys(m, n, t_sizes, None) == keys, m
        targets.update((2 * n, s + t, lam + e, mu) for s, t, lam, mu, _ in keys for e in (0, 1))
    for target in sorted(targets):
        for m in masks:
            assert _join_keys(m, n, t_sizes, target) == reference_join_keys(
                m, n, t_sizes, target), (target, m)


@pytest.mark.parametrize(
    "argv, built",
    [
        ("search bicirc --n 12", 66),
        ("search bicirc --n 13 --params 26,10,3,4 --sp-complement --s-size 6 --t-size 4", 104),
        ("search bicirc-odd --n 5", 34),
    ],
)
def test_search_builds_only_strongly_regular_symbols(capsys, monkeypatch, argv, built):
    # Strong regularity is decided on the symbol first, so the search builds
    # a graph, and runs srg_params on it, only for the symbols that pass:
    # as many as the summary's srg count (2,620 built at n = 12 when every
    # candidate was built).
    import json

    import isoreg.search as search
    from isoreg.cli import main

    build, test = search.bicirculant, search.srg_params
    builds, hits = [], []
    monkeypatch.setattr(search, "bicirculant", lambda sym: builds.append(sym) or build(sym))
    monkeypatch.setattr(search, "srg_params", lambda g: hits.append(test(g)) or hits[-1])
    assert main([*argv.split(), "--jobs", "1"]) == 0
    stats = json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]["stats"]
    assert len(builds) == len(hits) == stats["srg"] == built
    assert None not in hits


@pytest.mark.parametrize(
    "search, args",
    [
        (search_bicirculant, (SearchSpec(n=8),)),
        (search_tricirculant_srg, (5, SrgParams(15, 6, 1, 3))),
    ],
    ids=["bicirc-n8", "tricirc-n5"],
)
def test_process_pool_matches_serial(monkeypatch, search, args):
    # The shard count is jobs clamped to the CPU count, so the host is made
    # to report two CPUs: the shards run on a real process pool and their
    # records come back as pickled Symbol and Graph objects.
    import concurrent.futures
    import os

    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def counted_pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted_pool)
    serial = search(*args, jobs=1)
    pooled = search(*args, jobs=2)
    assert pools == [2]
    assert serial.stats.survivors > 0
    # Survivors compare field by field: symbol, params, profile, graph, class.
    assert pooled == serial


@pytest.mark.parametrize(
    "run",
    ["full8", "full8-built", "odd5", "odd7", "tri-15-6-1-3", "tri-15-8-4-4"],
)
def test_complement_class_count_matches_reference(run):
    # The complement pairing against the orbits of complementation on the
    # class representatives, found by the backtracking reference.
    from conftest import deduplicate_built, reference_complement_class_count, srg_symbols_built

    from isoreg.search import _complement_class_count

    if run == "full8":
        result = search_bicirculant(SearchSpec(n=8))
    elif run == "full8-built":
        result = deduplicate_built(srg_symbols_built(search_bicirculant, SearchSpec(n=8))[1])
    elif run.startswith("odd"):
        result = confirm_nonexistence_bicirc_odd(int(run[3:])).result
    else:
        result = search_tricirculant_srg(5, SrgParams(*map(int, run.split("-")[1:])))
    reps = [result.survivors[i].graph for i in result.class_reps]
    count = _complement_class_count(reps)
    assert count == reference_complement_class_count(reps)
    if run != "full8-built":
        assert count == result.stats.complement_classes
