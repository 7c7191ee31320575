"""Acceptance gate: one test per criterion, each printing a PASS line with
its elapsed time.  All checks are exact."""

import json
import time
from itertools import combinations

from isoreg import (
    SearchSpec,
    SrgParams,
    certify_range,
    claim_holds,
    complement,
    complete_graph,
    confirm_nonexistence_bicirc_odd,
    decode_graph6,
    edge_iso_params,
    edge_relations_check,
    encode_graph6,
    even_m_candidates,
    feasible_local_params,
    gq22_voltage,
    is_isomorphic,
    is_k_isoregular,
    is_locally_3isoregular,
    is_locally_3isoregular_at,
    iso_profile,
    iso_type,
    line_graph,
    named_graph,
    nonedge_iso_params,
    nonedge_relations_check,
    replay_certificate,
    search_bicirculant,
    search_tricirculant_srg,
    srg_params,
    subconstituent_characterization,
    subset_valency,
    t_vertex_condition,
    triangular,
)
from isoreg.cli import main as cli_main

from conftest import build_corpus, cycle_graph


def _report(criterion: int, started: float, text: str) -> None:
    print(f"[criterion {criterion}] PASS ({time.time() - started:.1f}s): {text}")


def test_criterion_1_named_graph_ground_truth():
    started = time.time()
    expected = {
        "petersen": (10, 3, 0, 1),
        "clebsch": (16, 5, 0, 2),
        "k4xk4": (16, 6, 2, 2),
        "shrikhande-a": (16, 6, 2, 2),
        "shrikhande-b": (16, 6, 2, 2),
        "gq22": (15, 6, 1, 3),
        "t7": (21, 10, 5, 4),
    }
    for tag, params in expected.items():
        assert srg_params(named_graph(tag)).as_tuple() == params, tag
    gq = gq22_voltage()
    assert is_isomorphic(gq, complement(triangular(6))) is not None
    assert is_isomorphic(gq, complement(line_graph(complete_graph(6)))) is not None
    _report(1, started, "named-graph parameters and GQ(2,2) identifications")


def test_criterion_2_three_isoregularity_verdicts():
    started = time.time()
    assert iso_profile(named_graph("clebsch"), 3).size3() == (0, 0, 0, 1)
    assert iso_profile(named_graph("k4xk4"), 3).size3() == (1, 0, 1, 0)

    shrikhande = named_graph("shrikhande-a")
    assert not is_k_isoregular(shrikhande, 3).holds
    k12_valencies = {
        subset_valency(shrikhande, s)
        for s in combinations(range(16), 3)
        if iso_type(shrikhande, s).name == "K1,2"
    }
    assert k12_valencies == {0, 1}

    assert is_k_isoregular(cycle_graph(5), 3).holds
    assert not is_k_isoregular(named_graph("paley-13"), 3).holds
    assert not is_k_isoregular(named_graph("paley-17"), 3).holds

    petersen = named_graph("petersen")
    assert all(edge_iso_params(petersen, u, v) is not None for u, v in petersen.edges())
    assert all(
        nonedge_iso_params(petersen, u, v) is None
        for u in range(10)
        for v in range(u + 1, 10)
        if not petersen.adjacent(u, v)
    )

    t6c = named_graph("t6-complement")
    assert all(
        (p := edge_iso_params(t6c, u, v)) is not None and p.as_tuple() == (0, 0, 1)
        for u, v in t6c.edges()
    )
    assert is_locally_3isoregular(t6c) is None

    t7 = named_graph("t7")
    assert all(edge_iso_params(t7, u, v) is None for u, v in t7.edges())
    _report(2, started, "3-isoregularity verdicts, profiles, and witnesses")


def test_criterion_3_relations_as_theorems():
    started = time.time()
    corpus = build_corpus()
    measured_edges = measured_nonedges = 0
    for name, g in corpus.items():
        p = srg_params(g)
        nontrivial = p is not None and p.is_nontrivial()
        if nontrivial:
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if g.adjacent(u, v):
                        ep = edge_iso_params(g, u, v)
                        if ep is not None:
                            measured_edges += 1
                            assert edge_relations_check(p, *ep.as_tuple()), (name, u, v)
                    else:
                        nep = nonedge_iso_params(g, u, v)
                        if nep is not None:
                            measured_nonedges += 1
                            assert nonedge_relations_check(p, *nep.as_tuple()), (name, u, v)
            for x in range(g.n):
                report = is_locally_3isoregular_at(g, x)
                if report.holds:
                    assert report.edge[1].r == report.nonedge[1].rp, (name, x)
                    assert report.edge[1].w == report.nonedge[1].wp, (name, x)
            assert subconstituent_characterization(g) == is_k_isoregular(g, 3).holds, name
        assert t_vertex_condition(g, 3).holds == (p is not None), name
    assert measured_edges > 0 and measured_nonedges > 0
    assert t_vertex_condition(named_graph("petersen"), 4).holds
    _report(
        3,
        started,
        f"counting relations on {measured_edges} edges / {measured_nonedges} "
        "non-edges, subconstituent equivalence, t-vertex condition",
    )


def test_criterion_4_solver_oracle_agreement():
    started = time.time()
    assert [s.as_tuple() for s in feasible_local_params(SrgParams(16, 6, 2, 2))] == [(1, 0, 1, 0)]
    assert [s.as_tuple() for s in feasible_local_params(SrgParams(16, 5, 0, 2))] == [(0, 0, 0, 1)]
    assert feasible_local_params(SrgParams(10, 3, 0, 1)) == []

    cand_b = even_m_candidates(2, "b")
    assert [s.as_tuple() for s in feasible_local_params(SrgParams(16, 6, 2, 2))] == [
        cand_b.as_tuple()
    ]
    cand_c = even_m_candidates(2, "c")
    p_c = SrgParams(16, 10, 6, 6)
    sols = feasible_local_params(p_c)
    assert len(sols) == 1 and sols[0].as_tuple()[:3] == cand_c.as_tuple()[:3]
    assert edge_relations_check(p_c, cand_c.q, cand_c.r, cand_c.w)
    assert nonedge_relations_check(p_c, cand_c.r, cand_c.w, cand_c.v)
    _report(4, started, "feasibility solver values and even-index candidates")


def test_criterion_5_certificates():
    started = time.time()
    certificates = {
        "bicirc-odd": certify_range("bicirc-odd", list(range(2, 201))),
        "leung-ma-b": certify_range("leung-ma-b", list(range(3, 200, 2))),
        "leung-ma-c": certify_range("leung-ma-c", list(range(3, 200, 2))),
        "tri-family-1": certify_range("tri-family-1", list(range(-50, 51))),
        "tri-family-2": certify_range("tri-family-2", list(range(-50, 51))),
    }
    for name, cert in certificates.items():
        assert claim_holds(cert), name
    for inst in certificates["bicirc-odd"].instances:
        assert inst.verdict == "CONTRADICTION"
    for name in ("leung-ma-b", "leung-ma-c"):
        assert all(i.verdict == "CONTRADICTION" for i in certificates[name].instances)
    for inst in certificates["tri-family-1"].instances:
        if inst.index == -1:
            assert inst.verdict == "SOLUTION" and inst.solution == {"Q": 0, "R": 0, "W": 1}
        else:
            assert inst.verdict != "SOLUTION"
    for inst in certificates["tri-family-2"].instances:
        expected = "DEGENERATE" if inst.index in (-1, 0, 1) else "CONTRADICTION"
        assert inst.verdict == expected
    for name, cert in certificates.items():
        payload = json.loads(json.dumps(cert.to_json(), sort_keys=True))
        assert replay_certificate(payload).ok, name
    _report(5, started, "all five certificate families hold and replay")


def test_criterion_6_exhaustive_searches():
    started = time.time()
    # Full n = 8 space: 3-isoregular survivors are Clebsch and K4 box K4 up
    # to complementation.
    full8 = search_bicirculant(SearchSpec(n=8, require_iso3=True))
    assert full8.stats.candidates == 65536
    assert full8.stats.classes == 4
    assert full8.stats.complement_classes == 2
    reps = [full8.survivors[i].graph for i in full8.class_reps]
    markers = {
        "clebsch": named_graph("clebsch"),
        "k4xk4": named_graph("k4xk4"),
        "co-clebsch": complement(named_graph("clebsch")),
        "co-k4xk4": complement(named_graph("k4xk4")),
    }
    matched = {
        tag: sum(1 for g in reps if is_isomorphic(g, target) is not None)
        for tag, target in markers.items()
    }
    assert matched == {"clebsch": 1, "k4xk4": 1, "co-clebsch": 1, "co-k4xk4": 1}

    # Both Shrikhande symbols land in the same non-3-isoregular SRG class.
    target8 = search_bicirculant(SearchSpec(n=8, target=SrgParams(16, 6, 2, 2)))
    keys = {
        "a": named_graph("shrikhande-a"),
        "b": named_graph("shrikhande-b"),
    }
    from isoreg import BicirculantSymbol

    sym_a = BicirculantSymbol(8, {1, -1}, {3, -3}, {0, 1, -1, 4})
    sym_b = BicirculantSymbol(8, {1, -1, 2, -2}, {2, -2, 3, -3}, {1, 3})
    hits = [s for s in target8.survivors if s.symbol.key() in (sym_a.key(), sym_b.key())]
    assert len(hits) == 2
    assert hits[0].class_id == hits[1].class_id
    assert not hits[0].iso3 and not hits[1].iso3
    del keys

    # Odd-modulus confirmation runs; no survivor class is even locally
    # 3-isoregular.
    for n, expect_index in ((5, 1), (7, None), (13, 2)):
        run = confirm_nonexistence_bicirc_odd(n)
        assert run.result.stats.iso3 == 0, n
        assert run.locally_iso3_classes == 0, n
        assert run.structure_ok, run.structure_failures
        assert run.family_index == expect_index, n
        if n == 7:
            assert run.result.stats.nontrivial_srg == 0
        if n == 13:
            classes = {
                run.result.survivors[i].params.as_tuple() for i in run.result.class_reps
            }
            assert (26, 10, 3, 4) in classes

    # Tricirculant run at n = 5 includes the GQ(2,2) class.
    tri = search_tricirculant_srg(5, SrgParams(15, 6, 1, 3))
    tri_reps = [tri.survivors[i].graph for i in tri.class_reps]
    assert any(is_isomorphic(g, named_graph("gq22")) is not None for g in tri_reps)
    _report(6, started, "n=8 full space, odd runs n=5/7/13, tricirculant n=5")


def test_criterion_7_format_fidelity(capsys):
    started = time.time()
    for name, g in build_corpus().items():
        assert decode_graph6(encode_graph6(g)) == g, name

    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        return code, out

    argv = ["search", "bicirc", "--n", "8", "--params", "16,5,0,2"]
    code1, out1 = run(argv)
    code2, out2 = run(argv)
    code3, out3 = run(argv + ["--jobs", "2"])
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3
    with capsys.disabled():
        _report(7, started, "graph6 round-trips and byte-identical reports across --jobs")
