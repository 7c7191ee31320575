"""Parameter families, the feasibility solver, and certificate replay."""

import json
from itertools import product

import pytest

from isoreg import (
    SrgParams,
    bicirc_odd_family,
    certify_bicirc_odd,
    certify_family_b,
    certify_family_c,
    certify_range,
    certify_tri_family1,
    certify_tri_family2,
    claim_holds,
    edge_relations_check,
    even_m_candidates,
    feasible_edge_params,
    feasible_local_params,
    iso_profile,
    leung_ma_families,
    named_graph,
    nonedge_relations_check,
    replay_certificate,
    srg_params,
    tricirc_families,
)
from isoreg.paramtheory import MAX_FAMILY_INDEX, Certificate, validate_step

from conftest import (
    build_corpus,
    nontrivial_params,
    reference_feasible_edge_params,
    reference_feasible_local_params,
    reference_leung_ma_families,
    reference_nonedge_relations_check,
)


# -- families -----------------------------------------------------------------


def test_bicirc_odd_family_values():
    p, s_size, t_size = bicirc_odd_family(1)
    assert (p.as_tuple(), s_size, t_size) == ((10, 3, 0, 1), 2, 1)
    p, s_size, t_size = bicirc_odd_family(2)
    assert (p.as_tuple(), s_size, t_size) == ((26, 10, 3, 4), 6, 4)
    for m in range(1, 101):
        p, s_size, t_size = bicirc_odd_family(m)
        assert p.identity_holds()
        assert s_size == (p.n // 2 - 1) // 2  # |S| = (n-1)/2
    with pytest.raises(ValueError):
        bicirc_odd_family(0)


def test_bicirc_odd_family_matches_closed_form():
    # Leung-Ma family (a) with |S| = d and |T| = c, against the closed form.
    for m in range(1, 1001):
        params = SrgParams(2 * (2 * m * m + 2 * m + 1), m * (2 * m + 1), m * m - 1, m * m)
        assert bicirc_odd_family(m) == (params, m * (m + 1), m * m), m
    with pytest.raises(ValueError, match="family index m must be at least 1"):
        bicirc_odd_family(0)


def test_leung_ma_values():
    by_label = {e.label: e for e in leung_ma_families(2)}
    assert (by_label["b"].n, by_label["b"].c, by_label["b"].d) == (8, 4, 2)
    assert by_label["b"].graph_params().as_tuple() == (16, 6, 2, 2)
    assert "c" not in by_label  # family (c) starts at m = 3

    by_label = {e.label: e for e in leung_ma_families(3)}
    assert (by_label["c"].n, by_label["c"].c, by_label["c"].d) == (18, 9, 12)
    assert by_label["c"].graph_params().as_tuple() == (36, 21, 12, 12)

    by_label = {e.label: e for e in leung_ma_families(1)}
    assert (by_label["a"].n, by_label["a"].c, by_label["a"].d, by_label["a"].lam, by_label["a"].mu) == (5, 1, 2, 0, 1)
    assert by_label["a"].graph_params().as_tuple() == (10, 3, 0, 1)

    for m in range(1, 60):
        for entry in leung_ma_families(m):
            assert entry.graph_params().identity_holds(), (m, entry.label)


def test_leung_ma_families_match_reference():
    # The table read by label lists the entries, in order, that the closed
    # forms written out one by one list.
    for m in range(1, MAX_FAMILY_INDEX + 1):
        assert leung_ma_families(m) == reference_leung_ma_families(m), m
    for m in (0, -1):
        with pytest.raises(ValueError, match="family index m must be at least 1"):
            leung_ma_families(m)


def test_tricirc_families():
    f1, f2 = tricirc_families(-1)
    assert f1.params.as_tuple() == (15, 6, 1, 3) and f1.valid
    f1, f2 = tricirc_families(2)
    assert f2.params.as_tuple() == (21, 10, 5, 4) and f2.valid
    f1, f2 = tricirc_families(0)
    assert f2.params.lam == -1 and not f2.valid
    for s in range(-40, 41):
        for entry in tricirc_families(s):
            if entry.valid:
                assert entry.params.identity_holds(), (entry.family, s)
            # The square root in the order hypothesis is always exact here.
            assert entry.discriminant_root is not None, (entry.family, s)


# -- solver -------------------------------------------------------------------


def test_feasible_local_params_key_cases():
    assert [s.as_tuple() for s in feasible_local_params(SrgParams(16, 6, 2, 2))] == [(1, 0, 1, 0)]
    sols = feasible_local_params(SrgParams(16, 5, 0, 2))
    assert [s.as_tuple() for s in sols] == [(0, 0, 0, 1)]
    assert sols[0].vacuous == frozenset({"Q"})
    assert feasible_local_params(SrgParams(10, 3, 0, 1)) == []
    with pytest.raises(ValueError):
        feasible_local_params(SrgParams(6, 5, 4, 0))


def test_solver_output_passes_relation_checks():
    for p in (
        SrgParams(16, 6, 2, 2),
        SrgParams(16, 5, 0, 2),
        SrgParams(26, 10, 3, 4),
        SrgParams(36, 21, 12, 12),
        SrgParams(50, 21, 8, 9),
    ):
        for sol in feasible_local_params(p):
            q, r, w, v = sol.as_tuple()
            assert edge_relations_check(p, q, r, w)
            assert nonedge_relations_check(p, r, w, v)


def test_family_c_two_branches_at_m5():
    # Independent confirmation of the alpha in {2, m} analysis at m = 5:
    # exactly the tuples (m^2-m+1, 2m, m^2-1, m) and (2m-1, m^2, m+1, m(m+1)).
    m = 5
    p = SrgParams(4 * m * m, 2 * m * m + m, m * m + m, m * m + m)
    assert {s.as_tuple() for s in feasible_local_params(p)} == {
        (21, 10, 24, 5),
        (9, 25, 6, 30),
    }


def test_solver_completeness_against_brute_force():
    # Any in-bounds tuple passing all five relations shows up in the output
    # (parameter sets with a nonempty non-edge D22 cell so V is determined).
    for p in (SrgParams(16, 6, 2, 2), SrgParams(26, 10, 3, 4), SrgParams(36, 21, 12, 12)):
        n, k, lam, mu = p.as_tuple()
        brute = set()
        for q in range(0, lam):
            for r in range(0, min(lam, mu - 1) + 1):
                for w in range(0, min(lam, mu) + 1):
                    for v in range(0, mu + 1):
                        if edge_relations_check(p, q, r, w) and nonedge_relations_check(
                            p, r, w, v
                        ):
                            brute.add((q, r, w, v))
        assert brute == {s.as_tuple() for s in feasible_local_params(p)}


def test_solver_matches_measured_profiles():
    # For every 3-isoregular nontrivial SRG in the corpus, the measured
    # size-3 profile is a solver output.  The solution need not be unique:
    # at (16,9,4,6) the relations also admit (0,3,2,6) alongside the
    # measured (1,2,4,3).
    from isoreg import is_k_isoregular, is_nontrivial_srg

    found = 0
    for name, g in build_corpus().items():
        p = srg_params(g)
        if p is None or not is_nontrivial_srg(g):
            continue
        if not is_k_isoregular(g, 3).holds:
            continue
        found += 1
        tuples = {s.as_tuple() for s in feasible_local_params(p)}
        assert iso_profile(g, 3).size3() in tuples, name
    assert found >= 4  # c5, clebsch, k4xk4, co-clebsch, co-k4xk4
    assert {s.as_tuple() for s in feasible_local_params(SrgParams(16, 9, 4, 6))} == {
        (1, 2, 4, 3),
        (0, 3, 2, 6),
    }


def test_degenerate_v_case_complement_clebsch():
    sols = feasible_local_params(SrgParams(16, 10, 6, 6))
    assert len(sols) == 1
    assert sols[0].as_tuple() == (3, 4, 3, 0)
    assert sols[0].vacuous == frozenset({"V"})
    assert iso_profile(named_graph("t6-complement"), 3) is None  # not 3-isoregular
    co_clebsch = build_corpus()["co-clebsch"]
    assert iso_profile(co_clebsch, 3).size3() == (3, 4, 3, 0)


def test_even_m_candidates():
    assert even_m_candidates(2, "b").as_tuple() == (1, 0, 1, 0)
    assert even_m_candidates(2, "c").as_tuple() == (3, 4, 3, 4)
    assert even_m_candidates(4, "b").as_tuple() == (6, 4, 6, 4)
    assert even_m_candidates(4, "c").as_tuple() == (10, 12, 10, 12)
    with pytest.raises(ValueError):
        even_m_candidates(3, "b")
    with pytest.raises(ValueError):
        even_m_candidates(2, "x")


def test_even_m_candidates_agree_with_solver():
    # (b) at m = 2 is the unique solution outright; (c) at m = 2 agrees on
    # (Q, R, W) and its formal V still satisfies both relations (the V
    # relation is 0 = 0 there); for m = 4 both candidates are solver members.
    cand = even_m_candidates(2, "b")
    assert [s.as_tuple() for s in feasible_local_params(SrgParams(16, 6, 2, 2))] == [cand.as_tuple()]

    cand = even_m_candidates(2, "c")
    p = SrgParams(16, 10, 6, 6)
    sols = feasible_local_params(p)
    assert len(sols) == 1 and sols[0].as_tuple()[:3] == cand.as_tuple()[:3]
    assert edge_relations_check(p, cand.q, cand.r, cand.w)
    assert nonedge_relations_check(p, cand.r, cand.w, cand.v)

    for family, params in (("b", SrgParams(64, 28, 12, 12)), ("c", SrgParams(64, 36, 20, 20))):
        cand = even_m_candidates(4, family)
        assert cand.as_tuple() in {s.as_tuple() for s in feasible_local_params(params)}


def test_relation_checks_match_reference():
    # The non-edge check in integers against D22 taken as a Fraction, and
    # the edge check against its three relations written out, on every
    # nontrivial set with n <= 40, every set with n <= 10 (most of them not
    # strongly regular, so D22 is often no integer) and sets with mu = 0,
    # each at R', W', V (Q, R, W) in 0..4 and at its solver's tuples.
    sets = [*nontrivial_params(5, 40),
            *(SrgParams(n, k, lam, mu) for n in range(2, 11) for k in range(n)
              for lam in range(k + 1) for mu in range(k + 1)),
            SrgParams(6, 2, 1, 0), SrgParams(9, 2, 1, 0), SrgParams(10, 3, 0, 0)]
    assert sum(p.mu == 0 for p in sets) > 3
    holds = 0
    for p in sets:
        n, k, lam, mu = p.as_tuple()
        tuples = list(product(range(5), repeat=3))
        if p.is_nontrivial():
            tuples += [(s.r, s.w, s.v) for s in feasible_local_params(p)]
        for x, y, z in tuples:
            got = nonedge_relations_check(p, x, y, z)
            assert got == reference_nonedge_relations_check(p, x, y, z), (p, x, y, z)
            holds += got
            assert edge_relations_check(p, x, y, z) == (
                lam * (lam - x - 1) == y * (k - lam - 1)
                and lam * mu * (k - 2 * lam + x) == z * (k - mu) * (k - lam - 1)
                and z * (k - mu) == mu * (lam - y)), (p, x, y, z)
    assert holds > 100


def test_relation_checks():
    assert edge_relations_check(SrgParams(16, 6, 2, 2), 1, 0, 1)
    assert edge_relations_check(SrgParams(15, 6, 1, 3), 0, 0, 1)
    assert not edge_relations_check(SrgParams(10, 3, 0, 1), 0, 0, 1)
    assert nonedge_relations_check(SrgParams(16, 5, 0, 2), 0, 0, 1)
    assert not nonedge_relations_check(SrgParams(10, 3, 0, 1), 0, 0, 1)


# -- certificates -------------------------------------------------------------


def test_certify_bicirc_odd_m3_trace():
    inst = certify_bicirc_odd(3)
    assert inst.verdict == "CONTRADICTION"
    text = " ".join(s.description for s in inst.steps)
    assert "Q=1, R=4, W=3" in text  # the intermediate tuple at m = 3
    v_steps = [s for s in inst.steps if s.kind == "DIVISIBILITY" and "value" in s.data]
    assert v_steps[-1].data == {"value": 42, "divisor": 10, "divides": False}


def test_certify_bicirc_odd_even_m_stops_at_w():
    inst = certify_bicirc_odd(4)
    assert inst.verdict == "CONTRADICTION"
    assert inst.steps[-1].kind == "DIVISIBILITY"
    assert inst.steps[-1].data["multiples"] == []


def test_certify_bicirc_odd_range():
    cert = certify_range("bicirc-odd", list(range(2, 201)))
    assert claim_holds(cert)
    assert all(inst.verdict == "CONTRADICTION" for inst in cert.instances)
    # m = 2 needs the clique bound: the solver alone leaves one tuple.
    inst2 = cert.instances[0]
    assert inst2.oracle["feasible"][0]["tuple"] == [2, 0, 2, 1]
    assert inst2.oracle["feasible"][0]["eliminated_by"] == "HOFFMAN_CLIQUE"
    # Beyond m = 2 the integer system alone is already empty.
    assert all(inst.oracle["feasible"] == [] for inst in cert.instances[1:])
    with pytest.raises(ValueError):
        certify_bicirc_odd(1)


def test_certify_family_b():
    inst = certify_family_b(3)
    assert inst.verdict == "CONTRADICTION"
    last = inst.steps[-1]
    assert last.data == {"divisor": 5, "lo": 2, "hi": 3, "multiples": []}
    cert = certify_range("leung-ma-b", [m for m in range(3, 200) if m % 2])
    assert claim_holds(cert)
    assert all(inst.oracle["feasible"] == [] for inst in cert.instances)
    with pytest.raises(ValueError):
        certify_family_b(4)


def test_certify_family_c():
    inst = certify_family_c(3)
    assert inst.verdict == "CONTRADICTION"
    # The alpha = m branch carries the paper's tuple and its failed clique
    # comparison 1 + m^2 <= 2 + 2m.
    assert any("(5,9,4,12)" in s.description for s in inst.steps)
    hoffman = [s for s in inst.steps if s.kind == "HOFFMAN_CLIQUE"]
    assert {tuple(s.data["tuple"]) for s in hoffman} == {(5, 9, 4), (7, 6, 8)}
    # Both integer-feasible tuples are settled by clique steps.
    assert inst.oracle["consistent"]
    assert {tuple(e["tuple"]) for e in inst.oracle["feasible"]} == {(5, 9, 4, 12), (7, 6, 8, 3)}
    cert = certify_range("leung-ma-c", [m for m in range(3, 200) if m % 2])
    assert claim_holds(cert)
    assert all(i.oracle["consistent"] for i in cert.instances)


def test_certify_tri_family1():
    sol = certify_tri_family1(-1)
    assert sol.verdict == "SOLUTION" and sol.solution == {"Q": 0, "R": 0, "W": 1}
    assert any(s.kind == "GRAPH_CHECK" for s in sol.steps)
    assert certify_tri_family1(3).verdict == "CONTRADICTION"
    assert certify_tri_family1(0).verdict == "DEGENERATE"
    cert = certify_range("tri-family-1", list(range(-50, 51)))
    assert claim_holds(cert)
    for inst in cert.instances:
        assert (inst.verdict == "SOLUTION") == (inst.index == -1)


def test_certify_tri_family2():
    inst = certify_tri_family2(2)
    assert inst.verdict == "CONTRADICTION"
    assert any(
        s.kind == "GRAPH_CHECK" and s.data["graph"] == "t7" for s in inst.steps
    )
    # The edge-side solver finds (0, 5, 0); the T(7) measurement settles it.
    assert inst.oracle["feasible"] == [{"tuple": [0, 5, 0], "settled_by": "GRAPH_CHECK"}]
    for s in (-3, 4, -17):
        assert certify_tri_family2(s).verdict == "CONTRADICTION"
    for s in (-1, 0, 1):
        assert certify_tri_family2(s).verdict == "DEGENERATE"
    cert = certify_range("tri-family-2", list(range(-50, 51)))
    assert claim_holds(cert)


def test_oracle_agreement_for_contradiction_certificates():
    # Wherever a certifier says CONTRADICTION, the independent solver either
    # returns an empty set or only tuples killed by recorded clique steps.
    for m in range(2, 40):
        inst = certify_bicirc_odd(m)
        assert all(e["eliminated_by"] for e in inst.oracle["feasible"]), m
    for m in range(3, 40, 2):
        assert certify_family_b(m).oracle["feasible"] == []
        inst = certify_family_c(m)
        assert all(e["eliminated_by"] for e in inst.oracle["feasible"]), m


def test_solver_matches_reference_over_parameter_sweep():
    # Every nontrivial parameter set with 5 <= n <= 89: the local solver's
    # walk agrees with the standalone reference scan.  The 3,825
    # complete-graph candidates (k = n - 1) are not among them.
    checked = 0
    for p in nontrivial_params(5, 89):
        got = [(*s.as_tuple(), s.vacuous) for s in feasible_local_params(p)]
        assert got == reference_feasible_local_params(p), p.as_tuple()
        checked += 1
    assert checked == 4320
    with pytest.raises(ValueError):
        feasible_local_params(SrgParams(6, 1, 0, 0))


def test_edge_solver_matches_scan_over_parameter_sweep():
    # The progression walk in R against the scan of every R in [0, lambda],
    # tuples and order, on every nontrivial set with 5 <= n <= 89.  The
    # local sweep above drops the solutions with R >= mu; this one keeps
    # them, and must meet some.
    solutions = above_mu = 0
    for p in nontrivial_params(5, 89):
        got = feasible_edge_params(p)
        assert got == reference_feasible_edge_params(p), p.as_tuple()
        solutions += len(got)
        above_mu += sum(r >= p.mu for _, r, _ in got)
    assert solutions > above_mu > 0


def test_walk_visits_only_solutions(monkeypatch):
    # Every R that either solver's progression holds is a solution: the
    # congruences and the interval leave no R for a per-R check to reject,
    # on every nontrivial set with 5 <= n <= 89.
    from isoreg import paramtheory

    crt_range = paramtheory._crt_range
    walked = []

    def recording(*args):
        walked.append(crt_range(*args))
        return walked[-1]

    monkeypatch.setattr(paramtheory, "_crt_range", recording)
    visited = 0
    for p in nontrivial_params(5, 89):
        edge = [r for _, r, _ in feasible_edge_params(p)]
        local = [s.r for s in feasible_local_params(p)]
        assert [list(r) for r in walked] == [edge, local], p.as_tuple()
        visited += len(edge) + len(local)
        walked.clear()
    assert visited > 0


# The parameters of every instance the five certify families cover over
# their full benchmark ranges, plus the largest bicirc-odd indices.
_FAMILY_RANGES = {
    "bicirc-odd": list(range(2, 201)) + list(range(990, 1001)),
    "leung-ma-b": list(range(3, 200, 2)),
    "leung-ma-c": list(range(3, 200, 2)),
    "tri-family-1": list(range(-50, 51)),
    "tri-family-2": list(range(-50, 51)),
}


def _family_range_params():
    for claim, indices in _FAMILY_RANGES.items():
        for inst in certify_range(claim, indices).instances:
            p = inst.params
            if p is not None and p.is_nontrivial():
                yield claim, inst.index, p


def test_edge_solver_matches_scan_on_family_ranges():
    checked = 0
    for claim, index, p in _family_range_params():
        assert feasible_edge_params(p) == reference_feasible_edge_params(p), (claim, index)
        checked += 1
    assert checked == 606


def test_local_solver_matches_scan_on_family_ranges():
    checked = 0
    for claim, index, p in _family_range_params():
        got = [(*s.as_tuple(), s.vacuous) for s in feasible_local_params(p)]
        assert got == reference_feasible_local_params(p), (claim, index)
        checked += 1
    assert checked == 606


def test_tri_certificates_match_edge_solver():
    for s in range(-12, 13):
        if s in (-1, 0, 1):
            continue
        f1 = certify_tri_family1(s)
        expected = feasible_edge_params(f1.params) if f1.params else []
        got = [tuple(e["tuple"]) for e in f1.oracle["feasible"]]
        assert got == expected, ("family1", s)
    sol = certify_tri_family1(-1)
    assert [tuple(e["tuple"]) for e in sol.oracle["feasible"]] == [(0, 0, 1)]


def test_steps_all_validate():
    # Every step of every admitted index |i| <= MAX_FAMILY_INDEX holds and
    # revalidates.  A step's verdict is its kind's rule, so this checks the
    # certifiers' arguments themselves, the multiples lists they claim
    # included.
    bound = MAX_FAMILY_INDEX
    steps = 0
    for certifier, indices in (
        (certify_bicirc_odd, range(2, bound + 1)),
        (certify_family_b, range(3, bound + 1, 2)),
        (certify_family_c, range(3, bound + 1, 2)),
        (certify_tri_family1, range(-bound, bound + 1)),
        (certify_tri_family2, range(-bound, bound + 1)),
    ):
        for index in indices:
            for step in certifier(index).steps:
                assert step.holds and validate_step(step), (index, step.description)
                steps += 1
    assert steps == 44_966


def test_replay_round_trip_and_tamper_detection():
    cert = certify_range("bicirc-odd", list(range(2, 12)))
    payload = json.loads(json.dumps(cert.to_json()))
    assert replay_certificate(payload).ok

    tampered = json.loads(json.dumps(cert.to_json()))
    tampered["instances"][3]["steps"][0]["data"]["lhs"] += 1
    outcome = replay_certificate(tampered)
    assert not outcome.ok
    assert any("does not revalidate" in m for m in outcome.mismatches)

    tampered = json.loads(json.dumps(cert.to_json()))
    tampered["instances"][0]["verdict"] = "SOLUTION"
    outcome = replay_certificate(tampered)
    assert not outcome.ok

    assert not replay_certificate({"claim": "nope", "indices": [], "instances": []}).ok


def test_claim_holds_needs_a_known_claim():
    # Instances that would show any contradiction claim establish nothing
    # under a claim that is not in the table.
    cert = certify_range("bicirc-odd", [2, 3])
    assert claim_holds(cert)
    assert not claim_holds(Certificate("nope", cert.indices, cert.instances))
    assert not claim_holds(Certificate("bicirc-odd", (), ()))


def test_certificate_json_round_trip():
    cert = certify_range("tri-family-2", list(range(-5, 6)))
    again = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert again.to_json() == cert.to_json()


def test_divisibility_multiples_count_matches_scan():
    # validate_step counts the multiples of d in [lo, hi] before listing
    # them; on small ranges it agrees with a plain scan of the range, for
    # either sign of d and with lists that are right, short, long or empty.
    from isoreg.paramtheory import Step, validate_step

    for d in (-5, -2, -1, 1, 2, 3, 5):
        for lo in range(-8, 9):
            for hi in range(-8, 9):
                scan = [x for x in range(lo, hi + 1) if x % d == 0]
                for listed in (scan, scan[:-1], scan + [99], [], [0]):
                    for holds in (True, False):
                        step = Step(
                            "DIVISIBILITY", "",
                            {"divisor": d, "lo": lo, "hi": hi, "multiples": listed}, holds,
                        )
                        assert validate_step(step) == ((scan == listed) == holds)
