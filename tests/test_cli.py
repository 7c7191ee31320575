"""CLI behavior: exit-code contract, report shapes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import isoreg

from isoreg.cli import main
from isoreg.formats import MAX_GRAPH6_FILE
from isoreg.paramtheory import MAX_CERTIFICATE_BYTES, feasible_edge_params
from isoreg.srg import SrgParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_graph6(capsys):
    code, out, _ = run_cli(capsys, "build", "petersen")
    assert code == 0
    from isoreg import decode_graph6, named_graph

    assert decode_graph6(out.strip()) == named_graph("petersen")


def test_build_formats(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "build", "c5", "--format", "dot")
    assert code == 0 and out.startswith("graph G {")
    code, out, _ = run_cli(capsys, "build", "c5", "--format", "json")
    payload = json.loads(out)
    assert payload["srg"] == {"n": 5, "k": 2, "lambda": 0, "mu": 1}
    target = tmp_path / "c5.g6"
    code, out, _ = run_cli(capsys, "build", "c5", "-o", str(target))
    assert code == 0 and target.read_text().strip()


def test_build_symbol_and_g6_inputs(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "build", "bi:n=5;S=1,-1;Sp=2,-2;T=0")
    assert code == 0
    g6 = out.strip()
    code, out2, _ = run_cli(capsys, "build", "g6:" + g6)
    assert code == 0 and out2.strip() == g6
    path = tmp_path / "pet.g6"
    path.write_text(g6 + "\n")
    code, out3, _ = run_cli(capsys, "build", "@" + str(path))
    assert code == 0 and out3.strip() == g6
    code, _, err = run_cli(capsys, "build", "@" + str(tmp_path / "missing.g6"))
    assert code == 2 and "cannot read" in err


def test_unknown_tag_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "build", "nope")
    assert (code, out) == (2, "")
    assert err == ("error: unknown graph tag 'nope'; known tags: c5, clebsch, gq22, k4xk4,"
                   " petersen, shrikhande-a, shrikhande-b, t6-complement, t7, paley-<p>\n")


def test_malformed_graph6_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "srg", "g6:D???")
    assert code == 2 and "graph6" in err


@pytest.mark.parametrize("text", ["Dhc\x1f", "\x1cDhc\x85", "Dhc\u2028"], ids=ascii)
def test_graph6_wrapped_in_non_ascii_whitespace_is_usage_error(capsys, tmp_path, text):
    # Only space, tab, CR, LF, VT and FF may surround graph6 text.
    code, out, err = run_cli(capsys, "build", "g6:" + text)
    assert (code, out) == (2, "") and "invalid graph6 character" in err
    path = tmp_path / "g.g6"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "build", "@" + str(path))
    assert (code, out) == (2, "") and err.startswith("error: ")
    if text.isascii():
        assert "invalid graph6 character" in err


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("header", ["", ">>graph6<<"], ids=["bare", "header"])
@pytest.mark.parametrize("command", [("build", "--format", "json"), ("check", "srg")], ids=" ".join)
def test_graph_file_report_names_its_text_without_whitespace(capsys, tmp_path, command,
                                                             header, line_end):
    # A report names an @FILE graph g6: plus the file's text, line end and
    # surrounding ASCII whitespace dropped.
    path = tmp_path / "c5.g6"
    path.write_bytes((" " + header + "Dhc" + line_end).encode("ascii"))
    code, out, err = run_cli(capsys, *command, "@" + str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["graph"] == "g6:" + header + "Dhc"


def test_check_srg_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "check", "srg", "petersen")
    payload = json.loads(out)
    assert code == 0
    assert payload["srg"] == {"n": 10, "k": 3, "lambda": 0, "mu": 1}
    assert payload["hoffman_bound"] == "5/2"
    assert payload["graph6"]  # reports are self-contained
    code, out, _ = run_cli(capsys, "check", "srg", "circ:n=6;S=1,-1")
    assert code == 1  # C6 is not strongly regular


def test_check_isoreg(capsys):
    code, out, _ = run_cli(capsys, "check", "isoreg", "clebsch", "--k", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["profile"]["valencies"]["3K1"] == 1
    assert all(
        payload["profile"]["valencies"][t] == 0 for t in ("K3", "K1,2", "K2+K1")
    )
    code, out, _ = run_cli(capsys, "check", "isoreg", "shrikhande-a", "--k", "3")
    payload = json.loads(out)
    assert code == 1
    assert payload["witness"]["valency_a"] != payload["witness"]["valency_b"]


@pytest.mark.parametrize("graph, code", [("clebsch", 0), ("shrikhande-a", 1)])
def test_check_isoreg_scans_once(capsys, monkeypatch, graph, code):
    # The verdict carries the profile, so the subsets are scanned once.
    from isoreg import isoregularity

    calls = []
    scan = isoregularity._valencies
    monkeypatch.setattr(isoregularity, "_valencies", lambda g, k: calls.append(k) or scan(g, k))
    assert run_cli(capsys, "check", "isoreg", graph)[0] == code
    assert calls == [3]


@pytest.mark.parametrize(
    "graph, code, nontrivial",
    [("petersen", 0, True), ("circ:n=5;S=1,2,3,4", 0, False), ("circ:n=7;S=1,-1", 1, False)],
)
def test_check_srg_scans_once(capsys, monkeypatch, graph, code, nontrivial):
    # Nontriviality is read off the parameters, so the pairs are scanned once.
    from isoreg import srg

    calls = []
    scan = srg._srg_from_pairs
    monkeypatch.setattr(srg, "_srg_from_pairs", lambda *args: calls.append(1) or scan(*args))
    got, out, _ = run_cli(capsys, "check", "srg", graph)
    assert (got, json.loads(out)["nontrivial"]) == (code, nontrivial)
    assert len(calls) == 1


def test_check_local3_and_tvertex(capsys):
    code, out, _ = run_cli(capsys, "check", "local3", "clebsch")
    assert code == 0 and json.loads(out)["locally_3isoregular"]
    code, out, _ = run_cli(capsys, "check", "local3", "petersen", "--vertex", "0")
    assert code == 1
    code, out, _ = run_cli(capsys, "check", "local3", "petersen", "--vertex", "9")
    assert code == 1 and json.loads(out)["vertices"][0]["x"] == 9
    code, out, _ = run_cli(capsys, "check", "tvertex", "petersen", "--t", "4")
    assert code == 0
    code, out, _ = run_cli(capsys, "check", "tvertex", "p4-not-a-tag")
    assert code == 2


def test_params_solve(capsys):
    code, out, _ = run_cli(capsys, "params", "solve", "16", "6", "2", "2")
    payload = json.loads(out)
    assert code == 0
    assert [tuple(s[c] for c in "QRWV") for s in payload["solutions"]] == [(1, 0, 1, 0)]
    code, _, err = run_cli(capsys, "params", "solve", "10", "3", "1", "1")
    assert code == 2


def test_certify_and_replay(capsys, tmp_path):
    cert_file = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "certify", "bicirc-odd", "--range", "2..200", "-o", str(cert_file))
    assert code == 0
    payload = json.loads(cert_file.read_text())
    assert len(payload["instances"]) == 199
    assert all(i["verdict"] == "CONTRADICTION" for i in payload["instances"])
    code, out, _ = run_cli(capsys, "replay", str(cert_file))
    assert code == 0 and json.loads(out)["replay_ok"]

    tampered = json.loads(cert_file.read_text())
    tampered["instances"][0]["steps"][0]["data"]["lhs"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tampered))
    code, out, _ = run_cli(capsys, "replay", str(bad))
    assert code == 1 and not json.loads(out)["replay_ok"]


def test_replay_of_unknown_claim_does_not_hold(capsys, tmp_path):
    cert_file = tmp_path / "cert.json"
    run_cli(capsys, "certify", "bicirc-odd", "--range", "2..5", "-o", str(cert_file))
    payload = json.loads(cert_file.read_text())
    payload["claim"] = "nope"
    cert_file.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "replay", str(cert_file))
    assert code == 1
    assert json.loads(out) == {"replay_ok": False, "claim_holds": False,
                               "mismatches": ["unknown claim 'nope'"]}


def test_certify_tri_range_with_negatives(capsys, tmp_path):
    # Leading-dash ranges need the --range=-5..5 spelling under argparse.
    cert_file = tmp_path / "tri1.json"
    code, _, _ = run_cli(capsys, "certify", "tri1", "--range=-5..5", "-o", str(cert_file))
    assert code == 0
    payload = json.loads(cert_file.read_text())
    verdicts = {i["index"]: i["verdict"] for i in payload["instances"]}
    assert verdicts[-1] == "SOLUTION" and verdicts[0] == "DEGENERATE"


def test_search_stream_and_exit(capsys):
    code, out, _ = run_cli(capsys, "search", "bicirc", "--n", "5", "--params", "10,3,0,1")
    assert code == 0
    lines = out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert "summary" in records[-1]
    assert records[-1]["summary"]["stats"]["classes"] == 1
    assert all("symbol" in r for r in records[:-1])


def test_search_bicirc_odd_claim_exit(capsys):
    code, out, _ = run_cli(capsys, "search", "bicirc-odd", "--n", "5")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    assert summary["iso3_survivors"] == 0 and summary["structure_ok"]


def test_search_tricirc_cli(capsys):
    code, out, _ = run_cli(capsys, "search", "tricirc", "--n", "3", "--params", "9,4,1,2")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    assert summary["stats"]["classes"] == 1
    code, _, err = run_cli(capsys, "search", "tricirc", "--n", "3")
    assert code == 2 and "--params" in err


def test_both_searches_count_every_srg_they_build(capsys):
    # Each join builds the complete graph, whose vacuous mu is reported as 0,
    # so it misses the target; both searches count it under srg.
    for argv in (("bicirc", "--n", "3", "--params", "6,5,4,3"),
                 ("tricirc", "--n", "3", "--params", "9,8,7,3")):
        code, out, _ = run_cli(capsys, "search", *argv)
        assert code == 0
        stats = json.loads(out)["summary"]["stats"]
        assert (stats["srg"], stats["nontrivial_srg"], stats["survivors"]) == (1, 0, 0), argv


def test_jobs_env_default(capsys, monkeypatch):
    # --jobs, default 1, is the one worker-count setting; ISOREG_JOBS, which
    # once set the count when the flag was absent, is not read.
    import isoreg.cli as cli

    search, seen = cli.search_bicirculant, []
    monkeypatch.setattr(cli, "search_bicirculant",
                        lambda spec, jobs: seen.append(jobs) or search(spec, jobs=1))
    monkeypatch.setenv("ISOREG_JOBS", "3")
    assert run_cli(capsys, "search", "bicirc", "--n", "5", "--jobs", "2")[0] == 0
    assert run_cli(capsys, "search", "bicirc", "--n", "5")[0] == 0
    assert seen == [2, 1]


def test_bad_jobs_env_is_not_read_by_search(capsys, monkeypatch):
    # A value the variable could not hold as a worker count changes nothing.
    want = run_cli(capsys, "search", "bicirc", "--n", "5")
    assert want[0] == 0
    for value in ("abc", "0", "-2", ""):
        monkeypatch.setenv("ISOREG_JOBS", value)
        assert run_cli(capsys, "search", "bicirc", "--n", "5") == want, value


@pytest.mark.parametrize("argv", [("check", "srg", "petersen"), ("build", "c5")], ids=" ".join)
def test_bad_jobs_env_is_not_read_outside_search(capsys, monkeypatch, argv):
    want = run_cli(capsys, *argv)
    assert want[0] == 0
    monkeypatch.setenv("ISOREG_JOBS", "abc")
    assert run_cli(capsys, *argv) == want


def test_check_local3_vertex_out_of_range(capsys):
    # Negative indices must not wrap around to the last vertices.
    for vertex in ("99", "10", "-1"):
        code, out, err = run_cli(capsys, "check", "local3", "petersen", "--vertex", vertex)
        assert code == 2 and out == ""
        assert err == f"error: --vertex {vertex} outside 0..9\n"


def test_search_cap_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "search", "bicirc", "--n", "15")
    assert code == 2 and "candidates" in err


@pytest.mark.parametrize("argv", ["--n 20000", "--n 200000 --s-size 0 --sp-size 0 --t-size 0"])
def test_search_above_vertex_cap_is_refused_at_once(capsys, argv):
    # 2n above MAX_VERTICES is refused before the closed-form candidate
    # count, which alone ran for seconds at these moduli.
    import time

    start = time.perf_counter()
    code, out, err = run_cli(capsys, "search", "bicirc", *argv.split())
    assert time.perf_counter() - start < 0.5
    n = int(argv.split()[1])
    assert (code, out, err) == (2, "", f"error: 2n = {2 * n} above the vertex cap 4096\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("search tricirc --n 14 --params 42,10,3,2", "3n = 42 above the tricirculant cap 40"),
    ],
)
def test_order_cap_error_claims_no_estimate(capsys, argv, message):
    # The order caps are checked before any candidate count is taken.
    assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}\n")


def test_iso3_runs_above_order_64(capsys):
    # Every nontrivial target match takes the triple test with or without
    # --iso3, so the flag sets no order limit of its own: at 2n = 66 it runs
    # with the stats of the plain run.
    argv = "search bicirc --n 33 --s-size 2 --sp-size 2 --t-size 0".split()
    code, out, err = run_cli(capsys, *argv, "--iso3")
    assert (code, err) == (0, "")
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    assert json.loads(out)["summary"]["stats"] == json.loads(plain[1])["summary"]["stats"]


def test_bicirc_odd_reach_is_the_candidate_cap(capsys):
    # The odd run refuses even n and is otherwise bounded by the candidate
    # cap alone: n = 3 runs the full space of search bicirc --n 3, and n = 15
    # is refused with its count.
    code, out, _ = run_cli(capsys, "search", "bicirc-odd", "--n", "3")
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["family_index"] is None and summary["structure_ok"]
    plain = run_cli(capsys, "search", "bicirc", "--n", "3")
    assert plain[0] == 0
    assert summary["stats"] == json.loads(plain[1])["summary"]["stats"]
    assert summary["stats"]["candidates"] == 32 and summary["stats"]["survivors"] == 0
    assert run_cli(capsys, "search", "bicirc-odd", "--n", "15") == (
        2, "", "error: bicirculant space too large (estimated 536870912 candidates)\n")


def test_output_deterministic_across_runs_and_jobs(capsys):
    _, out1, _ = run_cli(capsys, "search", "bicirc", "--n", "8", "--params", "16,5,0,2")
    _, out2, _ = run_cli(capsys, "search", "bicirc", "--n", "8", "--params", "16,5,0,2")
    assert out1 == out2
    _, out3, _ = run_cli(
        capsys, "search", "bicirc", "--n", "8", "--params", "16,5,0,2", "--jobs", "2"
    )
    assert out1 == out3
    _, c1, _ = run_cli(capsys, "check", "isoreg", "k4xk4")
    _, c2, _ = run_cli(capsys, "check", "isoreg", "k4xk4")
    assert c1 == c2


@pytest.mark.parametrize("family, top", [("thm22", "0"), ("lm93", "0"), ("tri", "-3")])
def test_families_without_row_is_usage_error(capsys, family, top):
    # A table of no row would exit 0 as if a table had been asked for.
    code, out, err = run_cli(capsys, "families", family, f"--max={top}")
    assert (code, out, err) == (2, "", f"error: --max {top} gives no {family} row\n")


def test_families_tables(capsys):
    code, out, _ = run_cli(capsys, "families", "thm22", "--max", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["rows"][0]["params"] == {"n": 10, "k": 3, "lambda": 0, "mu": 1}
    code, out, _ = run_cli(capsys, "families", "lm93", "--max", "2")
    payload = json.loads(out)
    assert payload["rows"][1]["even_candidates"]["b"]["Q"] == 1
    code, out, _ = run_cli(capsys, "families", "tri", "--max", "2")
    assert code == 0 and len(json.loads(out)["rows"]) == 5


def test_malformed_range(capsys):
    code, _, err = run_cli(capsys, "certify", "bicirc-odd", "--range", "2-30")
    assert code == 2


def _one_step_certificate(kind, data, holds=True, description=""):
    """A bicirc-odd certificate whose one instance holds one step."""
    step = {"kind": kind, "description": description, "data": data, "holds": holds}
    instance = {"index": 2, "params": None, "verdict": "CONTRADICTION", "steps": [step],
                "solution": None, "oracle": None}
    return {"claim": "bicirc-odd", "indices": [2], "instances": [instance]}


def _one_instance_certificate(**fields):
    """``_one_step_certificate`` on a step that holds, with the given fields
    of its instance replaced."""
    cert = _one_step_certificate("SUBSTITUTION", {"lhs": 1, "rhs": 1})
    cert["instances"][0].update(fields)
    return cert


def _one_oracle_certificate(entry):
    """``_one_instance_certificate`` whose oracle holds one entry."""
    return _one_instance_certificate(oracle={"feasible": [entry], "consistent": True})


_HOSTILE_CERTIFICATES = {
    "array": ([], "certificate is not an object"),
    "missing-key": ({"claim": "bicirc-odd"}, "malformed certificate: KeyError('indices')"),
    "divisor-zero": (
        _one_step_certificate("DIVISIBILITY", {"value": 1, "divisor": 0, "divides": False}),
        "DIVISIBILITY step with divisor 0",
    ),
    # No instance proves nothing, so it must not replay as a holding claim.
    "no-instances": (
        {"claim": "bicirc-odd", "indices": [], "instances": []},
        "error: certificate holds no instance",
    ),
    # A field of another type is refused before any arithmetic: "ab" * 10^15
    # would exhaust memory and [0] * 10^7 allocate 80 MB.
    "hoffman-eig-string": (
        _one_step_certificate("HOFFMAN_CLIQUE", {"clique": 10**15, "valency": 1, "eig": "ab"}),
        "HOFFMAN_CLIQUE step field 'eig' is not an integer",
    ),
    "hoffman-eig-list": (
        _one_step_certificate("HOFFMAN_CLIQUE", {"clique": 10**7, "valency": 1, "eig": [0]}),
        "HOFFMAN_CLIQUE step field 'eig' is not an integer",
    ),
    "boolean-as-integer": (
        _one_step_certificate("SUBSTITUTION", {"lhs": True, "rhs": 1}),
        "SUBSTITUTION step field 'lhs' is not an integer",
    ),
    "missing-field": (
        _one_step_certificate("INEQUALITY", {"lhs": 1, "rhs": 2}),
        "malformed certificate: KeyError('relation')",
    ),
    "gcd-three-values": (
        _one_step_certificate("GCD", {"values": [1, 2, 3], "equals": 1}),
        "GCD step field 'values' is not a list of two integers",
    ),
    # A graph of unbounded size, such as a Paley graph on 10^5 vertices,
    # would exhaust memory before its edges are measured.
    "graph-not-checked": (
        _one_step_certificate("GRAPH_CHECK", {"graph": "paley-100049",
                                              "assertion": "no-3-isoregular-edge"}),
        "GRAPH_CHECK step field 'graph' is not a checked graph",
    ),
    "unknown-kind": (
        _one_step_certificate("LEMMA", {"lhs": 1, "rhs": 1}),
        "step kind is not a known step kind",
    ),
    "holds-not-boolean": (
        _one_step_certificate("SUBSTITUTION", {"lhs": 1, "rhs": 1}, holds="yes"),
        "step holds is not a boolean",
    ),
    "holds-zero": (
        _one_step_certificate("SUBSTITUTION", {"lhs": 1, "rhs": 2}, holds=0),
        "step holds is not a boolean",
    ),
    # A slot of unbounded length is named, not echoed.
    "holds-long-string": (
        _one_step_certificate("SUBSTITUTION", {"lhs": 1, "rhs": 1}, holds="y" * 10**6),
        "step holds is not a boolean",
    ),
    "kind-long-string": (
        _one_step_certificate("L" * 10**6, {"lhs": 1, "rhs": 1}),
        "step kind is not a known step kind",
    ),
    # Python compares True equal to 1, so a JSON boolean in an integer slot
    # would regenerate as if it were that integer.
    "indices-boolean": (
        {**_one_instance_certificate(), "indices": [True]},
        "certificate indices is not a list of integers",
    ),
    "index-boolean": (_one_instance_certificate(index=True),
                      "instance index is not an integer"),
    "params-boolean": (
        _one_instance_certificate(params={"n": 10, "k": 3, "lambda": False, "mu": True}),
        "instance params is not an object of integers",
    ),
    "solution-boolean": (
        _one_instance_certificate(solution={"Q": False, "R": False, "W": True}),
        "instance solution is not an object of integers",
    ),
    "solution-list": (_one_instance_certificate(solution=[0]),
                      "instance solution is not an object"),
    "oracle-tuple-boolean": (
        _one_instance_certificate(oracle={"feasible": [{"tuple": [True, 0, 0]}], "consistent": True}),
        "oracle entry tuple is not a list of integers",
    ),
    "step-tuple-boolean": (
        _one_step_certificate("HOFFMAN_CLIQUE", {"clique": 5, "valency": 6, "eig": 3,
                                                 "tuple": [2, False, 2]}),
        "HOFFMAN_CLIQUE step field 'tuple' is not a list of integers",
    ),
    # claim_holds reads the oracle's consistency, so a malformed oracle is
    # refused, not a traceback.
    "oracle-empty": (_one_instance_certificate(oracle={}),
                     "malformed certificate: KeyError('feasible')"),
    "oracle-list": (_one_instance_certificate(oracle=[]), "oracle is not an object"),
    "oracle-without-consistent": (_one_instance_certificate(oracle={"feasible": []}),
                                  "malformed certificate: KeyError('consistent')"),
    # A container or string slot of another JSON type would regenerate
    # differently, or fail the claim, and so replay as exit 1.
    "indices-object": ({**_one_instance_certificate(), "indices": {}},
                       "certificate indices is not a list"),
    "claim-integer": ({**_one_instance_certificate(), "claim": 3},
                      "certificate claim is not a string"),
    "steps-object": (_one_instance_certificate(steps={}), "instance steps is not a list"),
    "verdict-integer": (_one_instance_certificate(verdict=1), "instance verdict is not a verdict"),
    "verdict-unknown": (_one_instance_certificate(verdict="FOO"), "instance verdict is not a verdict"),
    "description-integer": (
        _one_step_certificate("SUBSTITUTION", {"lhs": 1, "rhs": 1}, description=5),
        "step description is not a string",
    ),
    "oracle-feasible-object": (_one_instance_certificate(oracle={"feasible": {}, "consistent": True}),
                               "oracle feasible is not a list"),
    "oracle-consistent-string": (
        _one_instance_certificate(oracle={"feasible": [], "consistent": "yes"}),
        "oracle consistent is not a boolean",
    ),
    # An oracle entry is compared with its regeneration, never read, so a
    # slot of another type would replay as a failed claim.
    "oracle-entry-integer": (_one_oracle_certificate(7), "oracle entry is not an object"),
    "oracle-tuple-object": (_one_oracle_certificate({"tuple": {}}),
                            "oracle entry tuple is not a list of integers"),
    "oracle-eliminated-by-integer": (
        _one_oracle_certificate({"tuple": [0, 0, 0, 0], "eliminated_by": 7}),
        "oracle entry eliminated_by is not a string",
    ),
    "oracle-vacuous-string": (
        _one_oracle_certificate({"tuple": [0, 0, 0, 0], "vacuous": "Q", "eliminated_by": ""}),
        "oracle entry vacuous is not a list of strings",
    ),
    "oracle-settled-by-null": (
        _one_oracle_certificate({"tuple": [0, 0, 0], "settled_by": None}),
        "oracle entry settled_by is not a string",
    ),
}


@pytest.mark.parametrize("name", sorted(_HOSTILE_CERTIFICATES))
def test_replay_hostile_certificate_is_input_error(capsys, tmp_path, name):
    # A malformed certificate is an input error (exit 2), never a traceback
    # and never exit 1, the "claim fails" code; its one error line is short.
    payload, message = _HOSTILE_CERTIFICATES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "replay", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and len(err.encode()) < 200


@pytest.mark.parametrize(
    "family, index, forge, message",
    [
        ("tri1", -1, lambda cert: cert["instances"][0].update(
            solution={"Q": False, "R": False, "W": True}),
         "instance solution is not an object of integers"),
        ("tri2", 1, lambda cert: (cert.update(indices=[True]),
                                  cert["instances"][0].update(index=True)),
         "certificate indices is not a list of integers"),
    ],
    ids=["solution", "index"],
)
def test_replay_refuses_booleans_for_integers(capsys, tmp_path, family, index, forge, message):
    # A forged certificate whose integers are JSON booleans equal to them:
    # the solution (0, 0, 1) and the index 1.  Replay refuses it as input.
    cert_file = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", family, f"--range={index}..{index}", "-o", str(cert_file))
    assert code == 0
    payload = json.loads(cert_file.read_text())
    forge(payload)
    cert_file.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "replay", str(cert_file))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def _long_index_certificate(path, digits):
    """``_one_instance_certificate`` whose index is a literal of the given
    number of digits."""
    text = json.dumps(_one_instance_certificate(index=None))
    path.write_text(text.replace('"index": null', '"index": ' + "7" * digits))


def test_replay_refuses_long_integer_literal(capsys, tmp_path):
    # A literal over MAX_INTEGER_LITERAL characters is refused at its slot,
    # not converted, and not echoed.
    path = tmp_path / "cert.json"
    _long_index_certificate(path, 5_000)
    code, out, err = run_cli(capsys, "replay", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: instance index ") and len(err.encode()) < 200


def test_replay_refuses_long_integer_literal_without_digit_limit(tmp_path):
    # With the interpreter's own digit limit lifted, a 300,000-digit literal
    # would be converted, in seconds, and echoed whole in the error.
    path = tmp_path / "cert.json"
    _long_index_certificate(path, 300_000)
    src = os.path.dirname(os.path.dirname(isoreg.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "isoreg.cli", "replay", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "0"},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: instance index ") and len(proc.stderr.encode()) < 200


def test_claim_needs_a_consistent_solver_cross_check(capsys, monkeypatch, tmp_path):
    # A local-parameter tuple that no step of the certificate settles: the
    # proof misses a case the solver finds, so the claim does not hold, in
    # certify and in replay alike.
    from isoreg import paramtheory

    solve = paramtheory.feasible_local_params
    extra = paramtheory.LocalParamSolution(0, 0, 0, 0)
    monkeypatch.setattr(paramtheory, "feasible_local_params", lambda p: [*solve(p), extra])
    cert_file = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", "bicirc-odd", "--range", "2..3", "-o", str(cert_file))
    assert code == 1
    oracles = [inst["oracle"] for inst in json.loads(cert_file.read_text())["instances"]]
    assert [o["consistent"] for o in oracles] == [False, False]
    assert all(o["feasible"][-1] == {"tuple": [0, 0, 0, 0], "vacuous": [], "eliminated_by": ""}
               for o in oracles)
    code, out, _ = run_cli(capsys, "replay", str(cert_file))
    assert code == 1
    assert json.loads(out) == {"replay_ok": True, "claim_holds": False, "mismatches": []}


def test_replay_deeply_nested_certificate_is_input_error(capsys, tmp_path):
    # Nesting deeper than the decoder's recursion limit is an input error,
    # not a traceback that exits 1 as if the claim had failed.
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run_cli(capsys, "replay", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot load certificate: ") and err.count("\n") == 1
    assert "Traceback" not in err


# argv -> the vertex count its error names.
_OVERSIZED_INPUTS = {
    ("check", "srg", "paley-100049"): 100049,
    ("check", "srg", "paley-1000000000000000000000000000057"): 1000000000000000000000000000057,
    ("build", "circ:n=200000;S=1,-1"): 200000,
    ("build", "bi:n=100000;S=1,-1;Sp=;T=0"): 200000,
}


@pytest.mark.parametrize("argv", list(_OVERSIZED_INPUTS), ids=" ".join)
def test_oversized_graph_input_is_input_error(argv):
    # A graph above MAX_VERTICES is refused before its rows are built, and a
    # Paley order before its primality is tested.  The child runs under an
    # 800 MB address-space limit and a timeout, so a regression fails
    # instead of exhausting memory or running on.  The error names the size
    # alone: the input is well formed, so it is no "malformed symbol", and
    # the tag is known, so the list of tags is not appended.
    src = os.path.dirname(os.path.dirname(isoreg.__file__))
    code = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (800 << 20, 800 << 20)); "
        "from isoreg.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: vertex count {_OVERSIZED_INPUTS[argv]} outside 1..4096\n"


def test_replay_wide_multiples_range_is_bounded(capsys, tmp_path):
    # A DIVISIBILITY step claiming the multiples of d in [2, 10^11] is checked
    # by counting them, not by scanning the range: the forged steps fail to
    # revalidate (exit 1) and the replay stays fast.
    import time

    cert_file = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", "bicirc-odd", "--range", "2..3", "-o", str(cert_file))
    assert code == 0
    payload = json.loads(cert_file.read_text())
    forged = 0
    for inst in payload["instances"]:
        for step in inst["steps"]:
            if step["kind"] == "DIVISIBILITY" and "multiples" in step["data"]:
                step["data"]["hi"] = 10**11
                forged += 1
    assert forged >= 2
    cert_file.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "replay", str(cert_file))
    assert time.perf_counter() - start < 1.0
    report = json.loads(out)
    assert code == 1 and not report["replay_ok"]
    assert any("does not revalidate" in m for m in report["mismatches"])


# Small ranges that reach every step kind and every branch of the five
# certifiers: both parities of m, the degenerate indices, the s = -1 solution
# and the s = 2 graph check.
_MUTATION_RANGES = {"bicirc-odd": "2..3", "family-b": "3..5", "family-c": "3..5",
                    "tri1": "-2..1", "tri2": "-1..2"}


def _integer_places(data):
    """(field, position) of every integer in a step's data; the position is
    None for an integer field and the index for an element of a list."""
    for field, value in data.items():
        if type(value) is int:
            yield field, None
        elif type(value) is list:
            yield from ((field, pos) for pos, x in enumerate(value) if type(x) is int)


@pytest.mark.parametrize("family", sorted(_MUTATION_RANGES))
def test_replay_rejects_every_shifted_step_integer(capsys, tmp_path, family):
    # Seeded mutation: shifting any one integer of any step's data by +1 makes
    # replay exit 1 with a mismatch, never 0 and never a traceback.
    cert_file = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", family, f"--range={_MUTATION_RANGES[family]}",
                         "-o", str(cert_file))
    assert code == 0
    payload = json.loads(cert_file.read_text())
    mutations = 0
    for instance in payload["instances"]:
        single = {"claim": payload["claim"], "indices": [instance["index"]],
                  "instances": [instance]}
        cert_file.write_text(json.dumps(single))
        assert run_cli(capsys, "replay", str(cert_file))[0] == 0
        for pos, step in enumerate(instance["steps"]):
            for field, item in list(_integer_places(step["data"])):
                mutant = json.loads(json.dumps(single))
                data = mutant["instances"][0]["steps"][pos]["data"]
                if item is None:
                    data[field] += 1
                else:
                    data[field][item] += 1
                cert_file.write_text(json.dumps(mutant))
                code, out, _ = run_cli(capsys, "replay", str(cert_file))
                assert code == 1 and json.loads(out)["mismatches"], (instance["index"], pos, field)
                mutations += 1
    assert mutations >= 20


def _set_description(inst):
    inst["steps"][1]["description"] += " "


def _shift_oracle_tuple(inst):
    inst["oracle"]["feasible"][0]["tuple"][1] += 1


def _rename_oracle_step(inst):
    inst["oracle"]["feasible"][1]["eliminated_by"] = "GRAPH_CHECK"


def _shift_solution(inst):
    inst["solution"]["W"] += 1


# mutant -> (family, one-index range, the change to its instance).  No
# change touches a step's data, so every step still revalidates.
_RECORD_MUTANTS = {
    "description": ("bicirc-odd", "3..3", _set_description),
    "oracle-tuple": ("family-c", "3..3", _shift_oracle_tuple),
    "oracle-step": ("family-c", "3..3", _rename_oracle_step),
    "solution": ("tri1", "-1..-1", _shift_solution),
}


@pytest.mark.parametrize("mutant", sorted(_RECORD_MUTANTS))
def test_replay_rejects_a_changed_record(capsys, tmp_path, mutant):
    # A record that differs from its regeneration in one description, one
    # oracle entry or one solution value fails the replay (exit 1).
    family, index_range, change = _RECORD_MUTANTS[mutant]
    cert_file = tmp_path / "cert.json"
    assert run_cli(capsys, "certify", family, f"--range={index_range}", "-o", str(cert_file))[0] == 0
    payload = json.loads(cert_file.read_text())
    change(payload["instances"][0])
    cert_file.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "replay", str(cert_file))
    index = payload["instances"][0]["index"]
    assert code == 1
    assert json.loads(out)["mismatches"] == [f"index {index}: regeneration differs from record"]


def _unit_integer_places(node, path=()):
    """The path of every integer 0 or 1 in a JSON tree: the integers that a
    JSON boolean compares equal to."""
    if type(node) is int and node in (0, 1):
        yield path
    elif isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _unit_integer_places(child, (*path, key))


@pytest.mark.parametrize("family", sorted(_MUTATION_RANGES))
def test_replay_refuses_every_boolean_for_an_integer(capsys, tmp_path, family):
    # Each 0 or 1 of a certificate, in its indices, an instance's index,
    # params, step data, solution or oracle tuples, replaced by the boolean
    # equal to it: replay refuses the certificate as input (exit 2).
    cert_file = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", family, f"--range={_MUTATION_RANGES[family]}",
                         "-o", str(cert_file))
    assert code == 0
    payload = json.loads(cert_file.read_text())
    places = list(_unit_integer_places(payload))
    assert places
    for path in places:
        mutant = json.loads(json.dumps(payload))
        node = mutant
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bool(node[path[-1]])
        cert_file.write_text(json.dumps(mutant))
        code, out, err = run_cli(capsys, "replay", str(cert_file))
        assert (code, out) == (2, ""), path
        assert "integer" in err, path


# The certificates of the slot fuzz, and a value of each JSON type.
_FUZZ_RANGES = {"tri1": "-1..0", "bicirc-odd": "2..3", "family-c": "3..3"}
_FUZZ_VALUES = (7, "x", True, None, [], {})


def _json_type(value) -> str:
    return "null" if value is None else type(value).__name__


def _slots(node, path=()):
    """The path and value of every slot of a JSON tree: each object member
    and each list element, at any depth."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield (*path, key), child
            yield from _slots(child, (*path, key))


def test_replay_refuses_every_slot_of_another_type(capsys, tmp_path):
    # Each slot of three certificates, replaced one at a time by each value
    # of a JSON type the slot does not allow, is an input error: exit 2 with
    # one error line, never a traceback and never exit 1 as if the claim had
    # failed.  params, solution and oracle allow an object or null.
    cert_file = tmp_path / "cert.json"
    mutations = 0
    for family, index_range in _FUZZ_RANGES.items():
        code, payload, _ = run_cli(capsys, "certify", family, f"--range={index_range}")
        assert code == 0
        payload = json.loads(payload)
        for path, original in list(_slots(payload)):
            node = payload
            for key in path[:-1]:
                node = node[key]
            allowed = {_json_type(original)}
            if path[-1] in ("params", "solution", "oracle"):
                allowed |= {"dict", "null"}
            for value in _FUZZ_VALUES:
                if _json_type(value) in allowed:
                    continue
                node[path[-1]] = value
                cert_file.write_text(json.dumps(payload))
                node[path[-1]] = original
                code, out, err = run_cli(capsys, "replay", str(cert_file))
                assert (code, out) == (2, ""), (family, path, value)
                assert err.startswith("error: ") and err.count("\n") == 1, (family, path, value)
                mutations += 1
    assert mutations == 1985


def test_certify_range_outside_index_bound(capsys):
    code, out, err = run_cli(capsys, "certify", "bicirc-odd", "--range", "100000..100000")
    assert (code, out) == (2, "") and "|index| <= 1000" in err
    code, _, _ = run_cli(capsys, "certify", "tri1", "--range=-1001..0")
    assert code == 2
    code, out, _ = run_cli(capsys, "certify", "bicirc-odd", "--range", "1000..1000")
    assert code == 0 and json.loads(out)["indices"] == [1000]


def test_replay_index_outside_bound(capsys, tmp_path):
    cert_file = tmp_path / "cert.json"
    run_cli(capsys, "certify", "bicirc-odd", "--range", "2..2", "-o", str(cert_file))
    payload = json.loads(cert_file.read_text())
    payload["indices"] = [100000]
    payload["instances"][0]["index"] = 100000
    cert_file.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "replay", str(cert_file))
    assert (code, out) == (2, "") and "|index| <= 1000" in err


def test_families_max_outside_index_bound(capsys):
    code, out, err = run_cli(capsys, "families", "tri", "--max", "100000000")
    assert (code, out) == (2, "") and "|index| <= 1000" in err
    code, out, _ = run_cli(capsys, "families", "thm22", "--max", "1000")
    assert code == 0 and len(json.loads(out)["rows"]) == 1000


def test_search_bicirc_target_order_mismatch(capsys):
    # A bicirculant has 2n vertices; a target of another order is an input
    # error, as a tricirculant target of order other than 3n is.
    code, out, err = run_cli(capsys, "search", "bicirc", "--n", "5", "--params", "16,6,2,2")
    assert (code, out) == (2, "") and "is not 2n = 10" in err
    code, _, err = run_cli(capsys, "search", "tricirc", "--n", "5", "--params", "16,6,2,2")
    assert code == 2 and "is not 3n = 15" in err


def test_search_sp_size_with_sp_complement_is_usage_error(capsys):
    # S' = S-hat fixes |S'| = n - 1 - |S|, so an explicit --sp-size would be
    # ignored; the combination is an input error, not a silent full run.
    for size in ("4", "0"):
        code, out, err = run_cli(
            capsys, "search", "bicirc", "--n", "5", "--sp-complement", "--sp-size", size
        )
        assert (code, out) == (2, "") and "--sp-size" in err
    code, out, _ = run_cli(capsys, "search", "bicirc", "--n", "5", "--sp-complement")
    assert code == 0 and out


def _child(code, *argv):
    """Run code in a child with isoreg on its path; a solver that walks
    every R in [0, lambda] fails on the timeout instead of hanging."""
    src = os.path.dirname(os.path.dirname(isoreg.__file__))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})


_CLI_CHILD = "import sys; from isoreg.cli import main; sys.exit(main(sys.argv[1:]))"


def test_params_solve_cost_does_not_grow_with_lambda():
    # The bicirc-odd parameters at m = 10^5 have lambda = 10^10 - 1; the
    # solver walks one progression in R, so this finishes at once.
    argv = ["params", "solve", "40000400002", "20000100000", "9999999999", "10000000000"]
    proc = _child(_CLI_CHILD, *argv)
    assert proc.returncode == 0, proc.stderr
    # `params solve` prints the local solutions: the one edge tuple has no
    # integral V (mu * 10^5 is not a multiple of D22 = 10000200000).
    assert json.loads(proc.stdout)["count"] == 0
    p = SrgParams(*map(int, argv[2:]))
    assert feasible_edge_params(p) == [(9999999998, 0, 9999900000)]


def test_params_solve_cost_follows_the_solutions():
    # (n, k, lambda, mu) = (7x+2, 3x+1, x, (3x+1)/2) with x odd: Q = x-1-2R
    # and W = x-R are integral for every R, so the edge progression has step
    # 1 and (x+1)/2 solutions.  V needs R = c (mod D22/gcd(mu, D22)); here
    # x = 10^15 + 37, that gcd is 1 and D22 = (5x-3)/2 > lambda, so the local
    # walk visits at most one R.
    x = 10**15 + 37
    proc = _child(_CLI_CHILD, "params", "solve", *map(str, (7 * x + 2, 3 * x + 1, x, (3 * x + 1) // 2)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 0
    # The edge side: (k + 1 + 8lambda/3, 3lambda+1, lambda, 3k/4) with
    # lambda = 9 (mod 12).  Both moduli are 1 again, but Q = lambda-1-2R >= 0
    # needs R <= (lambda-1)/2 and W = 3(lambda-R) <= lambda needs
    # R >= 2lambda/3, so the walk is empty.  Here lambda = 10^15 + 5.
    lam = 10**15 + 5
    k = 3 * lam + 1
    proc = _child("import sys; from isoreg import SrgParams, feasible_edge_params; "
                  "print(feasible_edge_params(SrgParams(*map(int, sys.argv[1:]))))",
                  *map(str, (k + 1 + 8 * lam // 3, k, lam, 3 * k // 4)))
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "bicirc", "--n", "-3"),
        ("search", "bicirc", "--n", "1"),
        ("search", "tricirc", "--n", "0", "--params", "0,4,1,2"),
        ("search", "tricirc", "--n", "1", "--params", "3,2,1,0"),
    ],
    ids=" ".join,
)
def test_search_modulus_below_two_is_usage_error(capsys, argv):
    # Both searches reject a modulus below 2 before any enumeration, instead
    # of failing inside the mask builder or summarising an empty space.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "modulus must be at least 2" in err


def test_search_one_symbol_space_builds_no_full_mask_list():
    # One candidate at n = 60: the cap is checked on closed-form counts and
    # only masks of the requested sizes are built, never the 2^30 symmetric
    # masks or the 2^60 T masks.  The child runs under a 1 GiB address-space
    # limit and a timeout, so a regression fails instead of exhausting memory.
    src = os.path.dirname(os.path.dirname(isoreg.__file__))
    code = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from isoreg.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    argv = ["search", "bicirc", "--n", "60", "--s-size", "0", "--sp-size", "0", "--t-size", "0"]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["summary"]["stats"]["candidates"] == 1


def test_params_solve_complete_graph_is_usage_error(capsys):
    # K_11 as (11, 10, 9, 5) satisfies the parameter identity, but its
    # complement has no edges, so it is not a nontrivial parameter set.
    code, out, err = run_cli(capsys, "params", "solve", "11", "10", "9", "5")
    assert (code, out) == (2, "")
    assert err == "error: (11, 10, 9, 5) is not a nontrivial parameter set\n"


_MODE_ARGS = {"tricirc": ("--n", "3", "--params", "9,4,1,2"), "bicirc-odd": ("--n", "5")}


@pytest.mark.parametrize(
    "mode, flag",
    [
        ("tricirc", ("--iso3",)),
        ("tricirc", ("--s-size", "2")),
        ("tricirc", ("--sp-size", "0")),
        ("tricirc", ("--t-size", "1")),
        ("tricirc", ("--sp-complement",)),
        ("bicirc-odd", ("--params", "10,3,0,1")),
        ("bicirc-odd", ("--iso3",)),
        ("bicirc-odd", ("--t-size", "0")),
    ],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_search_flag_the_mode_ignores_is_usage_error(capsys, mode, flag):
    # A flag that shapes only the bicirculant space would be dropped by the
    # other modes, so the run could not be the one asked for.
    code, out, err = run_cli(capsys, "search", mode, *_MODE_ARGS[mode], *flag)
    assert (code, out, err) == (2, "", f"error: search {mode} does not take {flag[0]}\n")


@pytest.mark.parametrize(
    "what, flags, refused",
    [("srg", ["--k", "9", "--t", "7", "--vertex", "99"], "--k, --t, --vertex"),
     ("isoreg", ["--k", "3", "--t", "2"], "--t"),
     ("local3", ["--vertex", "0", "--k", "3"], "--k"),
     ("tvertex", ["--t", "2", "--vertex", "0"], "--vertex")],
)
def test_check_flag_the_kind_ignores_is_usage_error(capsys, what, flags, refused):
    # Each check kind reads at most one of --k, --t and --vertex; any other
    # would be dropped, so the check could not be the one asked for.
    code, out, err = run_cli(capsys, "check", what, "petersen", *flags)
    assert (code, out, err) == (2, "", f"error: check {what} does not take {refused}\n")


@pytest.mark.parametrize(
    "flag, size, top",
    [("--s-size", "-1", 7), ("--s-size", "8", 7), ("--sp-size", "8", 7),
     ("--t-size", "99", 8), ("--t-size", "-1", 8)],
)
def test_search_size_out_of_range_is_usage_error(capsys, flag, size, top):
    code, out, err = run_cli(capsys, "search", "bicirc", "--n", "8", flag, size)
    assert (code, out) == (2, "") and err == f"error: {flag} {size} outside 0..{top}\n"


def test_search_size_at_range_ends_runs(capsys):
    code, out, _ = run_cli(
        capsys, "search", "bicirc", "--n", "8", "--s-size", "7", "--sp-size", "0", "--t-size", "8"
    )
    assert code == 0
    assert json.loads(out.splitlines()[-1])["summary"]["stats"]["candidates"] == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_search_jobs_below_one_is_usage_error(capsys, jobs):
    # A worker count below 1 is an input error, not 1.
    code, out, err = run_cli(capsys, "search", "bicirc", "--n", "5", "--jobs", jobs)
    assert (code, out) == (2, "") and err == f"error: --jobs must be an integer >= 1, got {jobs}\n"


@pytest.mark.parametrize(
    "family, text", [("bicirc-odd", "5..2"), ("tri1", "3..-3"), ("family-b", "2..2")]
)
def test_certify_range_without_index_is_usage_error(capsys, family, text):
    # A range with no index (lo > hi, or family-b/c's even indices only)
    # would certify no instance and exit 0 as if the claim held.
    code, out, err = run_cli(capsys, "certify", family, "--range", text)
    assert (code, out, err) == (2, "", f"error: range {text!r} holds no {family} index\n")


def test_circulant_symbol_modulus_zero_is_usage_error(capsys):
    # circ: text is validated like bi: and tri: text, before any residue is
    # reduced mod n, so n = 0 is an input error and not a ZeroDivisionError.
    code, out, err = run_cli(capsys, "build", "circ:n=0;S=1")
    assert (code, out) == (2, "") and "modulus must be at least 2" in err


@pytest.mark.parametrize(
    "mode, n, target",
    [
        ("bicirc", "5", "10,3,0,-1"),
        ("bicirc", "5", "10,30,0,1"),
        ("bicirc", "5", "10,10,0,1"),
        ("bicirc", "5", "10,-1,0,1"),
        ("bicirc", "5", "10,3,-1,1"),
        ("tricirc", "3", "9,4,1,-2"),
        ("tricirc", "3", "9,9,0,0"),
    ],
)
def test_search_impossible_target_is_usage_error(capsys, mode, n, target):
    # No graph has a negative k, lambda or mu, or k > n - 1, so the search
    # would run empty and exit 0 as if it had looked for something.
    code, out, err = run_cli(capsys, "search", mode, "--n", n, "--params", target)
    assert (code, out) == (2, "")
    assert err == (f"error: no graph has parameters ({target.replace(',', ', ')}):"
                   " need 0 <= k <= n - 1 and lambda, mu >= 0\n")


@pytest.mark.parametrize(
    "mode, n, target", [("bicirc", "5", "10,9,8,0"), ("bicirc", "5", "10,0,0,0"),
                        ("tricirc", "3", "9,8,7,0")],
)
def test_search_extreme_possible_target_runs(capsys, mode, n, target):
    # k = 0 and k = n - 1 are the empty and the complete graph: possible
    # targets, which the nontriviality filter then drops.
    code, out, _ = run_cli(capsys, "search", mode, "--n", n, "--params", target)
    assert code == 0
    assert json.loads(out.splitlines()[-1])["summary"]["stats"]["survivors"] == 0


@pytest.mark.parametrize("target", ["missing-dir/cert.json", "."], ids=["no-such-dir", "a-directory"])
def test_unwritable_output_is_input_error(capsys, tmp_path, target):
    # A write error is an input error (exit 2), never a traceback and never
    # exit 1, the "claim fails" code.
    out_path = tmp_path / target
    code, out, err = run_cli(capsys, "certify", "bicirc-odd", "--range", "2..5", "-o", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert "Traceback" not in err


class _ClosedStdout:
    """A stdout whose reader has gone: every write or flush (as chosen)
    raises BrokenPipeError.  It has no fileno(), so main leaves fd 1 alone."""

    def __init__(self, fail_on):
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.fail_on == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fail_on", ["write", "flush"])
@pytest.mark.parametrize(
    "argv",
    [("search", "bicirc-odd", "--n", "5"), ("build", "c5", "--format", "json"),
     ("certify", "bicirc-odd", "--range", "2..5")],
    ids=" ".join,
)
def test_closed_stdout_is_input_error(capsys, monkeypatch, argv, fail_on):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout(fail_on))
    code = main(list(argv))
    err = capsys.readouterr().err
    assert (code, err) == (2, "error: stdout was closed before the output was written\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("build", "circ:n=x;S=1"), "malformed symbol: symbol text missing integer field n"),
        (("build", "circ:n=5;S=1,4;T=1,2"), "malformed symbol: circ symbol has no field 'T'"),
        (("build", "bi:n=5;S=1,4;Sp=2,3;T=0;S=2,3"), "malformed symbol: field 'S' given twice"),
        (("check", "srg", "paley-x"), "malformed paley tag 'paley-x'"),
    ],
    ids=["malformed-symbol", "field-of-another-kind", "repeated-field", "malformed-paley-tag"],
)
def test_malformed_graph_input_error_texts(capsys, argv, message):
    # Only a tag that names no graph gets the list of known tags.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


class _ShortWrites:
    """A stdout whose byte layer takes at most 7 bytes a write, as a raw
    pipe may; the text layer must not be used."""

    encoding = "ascii"
    errors = "strict"

    def __init__(self):
        self.data = bytearray()
        self.buffer = self

    def write(self, data):
        if isinstance(data, str):
            raise AssertionError("text written past the byte layer")
        self.data += data[:7]
        return min(len(data), 7)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv", [("build", "c5", "--format", "json"), ("search", "bicirc-odd", "--n", "5")], ids=" ".join
)
def test_short_writes_are_retried(capsys, monkeypatch, argv):
    want = run_cli(capsys, *argv)
    stdout = _ShortWrites()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(list(argv))
    assert (code, stdout.data.decode(), capsys.readouterr().err) == want


def test_unbuffered_stdout_closed_early_is_input_error():
    # With PYTHONUNBUFFERED the text layer writes straight to the pipe, and a
    # reader that takes one byte and goes cuts the first write short.  The
    # report is far larger than a pipe buffer, so the rest cannot be written.
    src = os.path.dirname(os.path.dirname(isoreg.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "isoreg.cli", "certify", "bicirc-odd", "--range", "2..200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": "1"},
    )
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (
        2, b"error: stdout was closed before the output was written\n")


def test_removed_no_prune_flag_is_usage_error():
    # --no-prune selected a second search path; both searches now have one.
    src = os.path.dirname(os.path.dirname(isoreg.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "isoreg.cli", "search", "bicirc", "--n", "5", "--no-prune"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "unrecognized arguments: --no-prune" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command, what, limit",
    [("build", "graph file", MAX_GRAPH6_FILE), ("replay", "certificate", MAX_CERTIFICATE_BYTES)],
    ids=["build", "replay"],
)
def test_file_over_its_read_bound_is_input_error(capsys, tmp_path, command, what, limit):
    # A sparse file one byte over the bound is refused by its length alone;
    # one at the bound is read and refused for what it holds.
    path = tmp_path / "zeros"
    arg = "@" + str(path) if command == "build" else str(path)
    for size in (limit + 1, limit):
        with open(path, "wb") as fh:
            fh.truncate(size)
        code, out, err = run_cli(capsys, command, arg)
        assert (code, out) == (2, "") and err.count("\n") == 1, size
        assert (err == f"error: {what} is longer than {limit} bytes\n") == (size > limit), err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize("argv", [("build", "@/dev/zero"), ("replay", "/dev/zero")], ids=" ".join)
def test_endless_file_is_input_error(argv):
    # An endless file is read up to its bound, not until memory runs out.
    # The child runs under an 800 MB address-space limit and a timeout, so a
    # regression fails instead of exhausting memory.
    src = os.path.dirname(os.path.dirname(isoreg.__file__))
    code = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (800 << 20, 800 << 20)); "
        "from isoreg.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and "is longer than" in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_largest_graph_file_builds(capsys, tmp_path, line_end):
    # A MAX_VERTICES cycle with the header and a line end is within the bound.
    from isoreg import circulant, encode_graph6
    from isoreg.graphs import MAX_VERTICES

    text = encode_graph6(circulant(MAX_VERTICES, {1, -1}))
    path = tmp_path / "cycle.g6"
    path.write_bytes(b">>graph6<<" + text.encode("ascii") + line_end)
    code, out, err = run_cli(capsys, "build", "@" + str(path))
    assert (code, out, err) == (0, text + "\n", "")


def _readme_commands():
    """Every ``isoreg`` command of README's command block and every inline
    ``isoreg ...`` code span, as argument lists; a pipe ends a command."""
    import re
    import shlex
    from pathlib import Path

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("isoreg ")]
    lines += [" ".join(span.split()) for span in re.findall(r"`(isoreg [^`]*)`", text)]
    return [shlex.split(line.split(" | ")[0], comments=True)[1:] for line in lines]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_parse(argv):
    # The documented commands are parsed, not run, so a stale flag fails here.
    from isoreg.cli import build_parser

    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: isoreg {' '.join(argv)}")
