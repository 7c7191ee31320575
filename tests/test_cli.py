"""CLI behavior: exit-code contract, report shapes, determinism."""

import json

from isoreg.cli import main


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
    code, _, err = run_cli(capsys, "build", "nope")
    assert code == 2 and "unknown graph tag" in err


def test_malformed_graph6_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "srg", "g6:D???")
    assert code == 2 and "graph6" in err


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


def test_jobs_env_default(capsys, monkeypatch):
    from isoreg.cli import build_parser

    monkeypatch.setenv("ISOREG_JOBS", "3")
    args = build_parser().parse_args(["search", "bicirc", "--n", "5"])
    assert args.jobs == 3
    monkeypatch.delenv("ISOREG_JOBS")
    args = build_parser().parse_args(["search", "bicirc", "--n", "5"])
    assert args.jobs == 1


def test_bad_jobs_env_is_usage_error(capsys, monkeypatch):
    for value in ("abc", "0", "-2", ""):
        monkeypatch.setenv("ISOREG_JOBS", value)
        code, out, err = run_cli(capsys, "search", "bicirc", "--n", "5")
        assert code == 2 and out == ""
        assert err.startswith("error: ISOREG_JOBS must be an integer >= 1")


def test_check_local3_vertex_out_of_range(capsys):
    # Negative indices must not wrap around to the last vertices.
    for vertex in ("99", "10", "-1"):
        code, out, err = run_cli(capsys, "check", "local3", "petersen", "--vertex", vertex)
        assert code == 2 and out == ""
        assert err == f"error: --vertex {vertex} outside 0..9\n"


def test_search_cap_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "search", "bicirc", "--n", "15")
    assert code == 2 and "candidates" in err


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
