"""The benchmark's traced sample runs clean: every layer hook resolves, every
span is seen, and the tracer's counter self-checks pass on the workloads'
own commands."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_sample_passes_its_self_checks(tmp_path):
    cert, cert_c = str(tmp_path / "cert.json"), str(tmp_path / "cert-c.json")
    spec = {
        "commands": [
            ["dedup13", ["search", "bicirc", "--n", "13", "--params", "26,10,3,4",
                         "--sp-complement", "--s-size", "6", "--t-size", "4", "--jobs", "1"]],
            ["odd5", ["search", "bicirc-odd", "--n", "5", "--jobs", "1"]],
            ["certify", ["certify", "tri2", "--range=-5..5", "-o", cert]],
            ["replay", ["replay", cert]],
            ["certify-c", ["certify", "family-c", "--range", "3..21", "-o", cert_c]],
            ["replay-c", ["replay", cert_c]],
        ],
        "trace": True,
        "expect": ["enumerate", "build", "srg", "triple", "local3", "dedup.fingerprint",
                   "dedup.iso", "dedup.complement", "output.graph6", "search",
                   "cert.generate", "cert.to_json", "cli.emit", "cert.solver", "replay",
                   "replay.validate"],
    }
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("ISOREG_JOBS", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert {label: record["rc"] for label, record in payload["commands"].items()} == {
        "dedup13": 0, "odd5": 0, "certify": 0, "replay": 0, "certify-c": 0, "replay-c": 0}
    # One solver span per instance with a solver cross-check: a solver that
    # called the other would open a nested span and count its work twice.
    layers = payload["layers"]
    cross_checked = sum(inst["oracle"] is not None
                        for path in (cert, cert_c)
                        for inst in json.loads(Path(path).read_text())["instances"])
    assert cross_checked == 8 + 10
    assert layers["cert.solver.generate.calls"] == cross_checked
    assert layers["cert.solver.generate.s"] <= layers["cert.generate.s"]
