"""isoreg benchmark: exhaustive runs through isoreg.cli.main, timed end to end
and, in a separate traced run, layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload dedup13 --seed 1 --seconds 40 --trace 0

Each sample is one child interpreter running the workload's CLI commands
with --jobs 1 (a closed loop with one client).  Every sample's exit codes,
stdout digests and pinned search statistics are checked against
perfbench/expected.json.  The workloads are fixed exhaustive spaces, so the
seed only sets the order of the certify commands within a sample and
whether the traced or the untraced sample of a pair runs first.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
CHILD_TIMEOUT_S = 170
# Set-up-only children per elapsed second of a run; each costs about 0.1 s.
SETUP_PROBES_PER_S = 1.0

_SEARCH_STATS = ("candidates", "srg", "survivors", "classes", "complement_classes")

# certify family -> range, as in the acceptance suite; each certificate is
# replayed right after it is written.
_CERT_RANGES = {
    "bicirc-odd": "2..200",
    "family-b": "3..199",
    "family-c": "3..199",
    "tri1": "-50..50",
    "tri2": "-50..50",
}

# name -> (search [label, argv] pairs, or None for certify; work items per
# sample; spans the traced sample must see).  Why each workload: see
# perfbench/README.md.
WORKLOADS = {
    "dedup13": (
        [
            ["search bicirc 13", ["search", "bicirc", "--n", "13", "--params", "26,10,3,4",
                                  "--sp-complement", "--s-size", "6", "--t-size", "4", "--jobs", "1"]],
            ["search bicirc-odd 5", ["search", "bicirc-odd", "--n", "5", "--jobs", "1"]],
        ],
        14_300 + 512,
        ("enumerate", "build", "srg", "triple", "local3", "dedup.fingerprint",
         "dedup.iso", "dedup.complement", "output.graph6", "search"),
    ),
    "full12": (
        [["full12", ["search", "bicirc", "--n", "12", "--jobs", "1"]]],
        16_777_216,
        ("enumerate", "build", "srg", "search"),
    ),
    "certify": (
        None,
        599,
        ("cert.generate", "cert.to_json", "cli.emit", "cert.solver", "replay",
         "replay.validate"),
    ),
}


def commands(workload: str, rng: random.Random) -> list:
    """[label, argv] pairs for one sample."""
    search = WORKLOADS[workload][0]
    if search is not None:
        return search
    families = sorted(_CERT_RANGES)
    rng.shuffle(families)
    out = []
    for fam in families:
        path = str(WORK / f"cert-{fam}.json")
        out.append([f"certify {fam}", ["certify", fam, f"--range={_CERT_RANGES[fam]}", "-o", path]])
        out.append([f"replay {fam}", ["replay", path]])
    return out


def pinned(record: dict) -> dict | None:
    """The readable part of a command's output that the gate compares."""
    last = record.get("last")
    if not isinstance(last, dict):
        return None
    if "summary" in last:
        return {k: last["summary"]["stats"][k] for k in _SEARCH_STATS}
    return last


def check(sample: dict, expected: dict) -> list[str]:
    problems = []
    for label, want in expected.items():
        got = sample["commands"].get(label)
        if got is None:
            problems.append(f"{label}: not run")
            continue
        if got["rc"] != want["rc"]:
            problems.append(f"{label}: exit code {got['rc']}, expected {want['rc']}")
        for key in ("stdout_sha256", "out_sha256"):
            if got.get(key) != want.get(key):
                problems.append(f"{label}: {key} differs from the pinned digest")
        if pinned(got) != want["pinned"]:
            problems.append(f"{label}: pinned result {pinned(got)} != {want['pinned']}")
    return problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("ISOREG_JOBS", None)
    return env


def run_child(spec: dict, env: dict) -> dict:
    """One child interpreter; raises RuntimeError with its stderr on failure."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrate() -> float:
    """A fixed pure-Python integer loop; tracks the host's speed."""
    start = time.perf_counter()
    x = 0
    for i in range(300_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def spread(values: list[float]) -> str:
    """Median, quartiles and sample count, for the report lines."""
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] (n={len(values)})"


def layer_medians(layers: list[dict]) -> dict | None:
    """Median of each per-layer time over the traced samples; counts must
    agree exactly, since the workloads are deterministic."""
    values = {}
    for name in layers[0]:
        seen = [m[name] for m in layers]
        if isinstance(seen[0], int):
            if len(set(seen)) != 1:
                print(f"error: count {name} differs between traced samples: {seen}", file=sys.stderr)
                return None
            values[name] = seen[0]
        else:
            values[name] = statistics.median(seen)
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "isoreg" / "cli.py").is_file():
        print(f"error: no isoreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {key: {m["name"]: m["unit"] for m in benchmark[key]} for key in ("end_to_end", "per_layer")}
    _, items, expect = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    WORK.mkdir(parents=True, exist_ok=True)
    env = child_env()

    host = {
        "load_avg": list(os.getloadavg()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }
    print("host " + json.dumps(host, sort_keys=True))

    # Everything below, the warm-up child included, counts against --seconds.
    # The first child fills the bytecode cache, so set-up is measured warm.
    start = time.perf_counter()
    run_child({"commands": []}, env)
    setup: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    pairs: list[float] = []  # traced run_s / untraced run_s, same iteration
    calib: list[float] = []
    attempted = failed = 0
    while True:
        began = time.perf_counter()
        order = [False, True] if args.trace else [False]
        rng.shuffle(order)
        got = {}
        for with_trace in order:
            attempted += 1
            calib.append(calibrate())
            spec = {"commands": commands(args.workload, rng), "trace": with_trace, "expect": expect}
            try:
                sample = run_child(spec, env)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                failed += 1
                print(f"sample failed: {exc}", file=sys.stderr)
                continue
            problems = check(sample, expected)
            if problems:
                failed += 1
                print("sample incorrect: " + "; ".join(problems), file=sys.stderr)
                continue
            (traced if with_trace else plain).append(sample)
            got[with_trace] = sample["run_s"]
        if len(got) == 2:
            pairs.append(got[True] / got[False])
        # Set-up probes keep pace with the elapsed time.
        while len(setup) < SETUP_PROBES_PER_S * (time.perf_counter() - start):
            setup.append(run_child({"commands": []}, env)["setup_s"])
        now = time.perf_counter()
        if now - start + (now - began) > args.seconds:
            break

    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} samples)")
    if not plain or (args.trace and not pairs):
        print("error: no correct sample to report", file=sys.stderr)
        return 1
    run_s = [s["run_s"] for s in plain]
    setup += [s["setup_s"] for s in plain]
    rss = [s["peak_rss_mb"] for s in plain]
    for name, seen in (("run_s", run_s), ("setup_s", setup), ("peak_rss_mb", rss), ("host.calib_s", calib)):
        print(f"samples {name}: median {spread(seen)}")
    if args.trace:
        values = layer_medians([s["layers"] for s in traced])
        if values is None:
            return 1
        if len(pairs) < 3:
            print(f"note: trace.overhead_ratio rests on {len(pairs)} pair(s) of samples only")
        print(f"samples trace.overhead_ratio: median {spread(pairs)}")
        values["trace.overhead_ratio"] = statistics.median(pairs)
        values["host.calib_s"] = statistics.median(calib)
        declared = units["per_layer"]
    else:
        median_run = statistics.median(run_s)
        values = {
            "run_s": median_run,
            "items_per_s": items / median_run,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
        }
        declared = units["end_to_end"]
    if set(values) != set(declared):
        print(f"error: metrics {sorted(set(values) ^ set(declared))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: {"value": v, "unit": declared[name]} for name, v in values.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
