"""Record the pinned outputs the benchmark's correctness gate compares against.

Usage (from the repository root, on the commit whose outputs are the
reference): python3 perfbench/pin.py

Runs every workload once with --jobs 1 and writes exit codes, stdout and
certificate digests and the pinned statistics to perfbench/expected.json.
It then runs each search workload once more with --jobs 2, untimed, and
fails if any digest differs from the --jobs 1 run.
"""

from __future__ import annotations

import json
import random
import sys

from run import HERE, WORK, WORKLOADS, child_env, commands, pinned, run_child


def record(sample: dict) -> dict:
    out = {}
    for label, got in sorted(sample["commands"].items()):
        entry = {"rc": got["rc"], "stdout_sha256": got["stdout_sha256"], "pinned": pinned(got)}
        if "out_sha256" in got:
            entry["out_sha256"] = got["out_sha256"]
        out[label] = entry
    return out


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    env = child_env()
    expected = {}
    for name in WORKLOADS:
        expected[name] = record(run_child({"commands": commands(name, random.Random(0))}, env))
        search = WORKLOADS[name][0]
        if search is not None:
            jobs2 = [[label, argv[:-1] + ["2"]] for label, argv in search]
            again = record(run_child({"commands": jobs2}, env))
            if again != expected[name]:
                print(f"error: {name} output differs between --jobs 1 and --jobs 2", file=sys.stderr)
                return 1
        print(f"{name}: {json.dumps(expected[name], sort_keys=True)}")
    (HERE / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
