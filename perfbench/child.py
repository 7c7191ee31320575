"""One measured sample, run in its own interpreter.

Usage: python3 perfbench/child.py SPEC_JSON, with isoreg's src/ on
PYTHONPATH.  SPEC_JSON holds "commands" (a list of [label, argv] pairs, each
run through isoreg.cli.main), "trace" (install the layer hooks) and "expect"
(span names the traced sample must see at least once).  An empty command
list measures set-up only.  Prints one JSON object on stdout.
"""

import time

T0 = time.perf_counter()

import isoreg.cli as cli  # noqa: E402  (set-up time: import plus parser build)

cli.build_parser()
SETUP_S = time.perf_counter() - T0

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _out_path(argv: list) -> str | None:
    return argv[argv.index("-o") + 1] if "-o" in argv else None


def _run(argv: list, tracer) -> tuple[dict, int]:
    captured = io.StringIO()
    saved = sys.stdout
    sys.stdout = captured
    start = time.perf_counter()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.call("cli." + argv[0], cli.main, argv)
    except SystemExit as exc:
        rc = exc.code
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout = saved
    text = captured.getvalue()
    record = {"rc": rc, "s": elapsed, "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()}
    # A report is one JSON document; a search is JSON lines ending in its summary.
    record["last"] = None
    for candidate in (text, text.rstrip("\n").rpartition("\n")[2]):
        try:
            record["last"] = json.loads(candidate)
            break
        except json.JSONDecodeError:
            continue
    out_bytes = 0
    path = _out_path(argv)
    if path is not None:
        with open(path, "rb") as fh:
            data = fh.read()
        record["out_sha256"] = hashlib.sha256(data).hexdigest()
        out_bytes = len(data)
    return record, out_bytes


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = {}
    out_bytes = 0
    for label, argv in spec["commands"]:
        results[label], written = _run(argv, tracer)
        out_bytes += written
    payload = {
        "setup_s": SETUP_S,
        "run_s": sum(r["s"] for r in results.values()),
        "commands": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        missing = sorted(set(spec.get("expect", ())) - tracer.called())
        if missing:
            raise SystemExit(f"traced sample saw zero calls into: {', '.join(missing)}")
        payload["layers"] = tracer.layer_metrics(out_bytes)
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
