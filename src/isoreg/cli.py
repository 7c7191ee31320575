"""Command-line front end: build, check, params, certify, search, families,
replay.

Exit codes: 0 = claim holds / result produced, 1 = claim fails (report
carries a witness), 2 = usage or input error, an output that cannot be
written, or a closed stdout.  Output is deterministic JSON (sorted keys, no
timestamps) and byte-identical across --jobs settings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .formats import (
    ASCII_SPACE,
    MAX_GRAPH6_FILE,
    Graph6Error,
    decode_graph6,
    encode_graph6,
    indented_json,
    to_dot,
)
from .graphs import Graph
from .isoregularity import (
    is_k_isoregular,
    is_locally_3isoregular_at,
    t_vertex_condition,
)
from .named import named_graph
from .paramtheory import (
    MAX_CERTIFICATE_BYTES,
    MAX_INTEGER_LITERAL,
    Certificate,
    bicirc_odd_family,
    certify_range,
    check_family_index,
    claim_holds,
    even_m_candidates,
    feasible_local_params,
    leung_ma_families,
    replay_certificate,
    tricirc_families,
)
from .search import (
    SearchSpec,
    confirm_nonexistence_bicirc_odd,
    search_bicirculant,
    search_tricirculant_srg,
)
from .srg import SrgParams, eigenvalues, hoffman_bound, srg_params
from .symbols import parse_symbol, symbol_graph


class InputError(Exception):
    pass


def _read_ascii(path: str, limit: int, what: str) -> str:
    """The ASCII text of a file of at most limit bytes; a longer one is an input error."""
    with open(path, "rb") as fh:
        data = fh.read(limit + 1)
    if len(data) > limit:
        raise InputError(f"{what} is longer than {limit} bytes")
    return data.decode("ascii")


def _resolve_graph(text: str) -> tuple[str, Graph]:
    """Named tag, circ:/bi:/tri: symbol text, g6:STRING, or @FILE of graph6."""
    if text.startswith("@"):
        try:
            payload = _read_ascii(text[1:], MAX_GRAPH6_FILE, "graph file").strip(ASCII_SPACE)
        except OSError as exc:
            raise InputError(f"cannot read graph file: {exc}") from exc
        return _resolve_graph("g6:" + payload)
    if text.startswith("g6:"):
        try:
            return (text, decode_graph6(text[3:]))
        except Graph6Error as exc:
            raise InputError(f"malformed graph6: {exc}") from exc
    if text.startswith(("bi:", "tri:", "circ:")):
        try:
            symbol = parse_symbol(text)
        except ValueError as exc:
            raise InputError(f"malformed symbol: {exc}") from exc
        return (text, symbol_graph(symbol))
    return (text, named_graph(text))


def _parse_params(text: str, modulus: int) -> SrgParams:
    """The --params target of a search on the given modulus.  A target no
    graph has (a negative k, lambda or mu, or k > n - 1) is an input error,
    since the search would run empty; a modulus below 2 is left for the
    search to report."""
    try:
        n, k, lam, mu = (int(tok) for tok in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise InputError(f"parameters must be 'n,k,lambda,mu', got {text!r}") from exc
    if modulus >= 2 and (min(k, lam, mu) < 0 or k > n - 1):
        raise InputError(f"no graph has parameters {(n, k, lam, mu)}:"
                         " need 0 <= k <= n - 1 and lambda, mu >= 0")
    return SrgParams(n, k, lam, mu)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise InputError(f"range must be 'lo..hi', got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"malformed range {text!r}") from exc


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write output: {exc}") from exc
    elif getattr(sys.stdout, "buffer", None) is None:
        sys.stdout.write(text)
    else:
        # Write the bytes ourselves: a TextIOWrapper over an unbuffered raw
        # file (PYTHONUNBUFFERED) ignores a short write, and the rest of the
        # text would be lost without an error.
        sys.stdout.flush()
        data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[sys.stdout.buffer.write(data) or 0:]


def _emit(payload: dict, out: str | None) -> None:
    _write(indented_json(payload) + "\n", out)


def _cmd_build(args) -> int:
    name, g = _resolve_graph(args.graph)
    if args.format == "json":
        p = srg_params(g)
        _emit(
            {
                "graph": name,
                "n": g.n,
                "edges": g.edge_count(),
                "graph6": encode_graph6(g),
                "srg": None if p is None else p.to_json(),
            },
            args.out,
        )
    else:
        _write(encode_graph6(g) + "\n" if args.format == "graph6" else to_dot(g), args.out)
    return 0


def _cmd_check(args) -> int:
    # Each kind reads at most one of these flags; it would ignore the others.
    reads = {"srg": None, "isoreg": "--k", "local3": "--vertex", "tvertex": "--t"}
    flags = {"--k": args.k, "--t": args.t, "--vertex": args.vertex}
    given = [flag for flag, value in flags.items()
             if value is not None and flag != reads[args.what]]
    if given:
        raise InputError(f"check {args.what} does not take {', '.join(given)}")
    name, g = _resolve_graph(args.graph)
    base = {"graph": name, "graph6": encode_graph6(g), "check": args.what}
    if args.what == "srg":
        p = srg_params(g)
        holds = p is not None
        base["srg"] = None if p is None else p.to_json()
        base["nontrivial"] = nontrivial = holds and p.is_nontrivial()
        if nontrivial:
            base["eigenvalues"] = list(eigenvalues(p))
            base["hoffman_bound"] = hoffman_bound(p)
    elif args.what == "isoreg":
        base["k"] = k = 3 if args.k is None else args.k
        verdict = is_k_isoregular(g, k)
        holds = base["isoregular"] = verdict.holds
        base["profile"] = None if verdict.profile is None else verdict.profile.to_json()
        base["witness"] = None if verdict.witness is None else verdict.witness.to_json()
    elif args.what == "local3":
        if args.vertex is None:
            vertices = range(g.n)
        elif 0 <= args.vertex < g.n:
            vertices = [args.vertex]
        else:
            raise InputError(f"--vertex {args.vertex} outside 0..{g.n - 1}")
        reports = [is_locally_3isoregular_at(g, x) for x in vertices]
        holds = base["locally_3isoregular"] = any(r.holds for r in reports)
        base["vertices"] = [r.to_json() for r in reports]
    else:
        base["t"] = t = 4 if args.t is None else args.t
        verdict = t_vertex_condition(g, t)
        holds = base["holds"] = verdict.holds
        base["witness"] = None if verdict.witness is None else verdict.witness.to_json()
    _emit(base, args.out)
    return 0 if holds else 1


def _cmd_params(args) -> int:
    p = SrgParams(args.n, args.k, args.lam, args.mu)
    if not p.is_nontrivial():
        raise InputError(f"{p.as_tuple()} is not a nontrivial parameter set")
    solutions = feasible_local_params(p)
    _emit(
        {
            "params": p.to_json(),
            "solutions": [s.to_json() for s in solutions],
            "count": len(solutions),
        },
        args.out,
    )
    return 0


# certify's family argument -> (claim, whether it takes only the odd indices).
_FAMILIES = {
    "bicirc-odd": ("bicirc-odd", False),
    "family-b": ("leung-ma-b", True),
    "family-c": ("leung-ma-c", True),
    "tri1": ("tri-family-1", False),
    "tri2": ("tri-family-2", False),
}


def _cmd_certify(args) -> int:
    claim, odd_only = _FAMILIES[args.family]
    lo, hi = _parse_range(args.range)
    check_family_index(lo)
    check_family_index(hi)
    indices = [m for m in range(lo, hi + 1) if m % 2 or not odd_only]
    # A certificate over no index would exit 0 as if the claim held.
    if not indices:
        raise InputError(f"range {args.range!r} holds no {args.family} index")
    cert = certify_range(claim, indices)
    _emit(cert.to_json(), args.out)
    return 0 if claim_holds(cert) else 1


def _cmd_replay(args) -> int:
    try:
        # An integer literal over MAX_INTEGER_LITERAL characters is read as a
        # float, in linear time; no slot type accepts one, so replay refuses
        # it at its slot.
        payload = json.loads(
            _read_ascii(args.certificate, MAX_CERTIFICATE_BYTES, "certificate"),
            parse_int=lambda s: int(s) if len(s) <= MAX_INTEGER_LITERAL else float(s),
        )
    # A deeply nested array or object exhausts the decoder's recursion.
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot load certificate: {exc}") from exc
    try:
        cert = Certificate.from_json(payload)
        # A certificate over no instance would replay as if the claim held.
        if not cert.instances:
            raise InputError("certificate holds no instance")
        outcome = replay_certificate(cert)
        verdict_ok = claim_holds(cert)
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed certificate: {exc!r}") from exc
    _emit(
        {
            "replay_ok": outcome.ok,
            "claim_holds": verdict_ok,
            "mismatches": list(outcome.mismatches),
        },
        args.out,
    )
    return 0 if outcome.ok and verdict_ok else 1


def _cmd_search(args) -> int:
    if args.jobs < 1:
        raise InputError(f"--jobs must be an integer >= 1, got {args.jobs}")
    # Flags that shape the bicirculant space only; another mode would ignore
    # them.
    flags = {"--iso3": args.iso3, "--s-size": args.s_size, "--sp-size": args.sp_size,
             "--t-size": args.t_size, "--sp-complement": args.sp_complement}
    if args.mode == "bicirc-odd":
        flags["--params"] = args.params
    given = [flag for flag, value in flags.items() if value is not None and value is not False]
    if args.mode != "bicirc" and given:
        raise InputError(f"search {args.mode} does not take {', '.join(given)}")
    claim_ok = True
    extra = {}
    if args.mode == "bicirc":
        spec = SearchSpec(
            n=args.n,
            target=None if args.params is None else _parse_params(args.params, args.n),
            s_size=args.s_size,
            sp_size=args.sp_size,
            t_size=args.t_size,
            sp_is_complement=args.sp_complement,
            require_iso3=args.iso3,
        )
        result = search_bicirculant(spec, jobs=args.jobs)
    elif args.mode == "tricirc":
        if args.params is None:
            raise InputError("tricirculant search needs --params")
        result = search_tricirculant_srg(args.n, _parse_params(args.params, args.n), jobs=args.jobs)
    else:
        run = confirm_nonexistence_bicirc_odd(args.n, jobs=args.jobs)
        result = run.result
        claim_ok = result.stats.iso3 == 0 and run.locally_iso3_classes == 0 and run.structure_ok
        extra = {
            "family_index": run.family_index,
            "iso3_survivors": result.stats.iso3,
            "locally_iso3_classes": run.locally_iso3_classes,
            "structure_ok": run.structure_ok,
            "structure_failures": list(run.structure_failures),
        }
    for survivor in result.survivors:
        _write(json.dumps(survivor.to_json(), sort_keys=True) + "\n", None)
    summary = {"mode": args.mode, "n": args.n, **extra, "stats": result.stats.to_json()}
    _write(json.dumps({"summary": summary}, sort_keys=True) + "\n", None)
    return 0 if claim_ok else 1


def _cmd_families(args) -> int:
    check_family_index(args.max)
    rows = []
    if args.family == "thm22":
        for m in range(1, args.max + 1):
            p, s_size, t_size = bicirc_odd_family(m)
            rows.append({"m": m, "params": p.to_json(), "s_size": s_size, "t_size": t_size})
    elif args.family == "lm93":
        for m in range(1, args.max + 1):
            entry = {"m": m, "families": [e.to_json() for e in leung_ma_families(m)]}
            if m % 2 == 0:
                entry["even_candidates"] = {
                    fam: {**even_m_candidates(m, fam).to_json(), "trace": {"family": fam, "m": m}}
                    for fam in ("b", "c")
                }
            rows.append(entry)
    else:
        for s in range(-args.max, args.max + 1):
            f1, f2 = tricirc_families(s)
            rows.append({"s": s, "families": [f1.to_json(), f2.to_json()]})
    # A table of no row would exit 0 as if a table had been asked for.
    if not rows:
        raise InputError(f"--max {args.max} gives no {args.family} row")
    _emit({"family": args.family, "rows": rows}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoreg",
        description="Strongly regular multicirculants: construction, "
        "3-isoregularity checks, certificates, exhaustive searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a graph and write it out")
    p_build.add_argument("graph", help="named tag, symbol text, g6:STRING or @file")
    p_build.add_argument("--format", choices=("graph6", "dot", "json"), default="graph6")
    p_build.add_argument("-o", "--out")
    p_build.set_defaults(fn=_cmd_build)

    p_check = sub.add_parser("check", help="run a property check with witness output")
    p_check.add_argument("what", choices=("srg", "isoreg", "local3", "tvertex"))
    p_check.add_argument("graph")
    p_check.add_argument("--k", type=int, help="isoreg only (default 3)")
    p_check.add_argument("--t", type=int, help="tvertex only (default 4)")
    p_check.add_argument("--vertex", type=int, help="local3 only (default: every vertex)")
    p_check.add_argument("-o", "--out")
    p_check.set_defaults(fn=_cmd_check)

    p_params = sub.add_parser("params", help="solve the local-parameter system")
    p_params.add_argument("verb", choices=("solve",))
    p_params.add_argument("n", type=int)
    p_params.add_argument("k", type=int)
    p_params.add_argument("lam", type=int)
    p_params.add_argument("mu", type=int)
    p_params.add_argument("-o", "--out")
    p_params.set_defaults(fn=_cmd_params)

    p_cert = sub.add_parser("certify", help="emit a replayable certificate over a range")
    p_cert.add_argument("family", choices=sorted(_FAMILIES))
    p_cert.add_argument("--range", required=True, help="lo..hi (family-b/c keep odd indices)")
    p_cert.add_argument("-o", "--out")
    p_cert.set_defaults(fn=_cmd_certify)

    p_replay = sub.add_parser("replay", help="re-validate a serialized certificate")
    p_replay.add_argument("certificate")
    p_replay.add_argument("-o", "--out")
    p_replay.set_defaults(fn=_cmd_replay)

    p_search = sub.add_parser("search", help="exhaustive symbol search (JSON lines)")
    p_search.add_argument("mode", choices=("bicirc", "tricirc", "bicirc-odd"))
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--params", help="target n,k,lambda,mu")
    p_search.add_argument("--iso3", action="store_true")
    p_search.add_argument("--s-size", type=int)
    p_search.add_argument("--sp-size", type=int)
    p_search.add_argument("--t-size", type=int)
    p_search.add_argument("--sp-complement", action="store_true")
    p_search.add_argument("--jobs", type=int, default=1, help="worker count (default 1)")
    p_search.set_defaults(fn=_cmd_search)

    p_fam = sub.add_parser("families", help="parameter family tables")
    p_fam.add_argument("family", choices=("thm22", "lm93", "tri"))
    p_fam.add_argument("--max", type=int, default=10)
    p_fam.add_argument("-o", "--out")
    p_fam.set_defaults(fn=_cmd_families)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        # Flush here, so a reader that closed early is caught below and not
        # at interpreter exit.
        sys.stdout.flush()
        return code
    except (InputError, ValueError) as exc:  # SearchCapError, Graph6Error included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point fd 1 at devnull so the interpreter's last flush of what is
        # still buffered stays quiet (the recipe in the `signal` docs).
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            pass
        else:
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
