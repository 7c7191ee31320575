"""Command-line front end: build, check, params, certify, search, families,
replay.

Exit codes: 0 = claim holds / result produced, 1 = claim fails (report
carries a witness), 2 = usage or input error.  Output is deterministic JSON
(sorted keys, no timestamps) and byte-identical across --jobs settings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .formats import Graph6Error, decode_graph6, encode_graph6, to_dot
from .graphs import Graph
from .isoregularity import (
    is_k_isoregular,
    is_locally_3isoregular_at,
    iso_profile,
    t_vertex_condition,
)
from .named import named_graph, named_tags
from .paramtheory import (
    Certificate,
    bicirc_odd_family,
    certify_range,
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
from .srg import SrgParams, eigenvalues, hoffman_bound, is_nontrivial_srg, srg_params
from .symbols import parse_symbol, symbol_graph


class InputError(Exception):
    pass


def _resolve_graph(text: str) -> tuple[str, Graph]:
    """Named tag, circ:/bi:/tri: symbol text, g6:STRING, or @FILE of graph6."""
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="ascii") as fh:
                payload = fh.read().strip()
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
            return (text, symbol_graph(parse_symbol(text)))
        except ValueError as exc:
            raise InputError(f"malformed symbol: {exc}") from exc
    try:
        return (text, named_graph(text))
    except ValueError as exc:
        raise InputError(f"{exc}; known tags: {', '.join(named_tags())}") from exc


def _parse_params(text: str) -> SrgParams:
    try:
        n, k, lam, mu = (int(tok) for tok in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise InputError(f"parameters must be 'n,k,lambda,mu', got {text!r}") from exc
    return SrgParams(n, k, lam, mu)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise InputError(f"range must be 'lo..hi', got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"malformed range {text!r}") from exc


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_build(args) -> int:
    name, g = _resolve_graph(args.graph)
    if args.format == "graph6":
        text = encode_graph6(g) + "\n"
    elif args.format == "dot":
        text = to_dot(g)
    else:
        p = srg_params(g)
        text = (
            json.dumps(
                {
                    "graph": name,
                    "n": g.n,
                    "edges": g.edge_count(),
                    "graph6": encode_graph6(g),
                    "srg": None if p is None else p.to_json(),
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args) -> int:
    name, g = _resolve_graph(args.graph)
    base = {"graph": name, "graph6": encode_graph6(g), "check": args.what}
    if args.what == "srg":
        p = srg_params(g)
        base["srg"] = None if p is None else p.to_json()
        base["nontrivial"] = is_nontrivial_srg(g)
        if p is not None and p.is_nontrivial():
            k, r, s = eigenvalues(p)
            base["eigenvalues"] = [str(k), str(r), str(s)]
            base["hoffman_bound"] = str(hoffman_bound(p))
        _emit(base, args.out)
        return 0 if p is not None else 1
    if args.what == "isoreg":
        verdict = is_k_isoregular(g, args.k)
        base["k"] = args.k
        base["isoregular"] = verdict.holds
        profile = iso_profile(g, args.k) if verdict.holds else None
        base["profile"] = None if profile is None else profile.to_json()
        base["witness"] = None if verdict.witness is None else verdict.witness.to_json()
        _emit(base, args.out)
        return 0 if verdict.holds else 1
    if args.what == "local3":
        if args.vertex is None:
            vertices = range(g.n)
        elif 0 <= args.vertex < g.n:
            vertices = [args.vertex]
        else:
            raise InputError(f"--vertex {args.vertex} outside 0..{g.n - 1}")
        reports = [is_locally_3isoregular_at(g, x) for x in vertices]
        holds = any(r.holds for r in reports)
        base["locally_3isoregular"] = holds
        base["vertices"] = [r.to_json() for r in reports]
        _emit(base, args.out)
        return 0 if holds else 1
    if args.what == "tvertex":
        verdict = t_vertex_condition(g, args.t)
        base["t"] = args.t
        base["holds"] = verdict.holds
        base["witness"] = None if verdict.witness is None else verdict.witness.to_json()
        _emit(base, args.out)
        return 0 if verdict.holds else 1
    raise InputError(f"unknown check {args.what!r}")


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


_CLAIMS = {
    "bicirc-odd": ("bicirc-odd", lambda lo, hi: list(range(lo, hi + 1))),
    "family-b": ("leung-ma-b", lambda lo, hi: [m for m in range(lo, hi + 1) if m % 2]),
    "family-c": ("leung-ma-c", lambda lo, hi: [m for m in range(lo, hi + 1) if m % 2]),
    "tri1": ("tri-family-1", lambda lo, hi: list(range(lo, hi + 1))),
    "tri2": ("tri-family-2", lambda lo, hi: list(range(lo, hi + 1))),
}


def _cmd_certify(args) -> int:
    claim, index_fn = _CLAIMS[args.family]
    lo, hi = _parse_range(args.range)
    cert = certify_range(claim, index_fn(lo, hi))
    _emit(cert.to_json(), args.out)
    return 0 if claim_holds(cert) else 1


def _cmd_replay(args) -> int:
    try:
        with open(args.certificate, "r", encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot load certificate: {exc}") from exc
    outcome = replay_certificate(payload)
    verdict_ok = claim_holds(Certificate.from_json(payload))
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
    jobs = args.jobs
    if args.mode == "bicirc":
        spec = SearchSpec(
            n=args.n,
            target=None if args.params is None else _parse_params(args.params),
            s_size=args.s_size,
            sp_size=args.sp_size,
            t_size=args.t_size,
            sp_is_complement=args.sp_complement,
            require_iso3=args.iso3,
            use_pruning=not args.no_prune,
        )
        result = search_bicirculant(spec, jobs=jobs)
        claim_ok = True
    elif args.mode == "tricirc":
        if args.params is None:
            raise InputError("tricirculant search needs --params")
        result = search_tricirculant_srg(
            args.n, _parse_params(args.params), jobs=jobs, use_pruning=not args.no_prune
        )
        claim_ok = True
    elif args.mode == "bicirc-odd":
        run = confirm_nonexistence_bicirc_odd(args.n, jobs=jobs)
        result = run.result
        claim_ok = run.iso3_count == 0 and run.locally_iso3_classes == 0 and run.structure_ok
        for survivor in result.survivors:
            sys.stdout.write(json.dumps(survivor.to_json(), sort_keys=True) + "\n")
        summary = {
            "summary": {
                "mode": args.mode,
                "n": args.n,
                "family_index": run.family_index,
                "iso3_survivors": run.iso3_count,
                "locally_iso3_classes": run.locally_iso3_classes,
                "structure_ok": run.structure_ok,
                "structure_failures": list(run.structure_failures),
                "stats": result.stats.to_json(),
            }
        }
        sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
        return 0 if claim_ok else 1
    else:
        raise InputError(f"unknown search mode {args.mode!r}")
    for survivor in result.survivors:
        sys.stdout.write(json.dumps(survivor.to_json(), sort_keys=True) + "\n")
    summary = {"summary": {"mode": args.mode, "n": args.n, "stats": result.stats.to_json()}}
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0 if claim_ok else 1


def _cmd_families(args) -> int:
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
                    fam: even_m_candidates(m, fam).to_json() for fam in ("b", "c")
                }
            rows.append(entry)
    else:
        for s in range(-args.max, args.max + 1):
            f1, f2 = tricirc_families(s)
            rows.append({"s": s, "families": [f1.to_json(), f2.to_json()]})
    _emit({"family": args.family, "rows": rows}, args.out)
    return 0


def _default_jobs() -> int:
    """Worker count from ISOREG_JOBS, an integer >= 1; 1 when unset."""
    text = os.environ.get("ISOREG_JOBS", "1")
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise InputError(f"ISOREG_JOBS must be an integer >= 1, got {text!r}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoreg",
        description="Strongly regular multicirculants: construction, "
        "3-isoregularity checks, certificates, exhaustive searches.",
    )
    default_jobs = _default_jobs()
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a graph and write it out")
    p_build.add_argument("graph", help="named tag, symbol text, g6:STRING or @file")
    p_build.add_argument("--format", choices=("graph6", "dot", "json"), default="graph6")
    p_build.add_argument("-o", "--out")
    p_build.set_defaults(fn=_cmd_build)

    p_check = sub.add_parser("check", help="run a property check with witness output")
    p_check.add_argument("what", choices=("srg", "isoreg", "local3", "tvertex"))
    p_check.add_argument("graph")
    p_check.add_argument("--k", type=int, default=3)
    p_check.add_argument("--t", type=int, default=4)
    p_check.add_argument("--vertex", type=int)
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
    p_cert.add_argument("family", choices=sorted(_CLAIMS))
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
    p_search.add_argument("--no-prune", action="store_true")
    p_search.add_argument("--jobs", type=int, default=default_jobs)
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
        return args.fn(args)
    except (InputError, ValueError) as exc:  # SearchCapError, Graph6Error included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
