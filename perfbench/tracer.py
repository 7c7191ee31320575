"""Spans around the calls into isoreg's layers, recorded from outside the
program.

Each hook replaces a module attribute the program looks up at call time, so
the program's own code is untouched.  Spans are kept in memory as
[name, parent, start, end, note] and reduced to per-layer metrics once the
workload has finished.  A hook whose target has been renamed raises at
install time instead of reading as zero calls.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, span name, note taken from the return value).  The
# modules are the ones the program looks the names up in: search.py calls the
# builders, the SRG test, the triple test, fingerprint, isomorphism and graph6
# through its own globals, and cli.py calls the search and certificate entry
# points through names it imported.
HOOKS = (
    ("isoreg.search", "_bicirc_worker", "enumerate", None),
    ("isoreg.search", "bicirculant", "build", None),
    ("isoreg.search", "srg_params", "srg", "hit"),
    ("isoreg.search", "triples_isoregular", "triple", None),
    ("isoreg.isoregularity", "is_locally_3isoregular", "local3", None),
    ("isoreg.search", "invariant_fingerprint", "dedup.fingerprint", None),
    ("isoreg.search", "is_isomorphic", "dedup.iso", "hit"),
    ("isoreg.search", "_complement_class_count", "dedup.complement", None),
    ("isoreg.search", "encode_graph6", "output.graph6", None),
    ("isoreg.cli", "search_bicirculant", "search", "stats"),
    ("isoreg.cli", "confirm_nonexistence_bicirc_odd", "search", "odd_stats"),
    ("isoreg.cli", "certify_range", "cert.generate", "certificate"),
    ("isoreg.paramtheory:Certificate", "to_json", "cert.to_json", None),
    ("isoreg.cli", "_emit", "cli.emit", None),
    ("isoreg.paramtheory", "feasible_local_params", "cert.solver", None),
    ("isoreg.paramtheory", "feasible_edge_params", "cert.solver", None),
    ("isoreg.cli", "replay_certificate", "replay", None),
    ("isoreg.paramtheory", "validate_step", "replay.validate", None),
)


def _note(kind, result):
    if kind == "hit":
        return result is not None
    if kind == "stats":
        return result.stats
    if kind == "odd_stats":
        return result.result.stats
    if kind == "certificate":
        return (len(result.instances), sum(len(i.steps) for i in result.instances))
    return None


def _resolve(path: str):
    """'pkg.module' or 'pkg.module:Class'."""
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for path, attr, name, note in HOOKS:
            owner = _resolve(path)
            target = getattr(owner, attr, None)
            if target is None:
                raise TraceError(f"hook {path}.{attr} not found; the layer was renamed")
            setattr(owner, attr, self._wrap(target, name, note))

    def _wrap(self, fn, name, note):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[4] = _note(note, result)
            return result

        return traced

    def call(self, name, fn, *args):
        """Run fn as a root span (the cli.main entry)."""
        return self._wrap(fn, name, None)(*args)

    def layer_metrics(self, out_bytes: int) -> dict:
        """Reduce the spans to the per-layer metrics and run the counter
        self-checks; raises TraceError when a check fails."""
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def owner(i: int, names: tuple) -> str | None:
            while i >= 0:
                if spans[i][0] in names:
                    return spans[i][0]
                i = spans[i][1]
            return None

        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        hits: dict[str, int] = {}
        for i, (name, parent, start, end, note) in enumerate(spans):
            if name == "cert.solver":
                name += "." + ("generate" if owner(i, ("cert.generate", "replay")) == "cert.generate" else "replay")
            elif name == "dedup.iso" and owner(i, ("dedup.complement",)):
                name = "dedup.complement.iso"
            elif name == "cli.emit" and owner(i, ("cli.certify",)):
                name = "cert.serialize.emit"
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
            if note is True:
                hits[name] = hits.get(name, 0) + 1

        stats = [s[4] for s in spans if s[0] == "search"]
        certs = [s[4] for s in spans if s[0] == "cert.generate"]
        candidates = sum(s.candidates for s in stats)
        c = lambda key: calls.get(key, 0)
        t = lambda key: total.get(key, 0.0)
        ratio = lambda a, b: a / b if b else 0.0

        problems = []
        if stats:
            if c("build") != c("srg"):
                problems.append(f"build.calls {c('build')} != srg.calls {c('srg')}")
            if hits.get("srg", 0) != sum(s.srg for s in stats):
                problems.append(f"srg hits {hits.get('srg', 0)} != SearchStats.srg {sum(s.srg for s in stats)}")
            if c("dedup.fingerprint") != sum(s.survivors for s in stats):
                problems.append(
                    f"dedup.fingerprint.calls {c('dedup.fingerprint')} != survivors {sum(s.survivors for s in stats)}"
                )
            # Every survivor that founds no class matched one representative;
            # every complement pairing merged two classes.
            joined = sum(s.survivors - (s.classes or 0) for s in stats)
            if hits.get("dedup.iso", 0) != joined:
                problems.append(f"dedup.iso matches {hits.get('dedup.iso', 0)} != survivors - classes {joined}")
            paired = sum((s.classes or 0) - (s.complement_classes or 0) for s in stats)
            if hits.get("dedup.complement.iso", 0) != paired:
                problems.append(
                    f"dedup.complement.iso matches {hits.get('dedup.complement.iso', 0)}"
                    f" != classes - complement_classes {paired}"
                )
        if certs and c("cert.solver.replay") != c("cert.solver.generate"):
            problems.append(
                f"cert.solver.calls under replay {c('cert.solver.replay')} != under generate {c('cert.solver.generate')}"
            )
        if problems:
            raise TraceError("; ".join(problems))

        return {
            "enumerate.self_s": self_s.get("enumerate", 0.0),
            "enumerate.candidates": candidates,
            "prune.built_ratio": ratio(c("build"), candidates),
            "build.calls": c("build"),
            "build.s": t("build"),
            "srg.calls": c("srg"),
            "srg.s": t("srg"),
            "srg.hit_ratio": ratio(hits.get("srg", 0), c("srg")),
            "triple.calls": c("triple"),
            "triple.s": t("triple"),
            "local3.calls": c("local3"),
            "local3.s": t("local3"),
            "dedup.fingerprint.calls": c("dedup.fingerprint"),
            "dedup.fingerprint.s": t("dedup.fingerprint"),
            "dedup.iso.calls": c("dedup.iso"),
            "dedup.iso.s": t("dedup.iso"),
            "dedup.iso.match_ratio": ratio(hits.get("dedup.iso", 0), c("dedup.iso")),
            "dedup.complement.s": t("dedup.complement"),
            "dedup.complement.iso.calls": c("dedup.complement.iso"),
            "output.graph6.calls": c("output.graph6"),
            "output.graph6.s": t("output.graph6"),
            "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
            "cert.generate.s": t("cert.generate"),
            "cert.instances": sum(x[0] for x in certs),
            "cert.steps": sum(x[1] for x in certs),
            "cert.serialize.s": t("cert.to_json") + t("cert.serialize.emit"),
            "cert.bytes": out_bytes,
            "cert.solver.generate.calls": c("cert.solver.generate"),
            "cert.solver.generate.s": t("cert.solver.generate"),
            "cert.solver.replay.calls": c("cert.solver.replay"),
            "cert.solver.replay.s": t("cert.solver.replay"),
            "replay.s": t("replay"),
            "replay.validate.calls": c("replay.validate"),
            "replay.validate.s": t("replay.validate"),
            "replay.self_s": self_s.get("replay", 0.0),
        }

    def called(self) -> set:
        return {s[0] for s in self.spans}
