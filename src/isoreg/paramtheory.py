"""Integer parameter theory: admissible families, the local-parameter
feasibility solver, and replayable non-existence certificates.

Everything here is exact integer arithmetic.  Certificates carry their full
derivation as typed steps, each decided by its kind's rule in `_RULES`;
replaying a serialized certificate revalidates every step by that rule and
regenerates the instance.

`_CLAIMS` states each claim once: the certifier that `certify_range` and
`replay_certificate` run for one index, and what every instance must show
for `claim_holds`.  Each instance carries the solver's output as an oracle
(`_oracle`), every tuple marked with the graph-level step that settles it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional

from .isoregularity import edge_iso_params
from .named import named_graph
from .srg import SrgParams


# ---------------------------------------------------------------------------
# Parameter families

# Largest |index| that certify, replay and the family tables accept; it
# bounds the length of a range, and so the size of a certificate.
MAX_FAMILY_INDEX = 1000


def check_family_index(index: int) -> None:
    if abs(index) > MAX_FAMILY_INDEX:
        raise ValueError(f"family index {index} outside |index| <= {MAX_FAMILY_INDEX}")


def bicirc_odd_family(m: int) -> tuple[SrgParams, int, int]:
    """Parameters forced on a strongly regular bicirculant of twice-odd order,
    together with the symbol cardinalities |S| and |T|."""
    if m < 1:
        raise ValueError("family index m must be at least 1")
    params = SrgParams(2 * (2 * m * m + 2 * m + 1), m * (2 * m + 1), m * m - 1, m * m)
    return params, m * (m + 1), m * m


class LeungMaEntry(NamedTuple):
    """One partial-difference-triple family entry (n; c, d; lambda, mu)."""

    label: str
    n: int
    c: int
    d: int
    lam: int
    mu: int

    def graph_params(self) -> SrgParams:
        return SrgParams(2 * self.n, self.c + self.d, self.lam, self.mu)

    def to_json(self) -> dict:
        return {
            "family": self.label,
            "n": self.n,
            "c": self.c,
            "d": self.d,
            "lambda": self.lam,
            "mu": self.mu,
            "graph": self.graph_params().to_json(),
        }


def leung_ma_families(m: int) -> list[LeungMaEntry]:
    """The cyclic partial-difference-triple parameter families, up to
    complementation; only the families whose stated bound admits m."""
    if m < 1:
        raise ValueError("family index m must be at least 1")
    m2 = m * m
    out = []
    out.append(LeungMaEntry("a", 2 * m2 + 2 * m + 1, m2, m2 + m, m2 - 1, m2))
    if m >= 2:
        out.append(LeungMaEntry("b", 2 * m2, m2, m2 - m, m2 - m, m2 - m))
    if m >= 3:
        out.append(LeungMaEntry("c", 2 * m2, m2, m2 + m, m2 + m, m2 + m))
    if m >= 2:
        out.append(LeungMaEntry("d+", 2 * m2, m2 + m, m2, m2 + m, m2 + m))
        out.append(LeungMaEntry("d-", 2 * m2, m2 - m, m2, m2 - m, m2 - m))
    return out


class TricircEntry(NamedTuple):
    """One tricirculant parameter set with validity and hypothesis flags."""

    family: int
    s: int
    params: SrgParams
    valid: bool
    disc: int
    disc_root: Optional[int]
    order_coprime: Optional[bool]

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "s": self.s,
            "params": self.params.to_json(),
            "valid": self.valid,
            "discriminant": self.disc,
            "discriminant_root": self.disc_root,
            "order_coprime": self.order_coprime,
        }


def _tricirc_entry(family: int, s: int, p: SrgParams) -> TricircEntry:
    valid = p.k >= 1 and p.lam >= 0 and p.mu >= 0 and p.n >= 2
    disc = (p.lam - p.mu) ** 2 + 4 * (p.k - p.mu)
    root = math.isqrt(disc) if disc >= 0 else None
    if root is not None and root * root != disc:
        root = None
    coprime = None
    if root is not None and p.n % 3 == 0:
        coprime = math.gcd(p.n // 3, 6 * root) == 1
    return TricircEntry(family, s, p, valid, disc, root, coprime)


def tricirc_families(s: int) -> tuple[TricircEntry, TricircEntry]:
    """Both admissible tricirculant parameter sets at index s; invalid
    instances (negative entries) are flagged, not rejected."""
    p1 = SrgParams(
        3 * (12 * s * s + 9 * s + 2),
        (4 * s + 1) * (3 * s + 1),
        s * (4 * s + 3),
        s * (4 * s + 1),
    )
    p2 = SrgParams(3 * (3 * s * s - 3 * s + 1), s * (3 * s - 1), s * s + s - 1, s * s)
    return _tricirc_entry(1, s, p1), _tricirc_entry(2, s, p2)


# ---------------------------------------------------------------------------
# Local-parameter relations and the feasibility solver


def edge_relations_check(p: SrgParams, q: int, r: int, w: int) -> bool:
    """Both counting relations for a 3-isoregular edge, plus their consequence."""
    n, k, lam, mu = p.as_tuple()
    return (
        lam * (lam - q - 1) == r * (k - lam - 1)
        and lam * mu * (k - 2 * lam + q) == w * (k - mu) * (k - lam - 1)
        and w * (k - mu) == mu * (lam - r)
    )


def nonedge_relations_check(p: SrgParams, rp: int, wp: int, v: int) -> bool:
    """Both counting relations for a 3-isoregular non-edge."""
    n, k, lam, mu = p.as_tuple()
    if mu == 0:
        return False
    d22 = Fraction(k * (k - lam - 1), mu) - k + mu - 1
    return (
        mu * (lam - rp) == (k - mu) * wp
        and Fraction(mu * (k - 2 - 2 * lam + rp)) == v * d22
    )


class LocalParamSolution(NamedTuple):
    """Non-negative integer tuple (Q, R, W, V) satisfying all five relations
    with the edge/non-edge identification R = R', W = W'."""

    q: int
    r: int
    w: int
    v: int
    vacuous: frozenset[str] = frozenset()

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.q, self.r, self.w, self.v)

    def to_json(self) -> dict:
        return {
            "Q": self.q,
            "R": self.r,
            "W": self.w,
            "V": self.v,
            "vacuous": sorted(self.vacuous),
            "trace": {},
        }


def _require_nontrivial(p: SrgParams) -> None:
    if not p.is_nontrivial():
        raise ValueError(f"parameters {p.as_tuple()} are not a nontrivial SRG")


def _crt_range(congruences: list[tuple[int, int]], lo: int, hi: int) -> range:
    """The x in [lo, hi] with x = c (mod m) for every (c, m), m >= 1: by the
    Chinese remainder theorem one arithmetic progression, or none."""
    x, step = 0, 1
    for c, m in congruences:
        g = math.gcd(step, m)
        if (c - x) % g:
            return range(0)
        x += step * ((c - x) // g * pow(step // g, -1, m // g) % (m // g))
        step = step // g * m
    return range(lo + (x - lo) % step, hi + 1, step)


def _walk(p: SrgParams, local: bool) -> list[tuple[int, int, int, int]]:
    """(Q, R, W, V) for each R of the progression `_crt_range` gives that
    passes every check, in ascending order of R; V is checked only if local."""
    _require_nontrivial(p)
    n, k, lam, mu = p.as_tuple()
    a, d22, c = k - lam - 1, n - 2 * k + mu - 2, 2 * lam + 2 - k
    # Q and W integral; R >= 0 and W <= lambda; W >= 0 and Q >= 0.
    congruences = [(0, lam // math.gcd(lam, a) if lam else 1),
                   (lam, (k - mu) // math.gcd(mu, k - mu))]
    lo, hi = max(0, lam - lam * (k - mu) // mu), min(lam, lam * (lam - 1) // a)
    if local:
        # V integral; W <= mu and V >= 0; R <= mu - 1 and V <= mu.
        congruences.append((c, d22 // math.gcd(mu, d22) if d22 > 0 else 1))
        lo, hi = max(lo, lam - k + mu, c), min(hi, mu - 1, c + d22)
    out = []
    for r in _crt_range(congruences, lo, hi):
        num, wnum, vnum = lam * (lam - 1) - r * a, mu * (lam - r), mu * (r - c)
        if num < 0 or (num % lam if lam else num) or wnum < 0 or wnum % (k - mu):
            continue  # Q or W is no non-negative integer
        q, w, v = num // lam if lam else 0, wnum // (k - mu), vnum // d22 if d22 > 0 else 0
        if lam and q > lam - 1 or w > lam or lam * mu * (k - 2 * lam + q) != w * (k - mu) * a:
            continue  # a bound or relation (ii) fails
        if local and (d22 < 0 or r > mu - 1 or w > mu or vnum < 0
                      or (vnum % d22 if d22 else vnum) or v > mu):
            continue  # the non-edge identification or V fails
        out.append((q, r, w, v))
    return out


def feasible_edge_params(p: SrgParams) -> list[tuple[int, int, int]]:
    """Edge-side feasibility only: (Q, R, W) tuples satisfying the edge
    relations within their bounds, no non-edge identification, in ascending
    order of R.

    With a = k - lambda - 1, relation (i) reads lambda*Q = lambda(lambda-1)
    - a*R and the W relation reads (k-mu)*W = mu*(lambda - R).  Q is integral
    exactly when R = 0 (mod lambda/gcd(lambda, a)), W exactly when R = lambda
    (mod (k-mu)/gcd(mu, k-mu)); by the Chinese remainder theorem the R that
    satisfy both form one progression.  The bounds are linear in R, so they
    make its ends: Q >= 0 gives R <= lambda(lambda-1)/a, W >= 0 gives
    R <= lambda, W <= lambda gives R >= lambda - lambda(k-mu)/mu, and
    Q <= lambda-1 gives R >= 0.  When lambda = 0 the only R is 0.  Once Q and
    W are integral, relation (ii) reduces to an identity, so every R the walk
    visits is a solution and the work is proportional to the output, not to
    lambda; every check stays as a guard.
    """
    return [(q, r, w) for q, r, w, _ in _walk(p, local=False)]


def feasible_local_params(p: SrgParams) -> list[LocalParamSolution]:
    """The edge solutions with R <= mu-1 and W <= mu (the non-edge
    identification R' = R, W' = W), extended by an integer V in [0, mu] from
    D22*V = mu(R - c), where D22 = n-2k+mu-2 and c = 2lambda+2-k.  The walk of
    `feasible_edge_params` takes a third congruence, R = c (mod
    D22/gcd(mu, D22)), and the ends R >= lambda-k+mu (W <= mu), R >= c
    (V >= 0), R <= mu-1 and R <= c + D22 (V <= mu), so again every R visited
    is a solution.  Q is vacuous when lambda = 0; when the D22 cell is empty
    (the complement has lambda = 0) the only R is c, and V is vacuous and
    reported as 0."""
    n, k, lam, mu = p.as_tuple()
    vacuous = frozenset(["Q"] * (lam == 0) + ["V"] * (n - 2 * k + mu - 2 == 0))
    return [LocalParamSolution(q, r, w, v, vacuous) for q, r, w, v in _walk(p, local=True)]


def even_m_candidates(m: int, family: str) -> LocalParamSolution:
    """Candidate local parameters for the even-index families (no existence
    claim).  For family (c) at m = 2 the V relation is degenerate (empty D22
    cell); the returned V is the formal value of the family formula."""
    if m < 2 or m % 2:
        raise ValueError("even m >= 2 required")
    if family == "b":
        q = w = (m * m - m) // 2
        r = v = (m * m - 2 * m) // 2
    elif family == "c":
        q = w = (m * m + m) // 2
        r = v = (m * m + 2 * m) // 2
    else:
        raise ValueError("family must be 'b' or 'c'")
    return LocalParamSolution(q, r, w, v)


# ---------------------------------------------------------------------------
# Certificates


class Step(NamedTuple):
    """One replayable derivation step: its kind, a description of the
    argument, the data that the kind's rule reads, and the verdict.

    `_RULES` states each kind's fields and rule once.  Certifiers build every
    step with `_step`, which takes `holds` from that rule, and replay
    (`validate_step`) applies the same rule to the recorded data.
    """

    kind: str
    description: str
    data: dict
    holds: bool

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "description": self.description,
            "data": self.data,
            "holds": self.holds,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Step":
        return cls(obj["kind"], obj["description"], obj["data"], obj["holds"])


_RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt,
              "==": operator.eq, "!=": operator.ne}

# The named graphs that GRAPH_CHECK steps measure (none of unbounded size),
# and what each assertion states about edge_iso_params on every edge.
_CHECKED_GRAPHS = ("t6-complement", "t7")
_GRAPH_ASSERTIONS = {
    "no-3-isoregular-edge": lambda p: p is None,
    "every-edge-3-isoregular-q0-r0-w1": lambda p: p is not None and p.as_tuple() == (0, 0, 1),
}

# The type of each step field, as an input error names it; a field not
# listed is an integer.  A JSON boolean is not an integer.  `tuple`, the edge
# tuple a step settles, is read by the oracle and not by a rule.
_FIELD_TYPES = {
    "values": "a list of two integers",
    "multiples": "a list of integers",
    "tuple": "a list of integers",
    "divides": "a boolean",
    "relation": "a relation",
    "graph": "a checked graph",
    "assertion": "a graph assertion",
}
_TYPE_TESTS = {
    "an integer": lambda x: type(x) is int,
    "a list of integers": lambda x: type(x) is list and all(type(v) is int for v in x),
    "a list of two integers": (
        lambda x: type(x) is list and len(x) == 2 and type(x[0]) is int and type(x[1]) is int
    ),
    "a boolean": lambda x: type(x) is bool,
    "a relation": lambda x: type(x) is str and x in _RELATIONS,
    "a checked graph": lambda x: type(x) is str and x in _CHECKED_GRAPHS,
    "a graph assertion": lambda x: type(x) is str and x in _GRAPH_ASSERTIONS,
}


def _divisor(data: dict) -> int:
    if data["divisor"] == 0:
        raise ValueError("DIVISIBILITY step with divisor 0")
    return abs(data["divisor"])


def _lists_multiples(data: dict) -> bool:
    """Whether `multiples` is the list of the multiples of the divisor in
    [lo, hi].  They are counted before they are listed, so a wide range
    costs no more than the recorded list."""
    d, lo, hi, multiples = _divisor(data), data["lo"], data["hi"], data["multiples"]
    return len(multiples) == max(0, hi // d - (lo - 1) // d) and (
        multiples == list(range(-(-lo // d) * d, hi + 1, d))
    )


def _graph_check(data: dict) -> bool:
    g = named_graph(data["graph"])
    edge_holds = _GRAPH_ASSERTIONS[data["assertion"]]
    return all(edge_holds(edge_iso_params(g, u, v)) for u, v in g.edges())


# Each step kind's forms: the fields its data must hold and the rule that
# decides the step from them.  A step takes the first form whose first field
# it holds, or else the last.  A DIVISIBILITY step lists the multiples of the
# divisor in a range (the list its argument claims, [] for none), or says
# whether the divisor divides one value.
_RULES = {
    "SUBSTITUTION": [(("lhs", "rhs"), lambda d: d["lhs"] == d["rhs"])],
    "GCD": [(("values", "equals"), lambda d: math.gcd(*d["values"]) == d["equals"])],
    "DIVISIBILITY": [
        (("multiples", "divisor", "lo", "hi"), _lists_multiples),
        (("value", "divisor", "divides"),
         lambda d: (d["value"] % _divisor(d) == 0) == d["divides"]),
    ],
    "INEQUALITY": [
        (("lhs", "rhs", "relation"), lambda d: _RELATIONS[d["relation"]](d["lhs"], d["rhs"])),
    ],
    # A clique of the recorded size violates the Hoffman bound 1 + k/eig.
    "HOFFMAN_CLIQUE": [
        (("clique", "valency", "eig"), lambda d: d["eig"] * (d["clique"] - 1) > d["valency"]),
    ],
    # Measured on a named graph, edge by edge.
    "GRAPH_CHECK": [(("graph", "assertion"), _graph_check)],
}


def _verdict(kind: str, data: dict) -> bool:
    """Decide a step from its data by its kind's rule in `_RULES`.  An unknown
    kind, or data that lacks a field (KeyError) or holds one of another type
    (ValueError), is malformed input, found before any arithmetic."""
    forms = _RULES.get(kind) if type(kind) is str else None
    if forms is None:
        raise ValueError(f"unknown step kind {kind!r}")
    if type(data) is not dict:
        raise ValueError(f"{kind} step data is not an object")
    for fields, rule in forms:
        if fields[0] in data:
            break
    for name in (*fields, "tuple") if "tuple" in data else fields:
        value = data[name]
        # An integer in an integer field, the common case, passes at once.
        if type(value) is not int or name in _FIELD_TYPES:
            type_name = _FIELD_TYPES.get(name, "an integer")
            if not _TYPE_TESTS[type_name](value):
                raise ValueError(f"{kind} step field {name!r} is not {type_name}")
    return rule(data)


def _step(kind: str, description: str, **data) -> Step:
    """The step of this kind on data, holding exactly when its rule does."""
    return Step(kind, description, data, _verdict(kind, data))


def validate_step(step: Step) -> bool:
    """Recompute a step's verdict from its recorded data; True when it
    agrees with the recorded `holds`, which must be a boolean."""
    if type(step.holds) is not bool:
        raise ValueError(f"step holds {step.holds!r} is not a boolean")
    return _verdict(step.kind, step.data) == step.holds


CONTRADICTION = "CONTRADICTION"
SOLUTION = "SOLUTION"
DEGENERATE = "DEGENERATE"


def _require_integers(what: str, values) -> None:
    """An input error unless every value is an integer.  A JSON boolean is
    not one, although Python compares True equal to 1."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} holds a {type(v).__name__}, not an integer")


class Instance(NamedTuple):
    """Verdict and derivation trace for one family index."""

    index: int
    params: Optional[SrgParams]
    verdict: str
    steps: tuple[Step, ...]
    solution: Optional[dict] = None
    oracle: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "params": None if self.params is None else self.params.to_json(),
            "verdict": self.verdict,
            "steps": [s.to_json() for s in self.steps],
            "solution": self.solution,
            "oracle": self.oracle,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Instance":
        """The instance of a JSON object.  Its index, parameters, solution
        values and oracle tuples must be integers; the step rules type the
        step fields."""
        params, solution, oracle = obj["params"], obj["solution"], obj["oracle"]
        _require_integers("instance index", [obj["index"]])
        if params is not None:
            params = SrgParams.from_json(params)
            _require_integers("instance params", params)
        if solution is not None:
            if type(solution) is not dict:
                raise ValueError("instance solution is not an object")
            _require_integers("instance solution", solution.values())
        if oracle is not None:
            for entry in oracle["feasible"]:
                _require_integers("oracle tuple", entry["tuple"])
        return cls(obj["index"], params, obj["verdict"],
                   tuple(Step.from_json(s) for s in obj["steps"]), solution, oracle)


class Certificate(NamedTuple):
    claim: str
    indices: tuple[int, ...]
    instances: tuple[Instance, ...]

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "indices": list(self.indices),
            "instances": [inst.to_json() for inst in self.instances],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Certificate":
        _require_integers("certificate indices", obj["indices"])
        return cls(
            obj["claim"],
            tuple(obj["indices"]),
            tuple(Instance.from_json(i) for i in obj["instances"]),
        )


def _eq2_step(p: SrgParams) -> Step:
    return _step("SUBSTITUTION", "parameter identity k(k-lambda-1) = mu(n-1-k)",
                 lhs=p.k * (p.k - p.lam - 1), rhs=p.mu * (p.n - 1 - p.k))


def _relation_i_step(p: SrgParams, q: int, r: int, description: str) -> Step:
    """Edge relation (i), lambda(lambda-Q-1) = R(k-lambda-1), at (Q, R)."""
    n, k, lam, mu = p.as_tuple()
    return _step("SUBSTITUTION", description, lhs=lam * (lam - q - 1), rhs=r * (k - lam - 1))


def _relation_ii_step(p: SrgParams, q: int, w: int, description: str) -> Step:
    """Edge relation (ii), lambda mu(k-2lambda+Q) = W(k-mu)(k-lambda-1), at (Q, W)."""
    n, k, lam, mu = p.as_tuple()
    return _step("SUBSTITUTION", description,
                 lhs=lam * mu * (k - 2 * lam + q), rhs=w * (k - mu) * (k - lam - 1))


def _oracle(steps: list[Step], entries: list[dict], key: str) -> dict:
    """The solver's entries, each marked under key with the kind of the
    graph-level step of the certificate that settles its edge tuple
    (confirmation for a SOLUTION, elimination otherwise), or "" if none does."""
    settled = {
        tuple(step.data["tuple"][:3]): step.kind
        for step in steps
        if step.kind in ("HOFFMAN_CLIQUE", "GRAPH_CHECK") and "tuple" in step.data
    }
    for entry in entries:
        entry[key] = settled.get(tuple(entry["tuple"][:3]), "")
    return {"feasible": entries, "consistent": all(e[key] for e in entries)}


def certify_bicirc_odd(m: int) -> Instance:
    """Replay the twice-odd-order argument: no 3-isoregular edge/non-edge
    parameter system exists for index m >= 2."""
    if m < 2:
        raise ValueError("certify_bicirc_odd needs m >= 2")
    p, _, _ = bicirc_odd_family(m)
    steps = [
        _eq2_step(p),
        _step(
            "GCD",
            "relation (i) gives R = (m-1)(m^2-Q-2)/m; gcd(m-1, m) = 1 forces "
            "m | Q+2, so Q+2 = alpha*m with 1 <= alpha <= m (from Q+2 >= 2 and R >= 0)",
            values=[m - 1, m], equals=1,
        ),
        _step(
            "HOFFMAN_CLIQUE",
            "alpha = m gives Q = m^2-2, R = 0, so the common neighborhood of the "
            "edge plus its endpoints is a clique of size m^2+1, above 1 + k/(m+1)",
            clique=m * m + 1, valency=p.k, eig=m + 1, tuple=[m * m - 2, 0, m * m - m],
        ),
        _step(
            "GCD",
            "relation (ii) gives W = (alpha+1)(m-1)m/(m+1); gcd(m-1, m+1) "
            "controls the divisor left for alpha+1",
            values=[m - 1, m + 1], equals=math.gcd(m - 1, m + 1),
        ),
    ]
    if m % 2 == 0:
        steps.append(
            _step(
                "DIVISIBILITY",
                "m even: m+1 must divide alpha+1, impossible for alpha in [1, m-1]",
                divisor=m + 1, lo=2, hi=m, multiples=[],
            )
        )
    else:
        q = (m * m - m - 4) // 2
        r = (m * m - 1) // 2
        w = (m * (m - 1)) // 2
        steps += [
            _step(
                "DIVISIBILITY",
                "m odd: (m+1)/2 must divide alpha+1; the only multiple in [2, m] "
                "is (m+1)/2 itself, forcing alpha = (m-1)/2",
                divisor=(m + 1) // 2, lo=2, hi=m, multiples=[(m + 1) // 2],
            ),
            _relation_i_step(p, q, r, f"derived Q={q}, R={r}, W={w} satisfy relation (i)"),
            _relation_ii_step(p, q, w, "derived values satisfy relation (ii)"),
            _step(
                "DIVISIBILITY",
                "V = m(m^2+2m-1)/(2(m+2)) is not an integer: m+2 never divides "
                "m^2+2m-1 = m(m+2)-1",
                value=m * (m * m + 2 * m - 1), divisor=2 * (m + 2), divides=False,
            ),
        ]
    oracle = _solver_cross_check(p, steps)
    return Instance(m, p, CONTRADICTION, tuple(steps), oracle=oracle)


def _solver_cross_check(p: SrgParams, steps: list[Step]) -> dict:
    """The local-parameter solver's tuples, each with the step that eliminates it."""
    entries = [{"tuple": list(sol.as_tuple()), "vacuous": sorted(sol.vacuous)}
               for sol in feasible_local_params(p)]
    return _oracle(steps, entries, "eliminated_by")


def certify_family_b(m: int) -> Instance:
    """Even-order family (b), odd index: the parameter system is infeasible."""
    if m % 2 == 0 or m < 3:
        raise ValueError("family (b) certificate covers odd m >= 3")
    p = next(e for e in leung_ma_families(m) if e.label == "b").graph_params()
    steps = [
        _eq2_step(p),
        _step(
            "GCD",
            "Q = m^2-m-1 - (m+1)R/m integral with gcd(m+1, m) = 1 forces m | R; "
            "write R = alpha*m",
            values=[m + 1, m], equals=1,
        ),
        _step(
            "SUBSTITUTION",
            "Q >= 0 bounds R <= m(m^2-m-1)/(m+1), so alpha <= m-2",
            lhs=(m * m - m - 1) // (m + 1), rhs=m - 2,
        ),
        _step(
            "GCD",
            "m odd: gcd(m, m+2) = 1, so V = m(m-2+R)/(m+2) integral forces "
            "(m+2) | (alpha*m - 4), hence (m+2) | 2(alpha+2)",
            values=[m, m + 2], equals=1,
        ),
        _step("GCD", "m+2 odd, so (m+2) | (alpha+2)", values=[2, m + 2], equals=1),
        _step(
            "DIVISIBILITY",
            "no multiple of m+2 among alpha+2 in [2, m]: contradiction with "
            "alpha <= m-2",
            divisor=m + 2, lo=2, hi=m, multiples=[],
        ),
    ]
    oracle = _solver_cross_check(p, steps)
    return Instance(m, p, CONTRADICTION, tuple(steps), oracle=oracle)


def certify_family_c(m: int) -> Instance:
    """Even-order family (c), odd index: integer feasibility leaves exactly
    the branches alpha = 2 and alpha = m, each excluded by a clique bound
    (on the complement and on the graph respectively)."""
    if m % 2 == 0 or m < 3:
        raise ValueError("family (c) certificate covers odd m >= 3")
    p = next(e for e in leung_ma_families(m) if e.label == "c").graph_params()
    n, k, lam, mu = p.as_tuple()
    # Branch alpha = m: the tuple (2m-1, m^2, m+1, m(m+1)).  Branch alpha = 2:
    # the tuple (m^2-m+1, 2m, m^2-1, m); its complement edge parameters force
    # a clique in the complement graph.
    q1, r1, w1 = 2 * m - 1, m * m, m + 1
    q2, r2, w2, v2 = m * m - m + 1, 2 * m, m * m - 1, m
    comp_lam = n - 2 - 2 * k + mu
    steps = [
        _eq2_step(p),
        _step(
            "GCD",
            "Q = m^2+m-1 - (m-1)R/m integral with gcd(m-1, m) = 1 forces m | R; "
            "write R = alpha*m",
            values=[m - 1, m], equals=1,
        ),
        _step(
            "INEQUALITY",
            "V = m(R-m-2)/(m-2) >= 0 needs R >= m+2, so alpha >= 2",
            lhs=m, rhs=m + 2, relation="<",
        ),
        _step(
            "INEQUALITY",
            "V <= mu gives R <= m^2, so alpha <= m",
            lhs=m * (m * m - m - 2), rhs=(m * m + m) * (m - 2), relation="==",
        ),
        _step(
            "GCD",
            "m odd: gcd(m, m-2) = 1 and m-2 odd force (m-2) | (alpha-2)",
            values=[m, m - 2], equals=1,
        ),
        _step(
            "DIVISIBILITY",
            "alpha - 2 in [0, m-2] divisible by m-2: alpha in {2, m} only",
            divisor=m - 2, lo=0, hi=m - 2, multiples=[0, m - 2],
        ),
        _relation_i_step(
            p, q1, r1,
            f"alpha = m gives (Q,R,W,V) = ({q1},{r1},{w1},{m * (m + 1)}); relation (i) holds",
        ),
        _step(
            "HOFFMAN_CLIQUE",
            "alpha = m: each vertex outside the non-edge's common neighborhood "
            "extends {x} to a clique of size 1+m^2, above 1 + k/m",
            clique=m * m + 1, valency=k, eig=m, tuple=[q1, r1, w1],
        ),
        _relation_i_step(
            p, q2, r2,
            f"alpha = 2 gives (Q,R,W,V) = ({q2},{r2},{w2},{v2}); relation (i) holds",
        ),
        _step(
            "SUBSTITUTION",
            "alpha = 2: the complement's edge triangle parameter is "
            "Qbar = n-3-3k+3mu-V = lambdabar - 1, so the complement packs a "
            "clique of size lambdabar + 2 = m^2-m",
            lhs=n - 3 - 3 * k + 3 * mu - v2, rhs=comp_lam - 1,
        ),
        _step(
            "HOFFMAN_CLIQUE",
            "alpha = 2: clique of size m^2-m in the complement, above "
            "1 + kbar/(m+1)",
            clique=comp_lam + 2, valency=n - k - 1, eig=m + 1, tuple=[q2, r2, w2],
        ),
    ]
    oracle = _solver_cross_check(p, steps)
    return Instance(m, p, CONTRADICTION, tuple(steps), oracle=oracle)


def _tri_oracle(p: SrgParams, steps: list[Step]) -> dict:
    """The edge-side solver's tuples, each with the step that settles it."""
    return _oracle(steps, [{"tuple": list(t)} for t in feasible_edge_params(p)], "settled_by")


def certify_tri_family1(s: int) -> Instance:
    """First tricirculant family: an edge parameter system exists exactly at
    s = -1, where the graph is the complement of the triangular graph T(6)."""
    if s == 0:
        step = _step(
            "SUBSTITUTION",
            "s = 0 gives order 6 and valency 1 (a perfect matching), which is "
            "disconnected; excluded as trivial",
            lhs=(4 * 0 + 1) * (3 * 0 + 1), rhs=1,
        )
        return Instance(s, None, DEGENERATE, (step,))
    p = tricirc_families(s)[0].params

    def r_of(beta: int) -> int:
        return (4 * s + 3) * (s - beta * (2 * s + 1))

    betas = []
    while r_of(len(betas)) >= 0:
        betas.append(len(betas))
    steps = [
        _eq2_step(p),
        _step(
            "GCD",
            "relation (i): R = (4s+3)(4s^2+3s-Q-1)/(4(2s+1)); the factors are "
            "coprime, so Q = 4s^2+3s-1-4*alpha*(2s+1) and R = alpha(4s+3)",
            values=[4 * s + 3, 4 * (2 * s + 1)], equals=1,
        ),
        _step(
            "GCD",
            "relation (ii): W = s(s-alpha)(4s+3)/(2s+1); coprimality forces "
            "(2s+1) | (s-alpha), so alpha = s - beta(2s+1), W = beta*s(4s+3)",
            values=[s * (4 * s + 3), 2 * s + 1], equals=1,
        ),
        _step(
            "INEQUALITY",
            "s(4s+3) > 0 for every nonzero s, so W >= 0 forces beta >= 0",
            lhs=s * (4 * s + 3), rhs=0, relation=">",
        ),
        _step(
            "INEQUALITY",
            "R is strictly decreasing in beta",
            lhs=-(4 * s + 3) * (2 * s + 1), rhs=0, relation="<",
        ),
        _step(
            "INEQUALITY",
            f"R >= 0 admits beta in {betas} only",
            lhs=r_of(betas[-1] + 1), rhs=0, relation="<",
        ),
    ]

    solution = None
    for beta in betas:
        if beta == 0:
            steps.append(
                _step(
                    "INEQUALITY",
                    "beta = 0 gives Q = -(4s^2+s+1) < 0: excluded",
                    lhs=-(4 * s * s + s + 1), rhs=0, relation="<",
                )
            )
            continue
        alpha = s - beta * (2 * s + 1)
        q = 4 * s * s + 3 * s - 1 - 4 * alpha * (2 * s + 1)
        r = alpha * (4 * s + 3)
        w = beta * s * (4 * s + 3)
        steps += [
            _relation_ii_step(
                p, q, w, f"beta = {beta} gives (Q,R,W) = ({q},{r},{w}); relation (ii) holds"
            ),
            _step(
                "GRAPH_CHECK",
                "s = -1: the graph is the complement of T(6); every edge is "
                "3-isoregular with (Q,R,W) = (0,0,1), measured directly",
                graph="t6-complement",
                assertion="every-edge-3-isoregular-q0-r0-w1", tuple=[q, r, w],
            ),
        ]
        solution = {"Q": q, "R": r, "W": w}
    verdict = SOLUTION if solution is not None else CONTRADICTION
    oracle = _tri_oracle(p, steps)
    return Instance(s, p, verdict, tuple(steps), solution=solution, oracle=oracle)


def certify_tri_family2(s: int) -> Instance:
    """Second tricirculant family: no edge parameter system for any admitted s."""
    if s in (-1, 0, 1):
        if s == 1:
            desc = "s = 1 gives order 3 (a triangle): no within-orbit edge structure"
            step = _step("SUBSTITUTION", desc, lhs=3 * (3 - 3 + 1), rhs=3)
        else:
            step = _step("SUBSTITUTION", f"s = {s} gives lambda = -1", lhs=s * s + s - 1, rhs=-1)
        return Instance(s, None, DEGENERATE, (step,))
    p = tricirc_families(s)[1].params
    steps = [
        _eq2_step(p),
        _step(
            "GCD",
            "relation (i): R = (s^2+s-1)(s^2+s-Q-2)/(2s(s-1)); the factors are "
            "coprime, so Q = s^2+s-2-2*alpha*s(s-1) and R = alpha(s^2+s-1)",
            values=[s * s + s - 1, 2 * s * (s - 1)], equals=1,
        ),
        _step(
            "INEQUALITY",
            "s^2+s-1 > 0, so R >= 0 forces alpha >= 0",
            lhs=s * s + s - 1, rhs=0, relation=">",
        ),
        _step(
            "INEQUALITY",
            "W = (1-alpha) * s(s^2+s-1)/(2s-1) with positive factor, so W >= 0 "
            "forces alpha <= 1",
            lhs=s * (s * s + s - 1) * (2 * s - 1), rhs=0, relation=">",
        ),
    ]

    # Branch alpha = 1.
    if s == 2:
        r1 = s * s + s - 1
        steps += [
            _relation_i_step(
                p, 0, r1, f"alpha = 1 at s = 2 gives (Q,R,W) = (0,{r1},0); relation (i) holds"
            ),
            _step(
                "GRAPH_CHECK",
                "s = 2: the only such graph is the triangular graph T(7), and "
                "none of its edges is 3-isoregular, measured directly",
                graph="t7", assertion="no-3-isoregular-edge", tuple=[0, r1, 0],
            ),
        ]
    else:
        steps.append(
            _step(
                "INEQUALITY",
                "alpha = 1 gives Q = -(s-1)(s-2) < 0 for s outside {1, 2}: excluded",
                lhs=-(s - 1) * (s - 2), rhs=0, relation="<",
            )
        )

    # Branch alpha = 0.
    steps += [
        _step(
            "SUBSTITUTION",
            "alpha = 0: 8s(s^2+s-1) = (2s-1)(4s^2+6s-1) - 1, so "
            "(2s-1) | s(s^2+s-1) would force (2s-1) | 1",
            lhs=8 * s * (s * s + s - 1), rhs=(2 * s - 1) * (4 * s * s + 6 * s - 1) - 1,
        ),
        _step("GCD", "gcd(8, 2s-1) = 1", values=[8, 2 * s - 1], equals=1),
        _step(
            "DIVISIBILITY",
            "2s-1 does not divide 1: alpha = 0 excluded",
            value=1, divisor=2 * s - 1, divides=False,
        ),
    ]
    oracle = _tri_oracle(p, steps)
    return Instance(s, p, CONTRADICTION, tuple(steps), oracle=oracle)


# ---------------------------------------------------------------------------
# Range certificates, claims, replay

def _shows_contradiction(inst: Instance) -> bool:
    return inst.verdict == CONTRADICTION


# claim -> (certifier, what every instance of a certificate of the claim shows).
_CLAIMS = {
    "bicirc-odd": (certify_bicirc_odd, _shows_contradiction),
    "leung-ma-b": (certify_family_b, _shows_contradiction),
    "leung-ma-c": (certify_family_c, _shows_contradiction),
    # The one solution, at s = -1, is the complement of T(6).
    "tri-family-1": (certify_tri_family1, lambda inst: (
        inst.verdict == SOLUTION and inst.solution == {"Q": 0, "R": 0, "W": 1}
        if inst.index == -1 else inst.verdict != SOLUTION)),
    # s = -1, 0 and 1 give degenerate parameters.
    "tri-family-2": (certify_tri_family2, lambda inst: inst.verdict == (
        DEGENERATE if inst.index in (-1, 0, 1) else CONTRADICTION)),
}


def certify_range(claim: str, indices: list[int]) -> Certificate:
    if claim not in _CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; known: {sorted(_CLAIMS)}")
    certifier = _CLAIMS[claim][0]
    instances = tuple(certifier(i) for i in indices)
    return Certificate(claim, tuple(indices), instances)


def claim_holds(cert: Certificate) -> bool:
    """The family-level statement each certificate is meant to establish:
    its claim is known, every instance shows it, and every solver
    cross-check is consistent (a step settles each tuple the solver finds;
    degenerate instances have no cross-check).  A certificate with no
    instance establishes nothing."""
    if cert.claim not in _CLAIMS or not cert.instances:
        return False
    shows = _CLAIMS[cert.claim][1]
    return all(shows(inst) and (inst.oracle is None or inst.oracle["consistent"] is True)
               for inst in cert.instances)


class ReplayResult(NamedTuple):
    ok: bool
    mismatches: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def replay_certificate(obj) -> ReplayResult:
    """Re-validate a serialized certificate: every recorded step is recomputed
    from its data, and every instance is regenerated and compared."""
    cert = obj if isinstance(obj, Certificate) else Certificate.from_json(obj)
    problems = []
    if cert.claim not in _CLAIMS:
        return ReplayResult(False, (f"unknown claim {cert.claim!r}",))
    certifier = _CLAIMS[cert.claim][0]
    for index in (*cert.indices, *(i.index for i in cert.instances)):
        check_family_index(index)
    if tuple(i.index for i in cert.instances) != cert.indices:
        problems.append("instance indices disagree with the declared range")
    for inst in cert.instances:
        for pos, step in enumerate(inst.steps):
            if not validate_step(step):
                problems.append(f"index {inst.index}: step {pos} does not revalidate")
            elif not step.holds:
                problems.append(f"index {inst.index}: step {pos} recorded as failing")
        if certifier(inst.index) != inst:
            problems.append(f"index {inst.index}: regeneration differs from record")
    return ReplayResult(not problems, tuple(problems))
