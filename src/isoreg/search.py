"""Exhaustive symbol-space searches for strongly regular and 3-isoregular
multicirculants, with sound pruning and isomorphism deduplication.

The joins never drop a strongly regular candidate: the equations they solve
are necessary conditions for strong regularity (within-orbit common-neighbor
counts are determined by set difference multisets), and 3-isoregular graphs
are always strongly regular.

Bicirculant search (``_bicirc_worker``).  In [S, S', T] write dX(d) =
|X & (X+d)| and A_T(d) = |T & (T+d)| for d = 1..n-1.  Vertices u_i and
u_{i+d} have dS(d) + A_T(d) common neighbors and w_i and w_{i+d} have
dS'(d) + A_T(d), so a strongly regular graph with parameters lambda, mu has
A_T = lambda*1_S + mu*1_Shat - dS = lambda*1_S' + mu*1_S'hat - dS'.

- Join: ``_join_keys`` keys each allowed mask X, s = |X|, by (s, t, lambda,
  mu, A_T) for every allowed t and every lambda, mu that keep A_T within
  0..t (max dX on X <= lambda <= min dX on X + t, and the same window for mu
  on X-hat) and satisfy lambda*s + mu*(n-1-s) = t(t-1) + s(s-1), the sum of
  A_T + dX; a target fixes lambda, mu and s + t.  The S' masks are bucketed
  once by their keys and every S looks up its partners under each of its
  own; with ``--sp-complement`` the only partner is S-hat, when its keys
  hold S's.  X = {} leaves lambda vacuous and X = Z_n - {0} mu, which then
  takes the value 0, so the only partner is X itself.
- T solver: ``_t_solutions`` finds every T with the key's A_T by a bit-mask
  backtracker over one member of each translate class, the one with 0 just
  after its largest cyclic gap: a gap so far that leaves no room for a wrap
  gap at least as large ends the loop over the next residue.  It adds the
  translates of every set found and solves t > n/2 through the complement
  (A_{Z_n - T} = n - 2t + A_T); each shard memoises it on (t, A_T).
- Each (S, S', T) found is judged once: distinct keys of one S differ in
  (t, A_T), and a vacuous lambda or mu takes one value, so no T comes under
  two keys of the same S.  Shards take every stride-th allowed S.

Tricirculant search (``_tricirc_worker``).  The same reduction on three
orbits: with D_a = lambda*1_{S_a} + mu*1_{S_a-hat} - dS_a, the connection
of orbits a, b (c the third) has A_T = (D_a + D_b - D_c)/2 and |T| = (k -
|S_a| - |S_b| + |S_c|)/2.  So the space is its shapes, the connection sizes
(c01, c12, c20) with the diagonal sizes they leave; the worker walks the
diagonal triples of the shapes of nonzero count, every stride-th per shard,
and ``_t_solutions`` (memoised per shard on (t, A_T)) gives the connections.

An order above ``MAX_VERTICES`` is refused before any count.  The candidate
counts are taken in closed form from the allowed sizes (C((n-1)//2, s//2)
symmetric sets of size s, none when n and s are both odd) and checked
against ``CANDIDATE_CAP`` before any mask list is built; then each search
builds only masks of the sizes it walks, S' of sizes n-1-s under
``--sp-complement``.

Every worker ends in ``_judge``, which takes a candidate as masks: it tests
it on its row blocks (``block_srg_params`` on ``row_blocks``, one vertex per
orbit), builds only the candidates that pass as a ``Symbol`` and a graph,
and tests them with ``srg_params``.  Both searches count every strongly
regular graph they build, whatever its parameters, and keep only the
nontrivial target matches, which take the triple test and the profile and
become records: the ``Symbol``, graph, parameters and profile it built, so
no survivor is built twice.  ``_run_shards`` runs the stateless shards
serially or on a process pool and sorts the records by symbol key, so output
does not depend on worker count or scheduling; ``_finish`` deduplicates,
testing a survivor only against the class representatives with its
parameters and fingerprint.
"""

from __future__ import annotations

import os
from functools import cache
from itertools import combinations, islice, product
from math import comb, isqrt, prod
from typing import Iterable, NamedTuple, Optional

from .graphs import MAX_VERTICES, Graph, bits_to_vertices, complement
from .isomorphism import invariant_fingerprint, is_isomorphic
from .isoregularity import triples_isoregular
from .formats import encode_graph6
from .paramtheory import bicirc_odd_family
from .srg import SrgParams, block_srg_params, complement_params, srg_params
from .symbols import _LAYOUT, Symbol, bicirculant, negated_mask, row_blocks, tricirculant

# Bounds the symbols a search walks, counted in closed form before any mask.
CANDIDATE_CAP = 1 << 26
# Bounds 3n, since the candidate count does not see the work per candidate.
TRICIRC_ORDER_CAP = 40


class SearchCapError(ValueError):
    """A search refused for its size."""


def _symmetric_count(n: int, size: int) -> int:
    """How many symmetric S of Z_n minus 0 have |S| = size: a choice of
    size//2 of the (n-1)//2 pairs {d, n-d}, plus {n/2} when n is even and
    size is odd."""
    if not 0 <= size < n or size % 2 and n % 2:
        return 0
    return comb((n - 1) // 2, size // 2)


def _symmetric_masks(n: int, sizes: Iterable[int]) -> list[int]:
    """The symmetric masks with the given sizes, grouped by size; no mask of
    another size is built."""
    pairs = [(1 << d) | (1 << (n - d)) for d in range(1, (n + 1) // 2)]
    masks = []
    for size in sizes:
        if _symmetric_count(n, size):
            middle = 1 << (n // 2) if size % 2 else 0
            masks.extend(middle | sum(c) for c in combinations(pairs, size // 2))
    return masks


def _rotate(mask: int, d: int, n: int) -> int:
    full = (1 << n) - 1
    return ((mask << d) | (mask >> (n - d))) & full if d else mask


def _diff_vector(mask: int, n: int) -> tuple[int, ...]:
    """Entry d-1 is |A intersect (A+d)| for d = 1..n-1."""
    return tuple((mask & _rotate(mask, d, n)).bit_count() for d in range(1, n))


class SearchSpec(NamedTuple):
    """Parameters of a bicirculant symbol search."""

    n: int
    target: Optional[SrgParams] = None
    s_size: Optional[int] = None
    sp_size: Optional[int] = None
    t_size: Optional[int] = None
    sp_is_complement: bool = False
    require_iso3: bool = False


class Survivor(NamedTuple):
    """A search record and its class; profile is None unless 3-isoregular."""

    symbol: Symbol
    params: SrgParams
    profile: Optional[tuple[int, int, int, int]]
    graph: Graph
    class_id: int

    iso3 = property(lambda self: self.profile is not None)
    graph6 = property(lambda self: encode_graph6(self.graph))

    def to_json(self) -> dict:
        return {
            "symbol": self.symbol.text(),
            "params": self.params.to_json(),
            "profile": None if self.profile is None else list(self.profile),
            "graph6": self.graph6,
            "iso3": self.iso3,
            "class": self.class_id,
        }


class SearchStats(NamedTuple):
    candidates: int
    srg: int
    nontrivial_srg: int
    iso3: int
    survivors: int
    classes: int
    complement_classes: int

    def to_json(self) -> dict:
        return self._asdict()


class SearchResult(NamedTuple):
    survivors: tuple[Survivor, ...]
    class_reps: tuple[int, ...]
    stats: SearchStats


def _judge(rule: tuple, diags, conns, negs, records: list, counts: list[int]) -> None:
    """Judge one candidate, given as masks: diagonal a, connection c of
    ``_LAYOUT[r]`` and negs[c], the mask of -conns[c]; rule is the run's
    (n, target, build).  counts holds the srg hits (every strongly regular
    graph built, whatever its parameters), the nontrivial target matches
    (0 < mu < k, which for a strongly regular graph means it and its
    complement are connected) and the 3-isoregular ones among them.  Only a
    nontrivial target match is recorded, as (symbol, graph, parameters,
    profile)."""
    n, target, build = rule
    if block_srg_params(n, row_blocks(diags, conns, negs)) is None:
        return
    sym = Symbol(n, map(bits_to_vertices, diags), map(bits_to_vertices, conns))
    g = build(sym)
    p = srg_params(g)
    if p is None:
        return
    counts[0] += 1
    if (target is not None and p.as_tuple() != target) or not p.is_nontrivial():
        return
    counts[1] += 1
    profile = triples_isoregular(g)
    if profile is not None:
        counts[2] += 1
    records.append((sym, g, p, profile))


def _t_solutions(n: int, t: int, a: tuple[int, ...]) -> tuple[int, ...]:
    """Every T in Z_n with |T| = t and |T & (T+d)| = a[d-1] for d = 1..n-1,
    as ascending bit masks; () when no such T exists.

    A set with t > n/2 is solved through its complement, whose
    autocorrelation is n - 2t + a.  Otherwise a backtracker builds one
    member of each translate class: the translate that has 0 just after its
    largest cyclic gap, so that no gap exceeds the wrap gap n - max(T).  It
    adds residues in increasing order while every difference stays within
    its remaining budget and the gaps so far leave room for that, and a set
    that uses up all budgets contributes all of its translates."""
    if 2 * t > n:
        full = (1 << n) - 1
        shift = n - 2 * t
        return tuple(sorted(full ^ m for m in _t_solutions(n, n - t, tuple(x + shift for x in a))))
    if sum(a) != t * (t - 1) or min(a) < 0 or a != a[::-1]:
        return ()
    if t == 0:
        return (0,)
    # budget[d] is how often difference d may still occur; with a symmetric
    # it stays equal to budget[n - d], so checking y - x covers x - y too.  Bit
    # d of spent is set when budget[d] is 0, and bit -x of neg when x is in
    # T, so the differences y - x of a new residue y are neg rotated by y.
    budget = [0, *a]
    members = [0]
    found: set[int] = set()

    def extend(neg: int, spent: int, gap: int) -> None:
        if len(members) == t:
            # Every difference was used up exactly, since none went negative
            # and t(t-1) of them were used.
            mask = sum(1 << x for x in members)
            found.update(_rotate(mask, j, n) for j in range(n))
            return
        # With y added and rest = t - len(members) - 1 members still to
        # come, the wrap gap is at most room - y for room = n - rest; the
        # largest gap so far and the new gap y - last must stay within it,
        # which holds for every y up to a bound.
        last = members[-1]
        room = n - t + len(members) + 1
        for y in range(last + 1, min(room - gap, (room + last) // 2) + 1):
            if _rotate(neg, y, n) & spent:
                continue
            diffs = [y - x for x in members]
            for d in diffs:
                budget[d] -= 1
                budget[n - d] -= 1
            if all(budget[d] >= 0 for d in diffs):
                members.append(y)
                now = spent
                for d in diffs:
                    if not budget[d]:
                        now |= 1 << d | 1 << (n - d)
                extend(neg | 1 << (n - y), now, max(gap, y - last))
                members.pop()
            for d in diffs:
                budget[d] += 1
                budget[n - d] += 1

    extend(1, sum(1 << d for d, x in enumerate(a, 1) if not x), 0)
    return tuple(sorted(found))


def _join_keys(mask: int, n: int, t_sizes, target) -> list[tuple]:
    """The join keys (s, t, lambda, mu, A_T) of a symmetric mask X, s = |X|:
    one for each allowed t (s + t = k with a target) and each lambda, mu of
    the target or, without one, of the windows that keep A_T = lambda*1_X +
    mu*1_Xhat - dX within 0..t, tied by lambda*s + mu*(n-1-s) = t(t-1) +
    s(s-1), the sum of A_T + dX over d = 1..n-1.  When X is {} or Z_n - {0},
    lambda or mu is vacuous and takes the value 0."""
    vec = _diff_vector(mask, n)
    s = mask.bit_count()
    inside = [x for d, x in enumerate(vec, 1) if mask >> d & 1]
    outside = [x for d, x in enumerate(vec, 1) if not mask >> d & 1]
    keys = []
    for t in t_sizes:
        if target and s + t != target[1]:
            continue
        total = t * (t - 1) + s * (s - 1)
        if not inside:
            lams = [0]
        elif target:
            lams = [target[2]] if max(inside) <= target[2] <= min(inside) + t else []
        else:
            lams = range(max(inside), min(inside) + t + 1)
        for lam in lams:
            if outside:
                mu, rem = divmod(total - lam * s, n - 1 - s)
                if rem or not max(outside) <= mu <= min(outside) + t:
                    continue
                if target and mu != target[3]:
                    continue
            elif total == lam * s:
                mu = 0
            else:
                continue
            a = tuple((lam if mask >> d & 1 else mu) - x for d, x in enumerate(vec, 1))
            keys.append((s, t, lam, mu, a))
    return keys


def _solver(n: int):
    """A shard's ``_t_solutions`` as (mask of T, mask of -T), memoised on (t, A_T)."""
    return cache(lambda t, a: [(m, negated_mask(m, n)) for m in _t_solutions(n, t, a)])


# perfbench/tracer.py times the bicirculant search's shards under this name.
def _bicirc_worker(args) -> tuple[list, list[int]]:
    """One shard of the bicirculant join, over the S masks at positions
    shard, shard + stride, ... of s_masks; returns records and counter
    deltas.  The S' masks are bucketed once by their ``_join_keys``, every S
    looks up its partners under each of its own, keeping only S-hat when S'
    is the complement, and A_T fixes every T."""
    s_masks, sp_masks, t_sizes, sp_is_complement, rule, shard, stride = args
    n, target = rule[0], rule[1]
    full = (1 << n) - 1
    buckets: dict[tuple, list[int]] = {}
    for m in sp_masks:
        for key in _join_keys(m, n, t_sizes, target):
            buckets.setdefault(key, []).append(m)
    solve = _solver(n)
    records: list = []
    counts = [0, 0, 0]
    for s_mask in s_masks[shard::stride]:
        for key in _join_keys(s_mask, n, t_sizes, target):
            partners = buckets.get(key, ())
            if sp_is_complement:
                hat = full & ~s_mask & ~1
                partners = [hat] if hat in partners else ()
            if not partners:
                continue
            for t_mask, neg in solve(key[1], key[4]):
                for sp_mask in partners:
                    _judge(rule, (s_mask, sp_mask), (t_mask,), (neg,), records, counts)
    return records, counts


def search_bicirculant(spec: SearchSpec, jobs: int = 1) -> SearchResult:
    """Enumerate bicirculant symbols under the spec constraints; keep graphs
    passing the strong-regularity (and optional 3-isoregularity) filters;
    deduplicate survivors up to isomorphism."""
    n = spec.n
    if n < 2:
        raise ValueError("modulus must be at least 2")
    if 2 * n > MAX_VERTICES:
        raise SearchCapError(f"2n = {2 * n} above the vertex cap {MAX_VERTICES}")
    if spec.target is not None and spec.target.n != 2 * n:
        raise ValueError(f"target order {spec.target.n} is not 2n = {2 * n}")
    if spec.sp_is_complement and spec.sp_size is not None:
        raise ValueError("--sp-size cannot be combined with --sp-complement (S' is S-hat)")
    for flag, size, top in (("--s-size", spec.s_size, n - 1), ("--sp-size", spec.sp_size, n - 1),
                            ("--t-size", spec.t_size, n)):
        if size is not None and not 0 <= size <= top:
            raise ValueError(f"{flag} {size} outside 0..{top}")
    s_sizes = [b for b in range(n) if spec.s_size in (None, b)]
    # With S' = S-hat the worker keeps the S' that complements S, so S' takes
    # the sizes n-1-s.
    if spec.sp_is_complement:
        sp_sizes = [n - 1 - b for b in s_sizes]
    else:
        sp_sizes = [b for b in range(n) if spec.sp_size in (None, b)]
    t_sizes = [b for b in range(n + 1) if spec.t_size in (None, b)]
    # Counted in closed form, so the cap is checked before any mask is built.
    s_count = sum(_symmetric_count(n, b) for b in s_sizes)
    sp_count = 1 if spec.sp_is_complement else sum(_symmetric_count(n, b) for b in sp_sizes)
    candidates = s_count * sp_count * sum(comb(n, b) for b in t_sizes)
    if candidates > CANDIDATE_CAP:
        raise SearchCapError(f"bicirculant space too large (estimated {candidates} candidates)")
    s_masks = _symmetric_masks(n, s_sizes)
    sp_masks = _symmetric_masks(n, sp_sizes)

    rule = (n, spec.target.as_tuple() if spec.target else None, bicirculant)
    args = (s_masks, sp_masks, t_sizes, spec.sp_is_complement, rule)
    records, counts = _run_shards(_bicirc_worker, args, jobs)
    if spec.require_iso3:
        records = [rec for rec in records if rec[3] is not None]
    return _finish(records, candidates, counts)


def _run_shards(worker, args: tuple, jobs: int) -> tuple[list, list[int]]:
    """Run worker on args + (shard, stride) for every shard, serially or on a
    process pool; return the records, sorted by symbol key, and the summed
    counters.  The shard count is jobs clamped to the CPU count; output does
    not depend on it."""
    stride = max(1, min(jobs, os.cpu_count() or 1))
    shards = [args + (shard, stride) for shard in range(stride)]
    if stride > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=stride) as pool:
            outputs = list(pool.map(worker, shards))
    else:
        outputs = [worker(a) for a in shards]
    records = sorted((rec for recs, _ in outputs for rec in recs), key=lambda rec: rec[0].key())
    counts = [sum(c[i] for _, c in outputs) for i in range(3)]
    return records, counts


def _finish(records: list, candidates: int, counts: list[int]) -> SearchResult:
    """Make each (symbol, graph, parameters, profile) record a survivor; it
    joins the class of the first representative in its (parameters,
    fingerprint) bucket that it matches, or founds one."""
    survivors = []
    class_reps: list[int] = []
    buckets: dict[tuple, list[tuple[Graph, int]]] = {}
    for i, (sym, g, params, profile) in enumerate(records):
        bucket = buckets.setdefault((params, invariant_fingerprint(g)), [])
        class_id = next((cid for rep, cid in bucket if is_isomorphic(g, rep)), None)
        if class_id is None:
            class_id = len(class_reps)
            bucket.append((g, class_id))
            class_reps.append(i)
        survivors.append(Survivor(sym, params, profile, g, class_id))
    stats = SearchStats(candidates, *counts, len(survivors), len(class_reps),
                        _complement_class_count([survivors[i].graph for i in class_reps]))
    return SearchResult(tuple(survivors), tuple(class_reps), stats)


def _complement_class_count(reps: list[Graph]) -> int:
    """Classes counted after identifying each class with its complement."""
    paired = set()
    count = 0
    for i, g in enumerate(reps):
        if i in paired:
            continue
        count += 1
        paired.add(i)
        cg = complement(g)
        for j in range(i + 1, len(reps)):
            if j not in paired and is_isomorphic(cg, reps[j]):
                paired.add(j)
                break
    return count


# ---------------------------------------------------------------------------
# Tricirculant search


def _diagonal_triples(n: int, shapes):
    """Every (connection sizes, diagonal triple) of the shapes, each a pair
    (connection sizes, diagonal sizes), lazily; only masks of the diagonal
    sizes the shapes use are built."""
    by_size = cache(lambda b: _symmetric_masks(n, [b]))
    return ((conn, diags) for conn, sizes in shapes for diags in product(*map(by_size, sizes)))


def _tricirc_worker(args) -> tuple[list, list[int]]:
    """One shard of the tricirculant join, over the triples at positions
    shard, shard + stride, ... of the walk over the shapes' diagonal
    triples; returns records and counter deltas.  Orbit a's pairs (a_0, a_d)
    have dS_a plus the autocorrelations of its two connections as common
    neighbors, so with the sizes of its shape each diagonal triple fixes
    every connection (see the module docstring)."""
    shapes, rule, shard, stride = args
    n, (_, _, lam, mu) = rule[0], rule[1]
    # D_a = lambda*1_{S_a} + mu*1_{S_a-hat} - dS_a of a diagonal mask.
    excess = cache(lambda m: [(lam if m >> d & 1 else mu) - x
                              for d, x in enumerate(_diff_vector(m, n), 1)])
    solve = _solver(n)
    records: list = []
    counts = [0, 0, 0]
    for conn, diags in islice(_diagonal_triples(n, shapes), shard, None, stride):
        e = [excess(m) for m in diags]
        options = []
        for (a, b), t in zip(_LAYOUT[3][2], conn):
            twice = [p + q - r for p, q, r in zip(e[a], e[b], e[3 - a - b])]
            if any(v % 2 for v in twice):
                break
            options.append(solve(t, tuple(v // 2 for v in twice)))
        else:
            for picked in product(*options):
                conns, negs = zip(*picked)
                _judge(rule, diags, conns, negs, records, counts)
    return records, counts


def search_tricirculant_srg(n: int, target: SrgParams, jobs: int = 1) -> SearchResult:
    """Exhaustive tricirculant symbol search for a target parameter set: the
    join solves the connections from the diagonals (``_tricirc_worker``)."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    if 3 * n > TRICIRC_ORDER_CAP:
        raise SearchCapError(f"3n = {3 * n} above the tricirculant cap {TRICIRC_ORDER_CAP}")
    if target.n != 3 * n:
        raise ValueError(f"target order {target.n} is not 3n = {3 * n}")
    shapes, candidates, k = [], 0, target.k
    for c01, c12, c20 in product(range(n + 1), repeat=3):
        sizes = (k - c01 - c20, k - c01 - c12, k - c12 - c20)
        count = prod(comb(n, c) * _symmetric_count(n, b) for c, b in zip((c01, c12, c20), sizes))
        if count:
            shapes.append(((c01, c12, c20), sizes))
            candidates += count
    if candidates > CANDIDATE_CAP:
        raise SearchCapError(f"tricirculant space too large (estimated {candidates} candidates)")
    rule = (n, target.as_tuple(), tricirculant)
    records, counts = _run_shards(_tricirc_worker, (shapes, rule), jobs)
    return _finish(records, candidates, counts)


# ---------------------------------------------------------------------------
# Twice-odd-order confirmation runs


class OddRunResult(NamedTuple):
    """Full bicirculant enumeration at odd modulus plus the structural facts
    the twice-odd-order theory predicts for the nontrivial survivors."""

    n: int
    result: SearchResult
    locally_iso3_classes: int
    family_index: Optional[int]
    structure_ok: bool
    structure_failures: tuple[str, ...] = ()


def _family_index_for(n: int) -> Optional[int]:
    """The index m of the Leung-Ma family (a) graph on 2n vertices, or None.
    That order grows like 4m^2, so isqrt(n // 2) is the one candidate."""
    m = isqrt(n // 2)
    return m if m >= 1 and bicirc_odd_family(m)[0].n == 2 * n else None


def confirm_nonexistence_bicirc_odd(n: int, jobs: int = 1) -> OddRunResult:
    """Full unconstrained (S, S', T) enumeration for odd n <= 13, the reach of ``CANDIDATE_CAP``.

    Survivors are the nontrivial strongly regular symbols; the run verifies
    that none is 3-isoregular, that no survivor class is even locally
    3-isoregular (checked on class representatives: the property is
    isomorphism-invariant), and that every survivor has S' complementary
    to S with |T| determined by the family index (directly or through the
    complement side of the parameter family)."""
    if n % 2 == 0:
        raise ValueError("this run is for odd moduli")
    spec = SearchSpec(n=n)
    result = search_bicirculant(spec, jobs=jobs)
    m = _family_index_for(n)
    failures = []
    expected = None
    if m is not None:
        family_params, _, t_size = bicirc_odd_family(m)
        co_params = complement_params(family_params)
        expected = {family_params.as_tuple(): t_size, co_params.as_tuple(): n - t_size}
    for s in result.survivors:
        sym = s.symbol
        if m is None:
            failures.append(f"{sym.text()}: survivor at n with no admissible family index")
            continue
        if sym.sp != sym.s_hat():
            failures.append(f"{sym.text()}: S' is not the complement of S")
        want_t = expected.get(s.params.as_tuple())
        if want_t is None:
            failures.append(f"{sym.text()}: parameters outside the family pair")
        elif len(sym.t) != want_t:
            failures.append(f"{sym.text()}: |T| = {len(sym.t)}, family predicts {want_t}")

    # Looked up at call time, so a hook on isoregularity.is_locally_3isoregular
    # (perfbench/tracer.py times the local3 layer so) sees this call.
    from .isoregularity import is_locally_3isoregular

    locally = sum(is_locally_3isoregular(result.survivors[i].graph) is not None
                  for i in result.class_reps)
    return OddRunResult(n, result, locally, m, not failures, tuple(failures))
