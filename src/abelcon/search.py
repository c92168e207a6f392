"""Bounded exhaustive satisfiability search over Cayley balls.

The search space is (ball of the bound)^#variables in mixed-radix order:
variables in declaration order, values in length-then-lex ball order. A
search runs in four steps: the bound is checked against the cap; each
disjunct's abelian shadow is solved once over Z, as integer rows over
columns (`instances.disjunct_shadow`, `abelian.solve_rows`) with no unknown
named, and when none is solvable the answer is UnsatByShadow; every
disjunct with a failing ground equation or constraint is dropped; then the
enumeration order is walked depth-first over the disjuncts left.

At each node of the walk, each live disjunct computes once the candidate
values of the next variable: the intersection of the pass sets of the
equations that variable makes ground. Every pass set is kept in ball
order, sorted once when it is built (`words.shortlex_key`), so the walk
visits one disjunct's candidates as they are and sorts only a union of
several. A depth where some live disjunct has no such equation walks the
whole ball. The ball itself is read only then, or for a scan, from the
cache of `words.ball`, which builds it once per (presentation, bound):
normal forms are geodesic, so x lies in the ball iff
`geodesic_length(x) <= bound`, and where every depth has a pass set, as
in a compiled H10 instance, no ball of the presentation is built. A pass
set reads its equation in place, each ground segment one word: one
occurrence of the variable pins it, and a commutator [X, w] = 1 passes the
ball elements that commute with w, generated from w's centralizer
description (`words.centralizer_generators`, in any vertex orders) with no
scan of the ball; these centralizer pass sets are cached per (word, bound)
across searches, as the same few recur in every request. Any other
equation scans the ball. Each visited value must also satisfy the
constraints it makes ground, checked as integer sums, never by multiplying
words: abelianisation is a homomorphism, so the walk reads the very rows
its shadow was solved from (`instances.disjunct_shadow`, built once per
disjunct). A row sits at the depth of its last unknown, where a node sums
the values' exponent sums (kept on each word once computed) against it,
mod k at a vertex of order k, where an unknown whose coefficient is a
multiple of k drops out; a row with no unknown is the shadow's to decide.
len: sums geodesic lengths at its last variable's depth. The shadow is
solved once per disjunct, before the walk, and never again inside it. All
checks are sound and every item is checked at the depth where it becomes
ground, so the first leaf reached is the first satisfying assignment in
enumeration order; it is re-verified once, with `evaluate`, before it is
returned. The compiled problems this runs on are undecidable in general;
exhausting a bound proves nothing beyond it.
"""

from __future__ import annotations

import time
from collections.abc import Collection, Iterator, Set
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .abelian import solve_rows
from .errors import RadiusCapExceeded
from .instances import (
    ConstAtom,
    GroupTerm,
    Instance,
    VarAtom,
    disjunct_shadow,
    evaluate,
)
from .words import (
    NormalWord,
    Presentation,
    ball as cayley_ball,
    centralizer_generators,
    geodesic_length,
    induced_subpresentation,
    is_trivial,
    multiply,
    multiply_all,
    normalize,
    product,
    shortlex_key,
)

DEFAULT_CAP = 12
CENTRALIZER_SET_CACHE_SIZE = 256

WITNESS = "Witness"
NO_SOLUTION_UP_TO_BOUND = "NoSolutionUpToBound"
UNSAT_BY_SHADOW = "UnsatByShadow"


# The one record kept a dataclass: perfbench/test_perfbench.py swaps a
# report's verdict with `dataclasses.replace`. On a NamedTuple that raises
# TypeError, which the test counts as a failed request, so it would pass
# without testing anything.
@dataclass(frozen=True)
class SearchReport:
    verdict: str
    bound: int
    assignment: Optional[dict[str, NormalWord]] = None
    disjunct: Optional[int] = None
    nodes: int = 0
    millis: int = 0

    def __bool__(self):
        return self.verdict == WITNESS


@lru_cache(maxsize=CENTRALIZER_SET_CACHE_SIZE)
def _centralizer_in_ball(p: Presentation, w: NormalWord, bound: int) -> Set:
    """All elements of the bound ball commuting with w, in ball order,
    generated from its centralizer description, in any vertex orders.

    With h the least cyclic conjugator of w, so w = h·c·h^-1 with c
    cyclically reduced, an element x of the ball is h·y·h^-1 with y in C(c)
    a product of commuting pieces: a power of each cyclic part and a word on
    the link. A cyclic part on one finite-order vertex takes only its
    distinct powers, `reduce_exponent`'s range. y is enumerated up to a
    length budget, and x is kept when `geodesic_length(x) <= bound`, which
    is ball membership as the normal forms are geodesic.

    The budget is the bound itself when every vertex of h's support has
    infinite order, as then |y| <= |x|. In the reduction of h·y·h^-1, the
    letters of h that cancel against h^-1 remove at most 2|h| of its
    2|h| + |y| letters, and no other merge at an infinite-order vertex
    shortens, so it is enough that no letter of y cancels. The first one to
    cancel, in any order of cancellation, is a source of y inverse to a sink
    ℓ of h (a later letter of h that cancelled before it did so across all
    of y, so it commutes with ℓ's vertex), or the same at the other end for
    y^-1, which lies in C(c) too. So some z of C(c) = ⟨link⟩ × Π⟨r_i⟩ begins
    with ℓ^-1, where c = Π r_i^e_i with e_i >= 1. If ℓ's vertex is in the
    link, ℓ commutes with c and h·ℓ^-1, shorter than h, conjugates w to c.
    Otherwise ℓ^-1 begins a power of some r_i: it begins r_i, or ℓ ends r_i,
    so c begins with ℓ^-1 or ends with ℓ, and h·ℓ^-1 conjugates w to
    ℓ·c·ℓ^-1, again of length |c|. Either way h was not least. At a
    finite-order vertex a merge can shorten (w = u^-1 v u^-1 at order 3 has
    core v u, h = u^-1 and |w| = 3 < 2|h| + |c|), the argument does not
    reach, and the budget stays bound + 2|h|.

    Cached per (presentation, word, bound) across searches, as the same few
    commutator checks recur in every request. Only the identity's set, the
    whole ball, reads the ball; any other holds its own elements, sorted by
    `shortlex_key` once, when it is built.
    """
    if w.is_identity():
        return cayley_ball(p, bound).keys()
    desc = centralizer_generators(p, w)
    h = desc.conjugator
    budget = bound
    if any(p.order[v] is not None for v, _ in h.syllables):
        budget += 2 * geodesic_length(p, h)
    link_pres = induced_subpresentation(p, desc.link_vertices)
    link_elems = [normalize(p, x.syllables) for x in cayley_ball(link_pres, budget)]
    # exponent vectors of the cyclic parts within the budget, built part by
    # part so that no partial vector over the budget is extended
    vectors = [((), 0)]
    for b in desc.cyclic_parts:
        L = geodesic_length(p, b)
        lo, hi = -(budget // L), budget // L
        k = p.order[b.syllables[0][0]] if len(b.syllables) == 1 else None
        if k is not None:  # b = v^±1 at a vertex of order k
            lo, hi = max(lo, -(k // 2)), min(hi, (k - 1) // 2)
        vectors = [(ms + (m,), used + abs(m) * L) for ms, used in vectors
                   for m in range(lo, hi + 1) if used + abs(m) * L <= budget]
    out = []
    for ms, used in vectors:
        core = multiply_all(p, [b ** m for b, m in zip(desc.cyclic_parts, ms)])
        for l in link_elems:
            if used + geodesic_length(p, l) > budget:
                continue
            x = product(p, ((h, False), (core, False), (l, False), (h, True)))
            if geodesic_length(p, x) <= bound:
                out.append(x)
    return dict.fromkeys(sorted(out, key=shortlex_key)).keys()


class _DisjunctState:
    """Per-disjunct pruning data threaded through the depth-first walk."""

    def __init__(self, inst: Instance, index: int, shadow: tuple, bound: int):
        p = inst.presentation
        self.p = p
        self.disjunct = inst.disjuncts[index]
        self.bound = bound
        d = self.disjunct
        eq_vars = [t.variables() for t in d.equations]
        # items become checkable at the depth where their last variable gets a value
        depth_of = {v: i for i, v in enumerate(inst.variables)}
        self.eq_at = [[] for _ in inst.variables]
        self.rows_at = [[] for _ in inst.variables]
        self.lengths_at = [[] for _ in inst.variables]
        # equation i is solved for its last variable, at the positions
        # eq_hits[i]; eq_others[i] are the rest
        self.eq_others: list[tuple[str, ...]] = []
        self.eq_hits: list[tuple[int, ...]] = []
        for i, (t, vs) in enumerate(zip(d.equations, eq_vars)):
            ordered = [v for v in inst.variables if v in vs]
            if ordered:
                self.eq_at[depth_of[ordered[-1]]].append(i)
            self.eq_others.append(tuple(ordered[:-1]))
            self.eq_hits.append(tuple(k for k, a in enumerate(t.atoms)
                                      if isinstance(a, VarAtom) and a.name in ordered[-1:]))
        rows, _, _, constraints_from, lengths = shadow
        n = len(p.vertices)  # column j: the exponent sum of variables[j // n] at vertex j % n
        for coeffs, const, k in rows[constraints_from:]:
            # a coefficient that is a multiple of k adds 0 mod k: drop its term
            cols = [j for j, c in coeffs.items() if (c % k if k else c)]
            if cols:  # a row with no unknown is the shadow's to decide
                self.rows_at[max(cols) // n].append(
                    ([(inst.variables[j // n], j % n, coeffs[j]) for j in cols], const, k))
        for terms, const in lengths:
            if terms:
                self.lengths_at[max(depth_of[x] for _, x in terms)].append((terms, const))
        self.ground_failed = (
            any(not is_trivial(p, t.factors({}))
                for t, vs in zip(d.equations, eq_vars) if not vs)
            or any(const for terms, const in lengths if not terms))
        self._memo: dict[tuple, Collection] = {}

    def _equation_pass_set(self, i: int, asg: dict[str, NormalWord]) -> Collection:
        """Values of equation i's last variable x satisfying it given asg, in
        ball order; cached.

        The cache pays off whenever the same ground context recurs in sibling
        subtrees (domain equations recur with an empty context every time).
        A miss reads the term in place, cyclically from x's first occurrence,
        as x^s0 S0 x^s1 S1 ..., each ground segment S_j one word. One
        occurrence is solved outright, x^s0 = S0^-1: x = S0^-1 is one product
        of S0's factors, inverted and in reverse order, kept when its
        geodesic length is at most the bound. Two of opposite signs with
        S0 S1 = 1 say that x commutes with S0: its centralizer gives the
        values. Anything else scans the ball, read from the cache of
        `words.ball`, one unsorted product per element (`is_trivial`).
        """
        others = tuple(asg[v] for v in self.eq_others[i])
        key = (i, others)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        p = self.p
        atoms = self.disjunct.equations[i].atoms
        hits = self.eq_hits[i]
        signs = [atoms[k].inverse for k in hits]
        runs = [atoms[k + 1:j] for k, j in zip(hits, hits[1:])]
        runs.append(atoms[hits[-1] + 1:] + atoms[:hits[0]])
        if len(hits) == 1:
            factors = list(GroupTerm(runs[0]).factors(asg))
            if not signs[0]:
                factors = [(w, not s) for w, s in reversed(factors)]
            val = factors[0][0] if len(factors) == 1 and not factors[0][1] else product(p, factors)
            self._memo[key] = cached = (val,) if geodesic_length(p, val) <= self.bound else ()
            return cached
        segments = [p.identity() if not run
                    else run[0].word if len(run) == 1 and isinstance(run[0], ConstAtom)
                    else GroupTerm(run).evaluate(p, asg) for run in runs]
        if (len(hits) == 2 and signs[0] != signs[1]
                and multiply(p, *segments).is_identity()):
            # the segment that wraps around the end, unless x comes first
            cached = _centralizer_in_ball(p, segments[1 if hits[0] else 0], self.bound)
        else:
            cached = dict.fromkeys(
                val for val in cayley_ball(p, self.bound)
                if is_trivial(p, [f for s, w in zip(signs, segments)
                                  for f in ((val, s), (w, False))]))
        self._memo[key] = cached
        return cached

    def candidates(self, depth: int, asg: dict[str, NormalWord]) -> Optional[Collection]:
        """Values of variables[depth] passing every equation that becomes
        ground at depth, in ball order, or None when no equation does."""
        out = None
        for i in self.eq_at[depth]:
            passing = self._equation_pass_set(i, asg)
            if out is None:
                out = passing
            else:  # the smaller set, filtered by the other, keeps its ball order
                small, large = (out, passing) if len(out) <= len(passing) else (passing, out)
                out = dict.fromkeys(x for x in small if x in large)
        return out

    def constraints_hold(self, depth: int, asg: dict[str, NormalWord]) -> bool:
        """Every constraint row and len: that becomes ground at depth holds
        under asg: a row exactly or mod its k, on the values' exponent sums."""
        for terms, const, k in self.rows_at[depth]:
            t = -const
            for var, i, c in terms:
                t += c * asg[var].exponent_sums()[i]
            if t if k is None else t % k:
                return False
        return all(sum(c * geodesic_length(self.p, asg[x]) for c, x in terms) == const
                   for terms, const in self.lengths_at[depth])


def check_radius(bound: int, cap: int) -> None:
    """Raise RadiusCapExceeded unless the search radius lies in 0..cap."""
    if not 0 <= bound <= cap:
        raise RadiusCapExceeded(f"radius {bound} outside 0..{cap}")


def search(inst: Instance, bound: int, cap: int = DEFAULT_CAP) -> SearchReport:
    """Find the first satisfying assignment with all values in the bound ball.

    Steps, in order: raise RadiusCapExceeded when bound lies outside 0..cap;
    return UnsatByShadow (a sound, definitive no) when no disjunct's abelian
    shadow is solvable over Z; walk the ball, reading it only for a depth
    with no pass set or a scan. The walk returns a re-verified Witness, or
    NoSolutionUpToBound when it exhausts the ball.
    """
    start = time.monotonic()
    check_radius(bound, cap)
    p = inst.presentation
    shadows = [disjunct_shadow(p, d, inst.variables) for d in inst.disjuncts]
    solvable = [i for i, sh in enumerate(shadows) if solve_rows(*sh[:2]) is not None]
    if not solvable:
        millis = int((time.monotonic() - start) * 1000)
        return SearchReport(UNSAT_BY_SHADOW, bound, nodes=0, millis=millis)
    states = [_DisjunctState(inst, i, shadows[i], bound) for i in solvable]
    live0 = [st for st in states if not st.ground_failed]

    variables = inst.variables
    nodes = 0
    found: Optional[dict[str, NormalWord]] = None
    asg: dict[str, NormalWord] = {}
    # depth-first over an explicit stack, one frame per assigned depth:
    # (live disjuncts, their candidate sets, the values still to visit)
    stack: list[tuple[list[_DisjunctState], list, Iterator[NormalWord]]] = []

    def descend(live: list[_DisjunctState]) -> None:
        nonlocal found
        depth = len(stack)
        if depth == len(variables):
            found = dict(asg)  # every item of each live disjunct has been checked
            return
        cands = [st.candidates(depth, asg) for st in live]
        if any(c is None for c in cands):
            order = cayley_ball(p, bound)
        elif len(cands) == 1:
            order = cands[0]
        else:
            order = sorted(set().union(*cands), key=shortlex_key)
        stack.append((live, cands, iter(order)))

    if live0:
        descend(live0)
    while stack and found is None:
        depth = len(stack) - 1
        var = variables[depth]
        live, cands, values = stack[-1]
        for val in values:
            asg[var] = val
            admitted = [st for st, c in zip(live, cands)
                        if (c is None or val in c) and st.constraints_hold(depth, asg)]
            if admitted:
                nodes += 1
                descend(admitted)
                break
        else:
            stack.pop()
            asg.pop(var, None)
    millis = int((time.monotonic() - start) * 1000)
    if found is not None:
        res = evaluate(inst, found)
        if not res.satisfied:
            raise AssertionError("pruned search returned a non-solution; search bug")
        return SearchReport(WITNESS, bound, assignment=found, disjunct=res.disjunct,
                            nodes=nodes, millis=millis)
    return SearchReport(NO_SOLUTION_UP_TO_BOUND, bound, nodes=nodes, millis=millis)
