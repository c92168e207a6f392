"""Independent oracles used to cross-check the package.

The normal-form oracle is a heaps-of-pieces piling: each vertex keeps a pile
receiving its own exponents and anonymous blockers from non-commuting
syllables. Depiling greedily by least vertex yields a canonical word. This is
deliberately a different algorithm (and a different data layout) from the
package's scanning normalizer, so agreement between the two is evidence.

The second oracle, ``naive_search``, enumerates every assignment over the
Cayley ball in the search's order and evaluates each one in full, with no
pruning, no shadow and no pass sets; ``abelcon.search`` must return the
same first assignment.

``forced_extension`` extends an assignment of an instance's variables to
the fresh variables that flattening and the finite-abelianisation
reduction introduce, so their solution sets can be compared;
``disjunct_holds`` checks one disjunct of the result.

``least_conjugator`` and ``sphere_root`` are the Cayley-ball scans that
cyclic reduction and root extraction once ran: the package now builds both
answers directly and must agree with them.

``is_in_centralizer`` is the direct commutator test that centralizer
descriptions are checked against, through ``centralizer_generating_words``
and ``in_described_centralizer``, which read a description as generators
and as a membership test.

``ball_by_products`` is the Cayley-ball construction ``words.ball`` once
ran: multiply every word of the last sphere by every generator, drop the
elements already found and sort the rest by ``sort_key``. The package now
extends each element by one letter and must list the same elements in the
same order.

``diagonal_solution`` is the dense reference for linear systems over Z: it
diagonalizes the whole integer matrix with unimodular row and column
operations, where ``abelcon.abelian.solve_linear_system`` eliminates sparse
rows one at a time. Their verdicts must agree.

``ab_holds_by_products`` is the check of an ``ab:`` constraint that
``evaluate`` once ran: multiply out each side into one normal form and
abelianise the two products. The package now sums the images of the
values, which abelianisation, a homomorphism, allows; the two must agree.

``nested_word_expr`` is the recipe evaluator ``witness_h10`` once ran: every
``inv``, ``concat`` and ``conj`` normalises its own product, and
``ab_cover_split`` abelianises its argument's word. The package now flattens
a recipe into one product and reads the cover split off exponent sums; the
two must build equal words.
"""

from collections import deque
from itertools import product
from typing import Optional

from abelcon.abelian import abelianize
from abelcon.compilers import _int_expr
from abelcon.errors import RecipeError
from abelcon.instances import Instance, VarAtom, evaluate, isolate_variable
from abelcon.words import (
    ball,
    cyclically_reduce,
    generator_words,
    geodesic_length,
    induced_subpresentation,
    multiply,
    multiply_all,
    normalize,
    parse_word,
    sort_key,
    support,
)

BLOCK = "#"  # anonymous blocker entry


class Piling:
    def __init__(self, pres):
        self.pres = pres
        self.vertices = pres.vertices
        self.order = pres.order
        self.blockers = {
            v: [u for u in self.vertices if u != v and not pres.adjacent(u, v)]
            for v in self.vertices
        }

    def _reduce(self, v, e):
        k = self.order[v]
        if k is None:
            return e
        r = e % k
        return r if r <= (k - 1) // 2 else r - k

    def pile(self, pairs):
        piles = {v: deque() for v in self.vertices}
        for v, e in pairs:
            e = self._reduce(v, e)
            if e == 0:
                continue
            q = piles[v]
            if q and q[-1] is not BLOCK:
                merged = self._reduce(v, q[-1] + e)
                if merged == 0:
                    q.pop()
                    for u in self.blockers[v]:
                        piles[u].pop()
                else:
                    q[-1] = merged
            else:
                q.append(e)
                for u in self.blockers[v]:
                    piles[u].append(BLOCK)
        return piles

    def normal_pairs(self, pairs):
        """Canonical (vertex, exponent) list via greedy least-vertex depiling."""
        piles = self.pile(pairs)
        out = []
        while True:
            for v in self.vertices:
                q = piles[v]
                if q and q[0] is not BLOCK:
                    out.append((v, q[0]))
                    q.popleft()
                    for u in self.blockers[v]:
                        piles[u].popleft()
                    break
            else:
                break
        assert all(not piles[v] for v in self.vertices), "stranded pile content"
        return out


def oracle_normal_form(pres, pairs):
    return tuple(Piling(pres).normal_pairs(pairs))


def oracle_equal(pres, pairs_a, pairs_b):
    pil = Piling(pres)
    return tuple(pil.normal_pairs(pairs_a)) == tuple(pil.normal_pairs(pairs_b))


def letter_alphabet(pres):
    """One-letter words as (vertex, exponent) pairs, deduplicated as elements."""
    letters = []
    seen = set()
    pil = Piling(pres)
    for v in pres.vertices:
        for e in (1, -1):
            nf = tuple(pil.normal_pairs([(v, e)]))
            if nf and nf not in seen:
                seen.add(nf)
                letters.append((v, e))
    return letters


def bfs_ball_normal_forms(pres, radius):
    """Map oracle normal form -> BFS distance from the identity."""
    pil = Piling(pres)
    letters = letter_alphabet(pres)
    dist = {(): 0}
    frontier = [()]
    for d in range(1, radius + 1):
        nxt = []
        for nf in frontier:
            for (v, e) in letters:
                new = tuple(pil.normal_pairs(list(nf) + [(v, e)]))
                if new not in dist:
                    dist[new] = d
                    nxt.append(new)
        frontier = nxt
    return dist


def ball_by_products(pres, radius):
    """Every element of length <= radius, in length-then-lex order: each
    sphere is the last one times every generator, less the elements already
    found, sorted by ``sort_key``."""
    gens = generator_words(pres)
    frontier = [pres.identity()]
    elements = list(frontier)
    found = set(frontier)
    for _ in range(radius):
        new = {multiply(pres, w, g) for w in frontier for g in gens} - found
        frontier = sorted(new, key=sort_key)
        found.update(frontier)
        elements.extend(frontier)
    return elements


def all_raw_words(pres, max_len):
    """Every raw word (tuple of one-letter pairs) of length <= max_len."""
    letters = letter_alphabet(pres)
    words = [()]
    for n in range(1, max_len + 1):
        words.extend(product(letters, repeat=n))
    return words


def naive_search(inst, bound):
    """First satisfying assignment in mixed-radix ball order, or None."""
    elems = ball(inst.presentation, bound)
    for values in product(elems, repeat=len(inst.variables)):
        asg = dict(zip(inst.variables, values))
        if evaluate(inst, asg).satisfied:
            return asg
    return None


def forced_extension(inst_flat, disjunct, base):
    """Extend an assignment of the original variables to the flattening's fresh ones.

    Fresh variables are definitionally determined (each first occurs in an
    equation whose other atoms are already ground); returns None only if some
    defining equation never becomes ground, which flatten's output never does.
    """
    p = inst_flat.presentation
    asg = dict(base)
    pending = list(inst_flat.disjuncts[disjunct].equations)
    progress = True
    while pending and progress:
        progress = False
        rest = []
        for term in pending:
            unknown = [a for a in term.atoms
                       if isinstance(a, VarAtom) and a.name not in asg]
            names = {a.name for a in unknown}
            if not names:
                continue
            if len(names) == 1 and len(unknown) == 1:
                k = term.atoms.index(unknown[0])
                asg[unknown[0].name] = isolate_variable(p, term, k, asg)
                progress = True
            else:
                rest.append(term)
        pending = rest
    if any(v not in asg for v in inst_flat.variables):
        return None
    return asg


def disjunct_holds(inst, disjunct, asg):
    """True iff asg satisfies the given disjunct of inst (not just some disjunct)."""
    one = Instance(inst.presentation, inst.variables, (inst.disjuncts[disjunct],),
                   inst.graph_ref)
    return evaluate(one, asg).satisfied


def _movable(pres, syllables, i, later):
    """True iff syllable i commutes past every syllable before it (after it, if later)."""
    others = syllables[i + 1:] if later else syllables[:i]
    v = syllables[i][0]
    return all(u != v and pres.adjacent(u, v) for u, _ in others)


def _peeled_length(pres, g):
    """Length of g after moving a final syllable to the front while it merges
    with an initial one into a cheaper syllable."""
    cost = pres.syllable_cost
    while True:
        sy = g.syllables
        pair = next(((v, f) for i, (v, e) in enumerate(sy) for j, (u, f) in enumerate(sy)
                     if i != j and u == v and _movable(pres, sy, i, False)
                     and _movable(pres, sy, j, True) and cost(v, e + f) < cost(v, e) + cost(v, f)),
                    None)
        if pair is None:
            return geodesic_length(pres, g)
        v, f = pair
        g = normalize(pres, [(v, f), *sy, (v, -f)])


def least_conjugator(pres, g):
    """(core, h): h is the first element of ball(pres, |g|) whose conjugate
    h^-1 g h = core has minimal length, the length that peeling reaches."""
    target = _peeled_length(pres, g)
    for h in ball(pres, geodesic_length(pres, g)):
        core = g.conjugate_by(h)
        if geodesic_length(pres, core) == target:
            return core, h
    raise AssertionError("no conjugate of minimal length in the ball")


def sphere_root(pres, w):
    """Maximal n with w = u^n, and u: the first u of length |w|/n in ball
    order of the support subgroup, trying n from |w| down."""
    total = geodesic_length(pres, w)
    sub = induced_subpresentation(pres, {v for v, _ in w.syllables})
    for n in range(total, 1, -1):
        if total % n:
            continue
        for cand in ball(sub, total // n):
            if geodesic_length(sub, cand) == total // n:
                u = normalize(pres, cand.syllables)
                if u ** n == w:
                    return u, n
    return w, 1


def is_in_centralizer(pres, g, x):
    """Direct commutator test: true iff x g x^-1 g^-1 = 1."""
    return multiply(pres, x, g) == multiply(pres, g, x)


def centralizer_generating_words(p, desc):
    """Group elements generating the centralizer that ``desc`` describes: each
    cyclic part and each link vertex, conjugated by the description's h."""
    h = desc.conjugator
    links = [normalize(p, [(v, 1)]) for v in sorted(desc.link_vertices, key=p.index.__getitem__)]
    return [multiply_all(p, [h, b, h.inverse()]) for b in (*desc.cyclic_parts, *links)]


def in_described_centralizer(p, desc, x):
    """Exact membership test for the centralizer that ``desc`` describes.

    Conjugate x back, split its syllables by block support (the pieces
    pairwise commute), and require each piece to be a power of its root
    with the remainder supported on the link.
    """
    y = x.conjugate_by(desc.conjugator)
    supports = [support(p, b) for b in desc.cyclic_parts]
    allowed = frozenset().union(*supports, desc.link_vertices) if supports else desc.link_vertices
    if not support(p, y) <= allowed:
        return False
    for b, vs in zip(desc.cyclic_parts, supports):
        piece = normalize(p, [(v, e) for v, e in y.syllables if v in vs])
        if piece.is_identity():
            continue
        lb, lp = geodesic_length(p, b), geodesic_length(p, piece)
        if lp % lb:
            return False
        m = lp // lb
        if piece != b ** m and piece != b ** (-m):
            return False
    return True


def _diagonalize(matrix: list[list[int]], rhs: list[int]):
    """Return (D, c, V) with D = U @ M @ V diagonal, c = U @ rhs and U, V
    unimodular; the row operations act on rhs as they go, so U is never built."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    D = [row[:] for row in matrix]
    c = list(rhs)
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        c[i], c[j] = c[j], c[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # dst += q * src
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        c[dst] += q * c[src]

    def add_col(src, dst, q):
        for row in D:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        # pivot: smallest nonzero magnitude in the remaining block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, m):
            if D[i][t]:
                q = -(D[i][t] // D[t][t])
                add_row(t, i, q)
                if D[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if D[t][j]:
                q = -(D[t][j] // D[t][t])
                add_col(t, j, q)
                if D[t][j]:
                    dirty = True
        if dirty:
            continue  # remainder left behind; pick a smaller pivot
        t += 1
    return D, c, V


def diagonal_solution(matrix: list[list[int]], rhs: list[int]) -> Optional[list[int]]:
    """An integer solution of matrix @ y = rhs by diagonalization, or None
    when there is none. Every row has the same number of columns, at least one."""
    n = len(matrix[0])
    D, c, V = _diagonalize(matrix, rhs)
    z = [0] * n
    for i in range(len(matrix)):
        d = D[i][i] if i < n else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d:
                return None
            z[i] = c[i] // d
    return [sum(V[i][j] * z[j] for j in range(n)) for i in range(n)]


def ab_holds_by_products(p, con, asg):
    """ab(lhs) = ab(rhs) for an AbEq, each side evaluated to its product word."""
    return abelianize(p, con.lhs.evaluate(p, asg)) == abelianize(p, con.rhs.evaluate(p, asg))


def nested_word_expr(expr, ints, groups, p):
    """Evaluate a word recipe bottom up, one normal form per node."""
    op = expr["op"]
    if op == "word":
        return parse_word(p, expr["text"])
    if op == "ref":
        return groups[expr["name"]]
    if op == "pow":
        base = nested_word_expr(expr["base"], ints, groups, p)
        return base ** _int_expr(expr["exp"], ints, groups, p)
    if op == "concat":
        return multiply_all(p, [nested_word_expr(a, ints, groups, p) for a in expr["args"]])
    if op == "inv":
        return nested_word_expr(expr["arg"], ints, groups, p).inverse()
    if op == "conj":  # h^-1 x h
        x = nested_word_expr(expr["arg"], ints, groups, p)
        return x.conjugate_by(nested_word_expr(expr["by"], ints, groups, p))
    if op == "cyclic_conjugator":
        return cyclically_reduce(p, nested_word_expr(expr["arg"], ints, groups, p))[1]
    if op == "ab_cover_split":
        vec = abelianize(p, nested_word_expr(expr["arg"], ints, groups, p))
        exclude = set(expr["exclude"])
        cover = expr["cover"]
        parts = [[] for _ in cover]
        for v in p.vertices:
            e = vec[v]
            if not e:
                continue
            if v in exclude:
                raise RecipeError(f"cover split argument has nonzero coordinate at {v}")
            for j, u in enumerate(cover):
                if v == u or p.adjacent(v, u):
                    parts[j].append((v, e))
                    break
            else:
                raise RecipeError(f"vertex {v} not covered")
        return normalize(p, parts[expr["index"]])
    raise RecipeError(f"unknown word op {op!r}")
