"""Seeded request generators and per-request answer checks for the benchmark.

Generation is pure Python and never imports ``abelcon``: every request is
text (H10 polynomial text, instance text, graph text) plus the planted
answer the check compares against. The same seed always yields the same
pool. Each pool is stratified: it is a run of blocks, each a fixed list of
request classes, so that the seed moves the concrete values but not the mix
of request costs, and any whole number of blocks has the pool's mix.

A handler receives the imported ``abelcon`` package (``lib``), the
presentations built during set-up and one request. It calls only the
package's public names, looked up on ``lib`` at call time, and returns an
:class:`Outcome`; any exception it raises counts as a failed request.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

WITNESS = "Witness"
UNSAT_BY_SHADOW = "UnsatByShadow"
DECIDED = (WITNESS, UNSAT_BY_SHADOW)


@dataclass(frozen=True)
class Request:
    kind: str            # request class, for reading traces
    graph: str           # key into the pool's graph texts
    text: str            # H10 text or instance text
    bound: Optional[int]  # search bound, None when the request does not search
    planted: dict        # planted integers (H10) or planted words as text (instances)
    mode: str = ""       # compiler mode for h10_search
    expect_unsat: bool = False


@dataclass
class Pool:
    graphs: dict[str, str]   # graph name -> graph file text
    requests: list[Request]
    word_lengths: list[int]  # planted word lengths
    block: int               # requests per stratified block
    traced: int              # leading requests a traced run sends

    def descriptors(self) -> dict:
        """Input properties a later claim can cite, measured on this pool."""
        finite = total = 0
        for r in self.requests:
            orders = _graph_orders(self.graphs[r.graph]).values()
            total += len(orders)
            finite += sum(k is not None for k in orders)
        return {
            "requests_in_pool": len(self.requests),
            "finite_order_vertex_share": finite / total,
            "mean_planted_word_length": sum(self.word_lengths) / len(self.word_lengths),
            "planted_unsat_share": sum(r.expect_unsat for r in self.requests) / len(self.requests),
        }


@dataclass(frozen=True)
class Outcome:
    verdict: str
    ok: bool
    why: str = ""


# ---------------------------------------------------------------------------
# integer polynomial text, with an evaluator independent of the library


def _poly_text(monomials: list[tuple[int, tuple[str, ...]]]) -> str:
    toks = []
    for coeff, vars_ in monomials:
        toks.append("*".join([str(coeff)] + list(vars_)))
    return " ".join(toks) + " = 0"


def poly_holds(text: str, values: dict[str, int]) -> bool:
    """True iff every line ``c*x*y ... = 0`` of the H10 text vanishes at values."""
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        total = 0
        for tok in line[:-len("= 0")].split():
            coeff, *vars_ = tok.split("*")
            term = int(coeff)
            for v in vars_:
                term *= values[v]
            total += term
        if total:
            return False
    return True


_INT_NAMES = ("x", "y", "z", "m", "n", "k", "u", "v", "w")


def _names(rng: random.Random, count: int) -> list[str]:
    return rng.sample(_INT_NAMES, count)


_SQUARE_ROOTS = {"square_zero": 0, "square_four": 2}


def _h10_class(kind: str, rng: random.Random):
    """One polynomial system of the class, with a planted solution."""
    if kind == "const":            # x = c
        x, = _names(rng, 1)
        c = rng.randint(0, 5)
        mons = [(1, (x,))] + ([(-c, ())] if c else [])
        return [mons], {x: c}
    if kind == "sum2":             # x + y = c
        x, y = _names(rng, 2)
        c = rng.randint(1, 6)
        a = rng.randint(0, c)
        return [[(1, (x,)), (1, (y,)), (-c, ())]], {x: a, y: c - a}
    if kind == "sum3":             # x + y = z
        x, y, z = _names(rng, 3)
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        return [[(1, (x,)), (1, (y,)), (-1, (z,))]], {x: a, y: b, z: a + b}
    if kind == "shift":            # x = y + c
        x, y = _names(rng, 2)
        c, b = rng.randint(1, 3), rng.randint(0, 3)
        return [[(1, (x,)), (-1, (y,)), (-c, ())]], {x: b + c, y: b}
    if kind == "prod":             # x * y = z
        x, y, z = _names(rng, 3)
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        return [[(1, (x, y)), (-1, (z,))]], {x: a, y: b, z: a * b}
    if kind == "square":           # x * x = y
        x, y = _names(rng, 2)
        a = rng.randint(0, 3)
        return [[(1, (x, x)), (-1, (y,))]], {x: a, y: a * a}
    if kind in _SQUARE_ROOTS:      # x * x = 0 or 4
        x, = _names(rng, 1)
        a = _SQUARE_ROOTS[kind]
        return [[(1, (x, x))] + ([(-a * a, ())] if a else [])], {x: a}
    raise ValueError(kind)


# (class, bound, mode) slots of one h10_search pass. Eight cheap linear
# systems on deep balls (bounds 6 to 8), eight native-expsum and six pure-ab
# quadratic ones at bound 5 whose walks scan the ball, and x*x = 4 at bound
# 5, whose witness lies outside the ball, so the walk exhausts it
# (NoSolutionUpToBound). The slots fix the cost mix: sorted by latency, the
# native-expsum quadratic requests take ranks 9 to 16 of 23 and the pure-ab
# ones ranks 17 to 22, two clusters of similar cost, so that p50 (rank 12)
# and p90 (rank 21) each sit inside a cluster and not on a jump between two
# request classes. A quadratic request's cost does not depend on its
# variable names; the seed picks the names and the linear constants.
PURE, NATIVE = "pure-ab", "native-expsum"
H10_SLOTS = (
    [("const", 6, NATIVE), ("const", 8, PURE), ("sum2", 6, NATIVE), ("sum2", 8, PURE),
     ("sum3", 7, NATIVE), ("sum3", 8, PURE), ("shift", 7, NATIVE), ("shift", 8, PURE)]
    + [(kind, 5, NATIVE) for kind in ("prod", "square") * 3 + ("square_zero",) * 2]
    + [(kind, 5, PURE) for kind in ("prod", "square") * 2 + ("square_zero", "square")]
    + [("square_four", 5, PURE)]
)

# Five blocks, so that the pool has more than 100 distinct requests and at
# least ten of them lie beyond p90; a traced run sends the first block.
H10_BLOCKS = 5
FREE_GRAPH = "vertex s1 inf\nvertex s2 inf\n"


def gen_h10_search(seed: int) -> Pool:
    rng = random.Random(seed)
    requests, lengths = [], []
    for kind, bound, mode in H10_SLOTS * H10_BLOCKS:
        polys, planted = _h10_class(kind, rng)
        text = "\n".join(_poly_text(m) for m in polys) + "\n"
        requests.append(Request(kind, "free", text, bound, planted, mode))
        lengths.extend(abs(v) for v in planted.values())
    return Pool({"free": FREE_GRAPH}, requests, lengths, len(H10_SLOTS), len(H10_SLOTS))


def handle_h10_search(lib, pres: dict, req: Request) -> Outcome:
    h = lib.parse_h10(req.text)
    cr = lib.compile_h10_free(h, pres[req.graph], req.mode)
    inst = lib.parse_instance(lib.print_instance(cr.instance))
    report = lib.search(inst, req.bound)
    if report.verdict == UNSAT_BY_SHADOW:
        return Outcome(report.verdict, False, "planted-SAT system refuted by its shadow")
    if report.verdict == WITNESS:
        decoded = lib.decode_solution(cr, report.assignment)
        if not poly_holds(req.text, decoded):
            return Outcome(report.verdict, False, f"decoded {decoded} fails the source system")
    return Outcome(report.verdict, True)


# ---------------------------------------------------------------------------
# raag_roundtrip: compile, sidecar round trip, witness, decode on long words


def _module_pair_sizes(n: int, edges: set) -> Optional[tuple[int, int]]:
    """Sizes of the weak-module pair the RAAG compiler encodes integers with.

    Restates the definitions in ``abelcon.graphs`` for a join-indecomposable
    graph on vertices 0..n-1: weak modules are the classes of star-minimal
    vertices with equal stars, in vertex order, and the pair is the first
    one with no edge between its modules. The word lengths of a request
    grow with these sizes.
    """
    star = [frozenset([v] + [u for u in range(n) if (min(u, v), max(u, v)) in edges])
            for v in range(n)]
    modules: dict[frozenset, list[int]] = {}
    for v in range(n):
        if not any(star[u] < star[v] for u in range(n)):
            modules.setdefault(star[v], []).append(v)
    mods = list(modules.values())
    for i, s in enumerate(mods):
        for t in mods[i + 1:]:
            if not any((min(u, v), max(u, v)) in edges for u in s for v in t):
                return len(s), len(t)
    return None


def _join_indecomposable(n: int, edges: set) -> bool:
    """True iff the complement graph is connected (no direct-product split)."""
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in range(n):
            if v not in seen and (min(u, v), max(u, v)) not in edges:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def _random_raag_text(rng: random.Random, n: int, modules: tuple[int, int]) -> str:
    """A random graph on n vertices whose encoding module pair has the given sizes.

    For a first module of size 2 one vertex of a random graph on n - 1
    vertices is doubled into a pair with equal stars.
    """
    while True:
        m = n - (modules[0] - 1)
        edges = {(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.4}
        if modules[0] == 2:
            t = rng.randrange(m)  # vertex m becomes t's twin
            edges |= {(min(u, t), m) for u in range(m) if (min(u, t), max(u, t)) in edges}
            edges.add((t, m))
            order = list(range(n))
            rng.shuffle(order)
            edges = {(min(order[u], order[v]), max(order[u], order[v])) for u, v in edges}
        if _join_indecomposable(n, edges) and _module_pair_sizes(n, edges) == modules:
            break
    lines = [f"vertex v{i} inf" for i in range(n)]
    lines += [f"edge v{u} v{v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


# Per block: for each size 5..9, four targets whose module pair has sizes
# (1, 1) and one with (2, 1), where every word is twice as long. Each target
# gets one request per class. Planted values are fixed lists per module
# shape, shuffled by the seed for each block; products reach 40, sums 40,
# squares 36. Two blocks, so that 150 distinct requests spread the latency
# distribution around its median.
RAAG_BLOCKS = 2
RAAG_SIZES = (5, 6, 7, 8, 9)
RAAG_SHAPES = ((1, 1),) * 4 + ((2, 1),)
RAAG_VALUES = {
    (1, 1): {
        "prod": [(2, 20), (3, 13), (4, 10), (5, 8), (2, 16), (3, 12), (4, 9), (6, 6),
                 (2, 12), (3, 10), (5, 6), (4, 7), (2, 9), (3, 8), (6, 4), (5, 5),
                 (2, 7), (3, 6), (4, 5), (7, 3)],
        "square": [(a,) for a in (2, 3, 4, 5, 6)] * 4,
        "sum": [(a, (7 * a) % 17) for a in range(3, 23)],
    },
    (2, 1): {
        "prod": [(2, 6), (3, 4), (4, 3), (2, 5), (3, 3)],
        "square": [(2,), (3,), (4,), (3,), (2,)],
        "sum": [(4, 9), (11, 6), (8, 8), (15, 3), (6, 12)],
    },
}


def _raag_system(kind: str, values: tuple, rng: random.Random):
    if kind == "prod":             # x * y = z
        x, y, z = _names(rng, 3)
        a, b = values
        return [[(1, (x, y)), (-1, (z,))]], {x: a, y: b, z: a * b}
    if kind == "square":           # x * x = y
        x, y = _names(rng, 2)
        a, = values
        return [[(1, (x, x)), (-1, (y,))]], {x: a, y: a * a}
    if kind == "sum":              # x + y = z and z = a + b
        x, y, z = _names(rng, 3)
        a, b = values
        return ([[(1, (x,)), (1, (y,)), (-1, (z,))], [(1, (z,)), (-(a + b), ())]],
                {x: a, y: b, z: a + b})
    raise ValueError(kind)


def gen_raag_roundtrip(seed: int) -> Pool:
    rng = random.Random(seed)
    graphs, requests, lengths = {}, [], []
    for b in range(RAAG_BLOCKS):
        values = {shape: {kind: rng.sample(vals, len(vals)) for kind, vals in by_kind.items()}
                  for shape, by_kind in RAAG_VALUES.items()}
        for n in RAAG_SIZES:
            for j, shape in enumerate(RAAG_SHAPES):
                name = f"raag{n}_{j}_{b}"
                graphs[name] = _random_raag_text(rng, n, shape)
                for kind, pending in values[shape].items():
                    polys, planted = _raag_system(kind, pending.pop(), rng)
                    text = "\n".join(_poly_text(m) for m in polys) + "\n"
                    requests.append(Request(kind, name, text, None, planted))
                    lengths.extend(planted.values())
    block = len(requests) // RAAG_BLOCKS
    return Pool(graphs, requests, lengths, block, block)


def handle_raag_roundtrip(lib, pres: dict, req: Request) -> Outcome:
    h = lib.parse_h10(req.text)
    cr = lib.compile_h10_raag(h, pres[req.graph])
    inst = lib.parse_instance(lib.print_instance(cr.instance))
    back = lib.CompiledReduction.from_sidecar_json(cr.sidecar_json(), inst)
    if back.decode != cr.decode or back.recipes != cr.recipes:
        return Outcome(WITNESS, False, "sidecar round trip changed decode/recipes")
    assignment = lib.witness_h10(back, req.planted)
    decoded = lib.decode_solution(back, assignment)
    if decoded != req.planted:
        return Outcome(WITNESS, False, f"decoded {decoded} != planted {req.planted}")
    return Outcome(WITNESS, True)


# ---------------------------------------------------------------------------
# shadow_mixed: planted instances over graph products with torsion


SHADOW_GRAPHS = {
    # right-angled Coxeter group on the pentagon
    "pentagon": "".join(f"vertex {v} 2\n" for v in "abcde")
    + "edge a b\nedge b c\nedge c d\nedge d e\nedge e a\n",
    # Z/3, Z/4 and two Z vertices
    "mixed": "vertex p 3\nvertex q 4\nvertex r inf\nvertex t inf\n"
    + "edge p r\nedge q t\nedge r t\n",
    # right-angled Artin group on a path
    "path": "vertex g1 inf\nvertex g2 inf\nvertex g3 inf\nvertex g4 inf\n"
    + "edge g1 g2\nedge g2 g3\nedge g3 g4\n",
}


def _graph_orders(text: str) -> dict[str, Optional[int]]:
    """Vertex name -> order (None for infinite order), from graph text."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "vertex":
            out[parts[1]] = None if parts[2] == "inf" else int(parts[2])
    return out


def _word_text(letters: list[tuple[str, int]]) -> str:
    return " ".join(v if e == 1 else f"{v}^{e}" for v, e in letters) or "1"


def _inverse(letters: list[tuple[str, int]]) -> list[tuple[str, int]]:
    return [(v, -e) for v, e in reversed(letters)]


def _random_letters(rng: random.Random, orders: dict, length: int) -> list[tuple[str, int]]:
    names = list(orders)
    return [(rng.choice(names), rng.choice((1, -1))) for _ in range(length)]


def _group(letters) -> str:
    return f"( {_word_text(letters)} )"


BOUND_SHADOW = 3


def _shadow_instance(rng: random.Random, graph: str, unsat: bool, commute: bool):
    """Two variables, one or two equations, ab:/expsum:/coset: constraints.

    X and Y get planted values of at most three letters, so they lie in the
    ball of radius 3. With ``commute`` a second equation says that X commutes
    with its planted value. An UNSAT instance adds one constraint whose
    abelian image contradicts the equation X Y = w, so its shadow has no
    solution.
    """
    orders = _graph_orders(SHADOW_GRAPHS[graph])
    x0 = _random_letters(rng, orders, rng.randint(1, 3))
    y0 = _random_letters(rng, orders, rng.randint(0, 3))
    w = x0 + y0
    lines = ["vars X Y", "disjunct {", f"  eq X Y {_group(_inverse(w))} = 1"]
    if commute:
        lines.append(f"  eq X {_group(x0)} X^-1 {_group(_inverse(x0))} = 1")
    infinite = [v for v, k in orders.items() if k is None]
    kinds = ["ab"] + (["expsum"] if infinite else []) + (["coset"] if not infinite else [])
    kind = rng.choice(kinds)
    if kind == "ab":
        lines.append(f"  ab: X = {_group(x0)}")
    elif kind == "expsum":
        v = rng.choice(infinite)
        k = sum(e for u, e in x0 if u == v)
        lines.append(f"  expsum: 1 |X|_{v} = {k}")
    else:
        lines.append(f"  coset: X in {_word_text(x0)} * G'")
    if unsat:
        if infinite and rng.random() < 0.5:
            v = rng.choice(infinite)
            k = sum(e for u, e in w if u == v) + 1
            lines.append(f"  expsum: 1 |X|_{v} 1 |Y|_{v} = {k}")
        else:
            extra = rng.choice(list(orders))
            lines.append(f"  ab: X Y = {_group(w + [(extra, 1)])}")
    lines.append("}")
    planted = {"X": _word_text(x0), "Y": _word_text(y0)}
    return "\n".join(lines) + "\n", planted, len(x0) + len(y0)


# (graph, unsat, commute) slots of one block: per graph four SAT and four
# UNSAT instances. UNSAT ones end after the shadow solve whatever their
# equations, and SAT ones without the commuting equation take about as long;
# the commuting equation makes the walk scan, at about 6 ms on the pentagon,
# 4 ms on the path and 20 ms (5 to 28) on the mixed graph. Two of the four
# SAT slots commute on the pentagon and the path and one on the mixed graph,
# so that p90 falls among the commuting pentagon instances (about 6.5 ms at
# p90) rather than among the mixed-graph ones, whose costs spread widely.
# The seed draws the words, the constraint kinds and the contradictions.
# The pool is large, because the cost of a SAT instance also depends on
# where its planted values lie in the search order; a 30 s run sends each
# of its 2400 instances about four times. A traced run sends the first 1200.
SHADOW_BLOCK = [(g, unsat, commute)
                for g, sat_commuting in (("pentagon", 2), ("mixed", 1), ("path", 2))
                for unsat, commuting in ((False, sat_commuting), (True, 2))
                for commute in [True] * commuting + [False] * (4 - commuting)]
SHADOW_BLOCKS = 100
SHADOW_TRACED = 1200


def gen_shadow_mixed(seed: int) -> Pool:
    rng = random.Random(seed)
    requests, lengths = [], []
    for graph, unsat, commute in SHADOW_BLOCK * SHADOW_BLOCKS:
        text, planted, length = _shadow_instance(rng, graph, unsat, commute)
        requests.append(Request("unsat" if unsat else "sat", graph, text, BOUND_SHADOW,
                                planted, expect_unsat=unsat))
        lengths.append(length)
    return Pool(dict(SHADOW_GRAPHS), requests, lengths, len(SHADOW_BLOCK), SHADOW_TRACED)


def handle_shadow_mixed(lib, pres: dict, req: Request) -> Outcome:
    inst = lib.parse_instance(req.text, presentation=pres[req.graph])
    report = lib.search(inst, req.bound)
    want = UNSAT_BY_SHADOW if req.expect_unsat else WITNESS
    if report.verdict != want:
        return Outcome(report.verdict, False, f"expected {want}")
    if want == WITNESS and not lib.evaluate(inst, report.assignment).satisfied:
        return Outcome(report.verdict, False, "witness does not satisfy the instance")
    return Outcome(report.verdict, True)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], Pool]
    handle: Callable[..., Outcome]


WORKLOADS = {
    w.name: w for w in (
        Workload("h10_search", gen_h10_search, handle_h10_search),
        Workload("raag_roundtrip", gen_raag_roundtrip, handle_raag_roundtrip),
        Workload("shadow_mixed", gen_shadow_mixed, handle_shadow_mixed),
    )
}
