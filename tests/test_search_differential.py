"""Differential tests of the bounded search against the unpruned oracle.

Seeded instances over the pentagon right-angled Coxeter group, a graph with
vertex orders 3, 4 and inf, and two random 4-vertex RAAGs. The equations are
shaped to send every pass-set computation of the walk down each of its
paths: a single occurrence solved outright, a commutator with a ground word
(centralizer, on infinite-order and on finite-order support alike, and with
the word wrapping around the end of the term), and a repeated variable in a
non-commutator equation (scan).
"""

import importlib
import random
from collections import Counter

from abelcon.abelian import solve_rows
from abelcon.instances import VarAtom, parse_instance
from abelcon.search import NO_SOLUTION_UP_TO_BOUND, UNSAT_BY_SHADOW, WITNESS, search
from abelcon.words import Presentation, format_word, parse_word

from .oracle import naive_search

# the package's ``search`` attribute is the function, not the module
search_mod = importlib.import_module("abelcon.search")

F2_HEADER = "graph {\n  vertex a inf\n  vertex b inf\n}\n"


def _groups():
    names = "abcde"
    pentagon = Presentation.racg(names, [(names[i], names[(i + 1) % 5]) for i in range(5)])
    mixed = Presentation("abcd", [("a", "b"), ("b", "c"), ("c", "d")],
                         {"a": 3, "b": 4, "c": None, "d": None})
    groups = [("pentagon", pentagon), ("mixed", mixed)]
    rng = random.Random(0)  # a 4-path and a star plus an isolated vertex
    pairs = [(u, v) for i, u in enumerate("abcd") for v in "abcd"[i + 1:]]
    for k in range(2):
        edges = [e for e in pairs if rng.random() < 0.5]
        groups.append((f"raag{k}", Presentation.raag("abcd", edges)))
    return groups


def _word(rng, p, vertices, max_letters=2):
    """A random non-identity element over the given vertices, as a constant."""
    while True:
        letters = [f"{rng.choice(vertices)}^{rng.choice((1, -1))}"
                   for _ in range(rng.randint(1, max_letters))]
        w = parse_word(p, " ".join(letters))
        if not w.is_identity():
            return f"( {format_word(w)} )"


def _instances(name, p, seed):
    """(text, bound) pairs covering every pass-set path the group allows."""
    rng = random.Random(seed)
    inf = [v for v in p.vertices if p.order[v] is None]
    fin = [v for v in p.vertices if p.order[v] is not None]
    every = list(p.vertices)

    def ab_or_coset(var, planted=None):
        """A coset constraint where every order is finite, else an ab one;
        consistent with the planted value when one is given and the coin says so."""
        w = planted if planted and rng.random() < 0.6 else _word(rng, p, every)
        if fin and not inf:
            return f"coset: {var} in {w[2:-2]} * G'"
        return f"ab: {var} = {w}"

    def expsum(var):
        return f"expsum: 1 |{var}|_{rng.choice(inf)} = {rng.choice((-1, 0, 1))}" if inf else ""

    out = []
    w, w2 = _word(rng, p, every), _word(rng, p, every)
    # a single occurrence: solved outright
    out.append((f"vars X\ndisjunct {{\n  eq X {w}^-1 = 1\n  {ab_or_coset('X', w)}\n}}\n", 2))
    out.append((f"vars X Y\ndisjunct {{\n  eq X {w} Y^-1 {w2} = 1\n  {expsum('Y')}\n}}\n", 1))
    # a commutator with a ground side: centralizer, on either support
    for support in (inf, fin):
        if support:
            c = _word(rng, p, support)
            out.append((f"vars X\ndisjunct {{\n  eq X {c} X^-1 {c}^-1 = 1\n"
                        f"  {ab_or_coset('X', c)}\n}}\n", 2))
            out.append((f"vars X Y\ndisjunct {{\n  eq X {c} X^-1 {c}^-1 = 1\n"
                        f"  eq Y Y {w} X^-1 = 1\n  {expsum('X')}\n}}\n", 1))
            # the ground side spans a constant and an earlier variable: [X, c Y]
            out.append((f"vars Y X\ndisjunct {{\n  eq Y {w}^-1 = 1\n"
                        f"  eq X {c} Y X^-1 Y^-1 {c}^-1 = 1\n}}\n", 2))
    # a commutator whose constant wraps around the end: u X v X^-1 (u v)^-1
    uv_inv = format_word(parse_word(p, f"{w[2:-2]} {w2[2:-2]}").inverse())
    out.append((f"vars X\ndisjunct {{\n  eq {w} X {w2} X^-1 ( {uv_inv} ) = 1\n}}\n", 2))
    # a repeated variable outside a commutator: scan
    out.append((f"vars X\ndisjunct {{\n  eq X X {w} = 1\n}}\n", 2))
    out.append((f"vars X Y\ndisjunct {{\n  eq X Y X {w2} = 1\n  ab: X = Y\n}}\n", 1))
    # two equations ground at one depth; one disjunct constrains X, the other Y
    out.append((f"vars X\ndisjunct {{\n  eq X {w2} X^-1 {w2}^-1 = 1\n  eq X X {w} = 1\n}}\n", 2))
    out.append((f"vars X Y\ndisjunct {{\n  eq X X {w} = 1\n}}\n"
                f"disjunct {{\n  eq Y X {w2} = 1\n}}\n", 1))
    # X unpinned, coupled to the later Y only by constraints: the walk
    # checks about |ball|^2 values; odd s + d is refuted by the shadow
    if inf:
        v = rng.choice(inf)
        s, d = rng.choice((0, 1, 2)), rng.choice((0, 2))
        out.append((f"vars X Y\ndisjunct {{\n  eq X X^-1 = 1\n"
                    f"  expsum: 1 |X|_{v} 1 |Y|_{v} = {s}\n"
                    f"  expsum: 1 |X|_{v} -1 |Y|_{v} = {d}\n}}\n", 1))
    # two disjuncts, the first often refuted by its shadow
    out.append((f"vars X\ndisjunct {{\n  eq X X = 1\n  {ab_or_coset('X')}\n}}\n"
                f"disjunct {{\n  eq X {w2} X = 1\n}}\n", 2))
    return out


def test_search_matches_naive_oracle_on_every_pass_set_path(monkeypatch):
    paths = Counter()

    def miss_spy(fn):
        """Counts each memo miss by how often the equation's last variable occurs."""
        def wrapped(state, i, asg):
            before = len(state._memo)
            result = fn(state, i, asg)
            if len(state._memo) > before:
                term = state.disjunct.equations[i]
                last = max(term.variables(), key=inst.variables.index)
                hits = sum(isinstance(a, VarAtom) and a.name == last for a in term.atoms)
                paths["solved" if hits == 1 else "unsolved"] += 1
            return result
        return wrapped

    def centralizer_spy(fn):
        def wrapped(p, w, bound):
            paths["centralizer"] += 1
            paths["torsion"] += any(p.order[v] is not None for v, _ in w.syllables)
            return fn(p, w, bound)
        return wrapped

    state_cls = search_mod._DisjunctState
    monkeypatch.setattr(state_cls, "_equation_pass_set", miss_spy(state_cls._equation_pass_set))
    monkeypatch.setattr(search_mod, "_centralizer_in_ball",
                        centralizer_spy(search_mod._centralizer_in_ball))
    verdicts = Counter()
    checked = 0
    for name, p in _groups():
        for seed in range(3):
            for text, bound in _instances(name, p, seed):
                inst = parse_instance(text, presentation=p)
                fast = search(inst, bound)
                first = naive_search(inst, bound)
                verdicts[fast.verdict] += 1
                checked += 1
                if fast.verdict == UNSAT_BY_SHADOW:
                    assert first is None, (name, text)
                else:
                    expected = WITNESS if first is not None else NO_SOLUTION_UP_TO_BOUND
                    assert fast.verdict == expected, (name, text)
                assert fast.assignment == first, (name, text)
    assert checked >= 60
    assert all(verdicts[v] for v in (WITNESS, NO_SOLUTION_UP_TO_BOUND, UNSAT_BY_SHADOW)), verdicts
    scans = paths["unsolved"] - paths["centralizer"]
    assert paths["solved"] and paths["centralizer"] and paths["torsion"], paths
    assert scans > 0, paths  # equations neither solved nor commutators


# ---------------------------------------------------------------------------
# verdict precedence: shadow refutation before ground failures and the walk
# (the bound check before both is tests/test_search.py::test_search_bound_outside_cap)

# a ground equation that fails in F2 although its abelian image is trivial
GROUND_FAILS_SHADOW_OK = "disjunct {\n  eq X = 1\n  eq ( a b a^-1 b^-1 ) = 1\n}\n"
SHADOW_REFUTED = "disjunct {\n  eq X = 1\n  ab: X = a\n}\n"
# a^2 = 1 fails in F2 and its shadow row 2 = 0 has no solution
GROUND_FAILS_SHADOW_REFUTED = "disjunct {\n  eq X = 1\n  eq a^2 = 1\n}\n"


def test_ground_failure_beside_refuted_shadow_is_no_solution_without_nodes():
    inst = parse_instance(F2_HEADER + "vars X\n" + GROUND_FAILS_SHADOW_OK + SHADOW_REFUTED)
    report = search(inst, 2)
    assert report.verdict == NO_SOLUTION_UP_TO_BOUND and report.nodes == 0


def test_failing_ground_constraint_drops_its_disjunct_before_the_walk():
    inst = parse_instance(F2_HEADER + "vars X\ndisjunct {\n  eq X = 1\n  len: = 1\n}\n")
    report = search(inst, 2)
    assert report.verdict == NO_SOLUTION_UP_TO_BOUND and report.nodes == 0
    inst = parse_instance(F2_HEADER + "vars X\ndisjunct {\n  eq X = 1\n  len: = 0\n}\n")
    assert search(inst, 2).verdict == WITNESS


def test_value_outside_a_disjuncts_candidates_does_not_keep_it_live():
    # X^2 = [b, a] has no solution; the second disjunct pins X but not Y
    inst = parse_instance(F2_HEADER + "vars X Y\n"
                          "disjunct {\n  eq X X a b a^-1 b^-1 = 1\n}\n"
                          "disjunct {\n  eq X a b a^-1 b^-1 = 1\n  eq Y a^5 = 1\n}\n")
    report = search(inst, 4)
    assert report.verdict == NO_SOLUTION_UP_TO_BOUND and report.nodes == 1


def test_shadow_is_solved_once_per_disjunct_not_per_node(monkeypatch):
    calls = []

    def spy(rows, columns):
        calls.append(rows)
        return solve_rows(rows, columns)

    monkeypatch.setattr(search_mod, "solve_rows", spy)
    inst = parse_instance(F2_HEADER + "vars X Y\n"
                          "disjunct {\n  eq X X^-1 = 1\n"
                          "  expsum: 1 |X|_a 1 |Y|_a = 4\n"
                          "  expsum: 1 |X|_a -1 |Y|_a = 2\n}\n"
                          "disjunct {\n  eq X Y b^-3 = 1\n}\n")
    report = search(inst, 2)
    assert report.verdict == WITNESS and report.nodes > 2
    assert len(calls) == 2


def test_every_shadow_refuted_is_unsat_even_when_ground_fails():
    inst = parse_instance(F2_HEADER + "vars X\n" + GROUND_FAILS_SHADOW_REFUTED + SHADOW_REFUTED)
    assert search(inst, 2).verdict == UNSAT_BY_SHADOW
