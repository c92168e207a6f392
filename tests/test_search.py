import importlib
import os
import random
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from abelcon.compilers import compile_h10_free, parse_h10
from abelcon.errors import RadiusCapExceeded
from abelcon.instances import parse_instance
from abelcon.search import (
    CENTRALIZER_SET_CACHE_SIZE,
    NO_SOLUTION_UP_TO_BOUND,
    UNSAT_BY_SHADOW,
    WITNESS,
    _centralizer_in_ball,
    search,
)
from abelcon.words import (
    CENTRALIZER_CACHE_SIZE,
    Presentation,
    ball,
    centralizer_generators,
    format_word,
    normalize,
    parse_word,
)

from .oracle import is_in_centralizer, naive_search
from .test_words import MIXED, PQRT, Z4_Z6_Z, _long_word_presentation

F2_HEADER = "graph {\n  vertex a inf\n  vertex b inf\n}\n"


def test_a_report_is_true_exactly_for_a_witness():
    header = F2_HEADER + "vars X\ndisjunct {\n  eq X X = 1\n"
    reports = [search(parse_instance(header + tail), 2)
               for tail in ("}\n", "  ab: X = a\n}\n", "  len: 1 |X| = 1\n}\n")]
    assert [(r.verdict, bool(r)) for r in reports] == [
        (WITNESS, True), (UNSAT_BY_SHADOW, False), (NO_SOLUTION_UP_TO_BOUND, False)]


def test_search_bound_outside_cap():
    # the shadow refutes this instance, but the bound is checked first
    inst = parse_instance(F2_HEADER + "vars X\ndisjunct {\n  eq X = 1\n  ab: X = a\n}\n")
    assert search(inst, 8, cap=8).verdict == UNSAT_BY_SHADOW
    for bound in (9, -1):
        with pytest.raises(RadiusCapExceeded):
            search(inst, bound, cap=8)


def test_search_x1_squared():
    inst = parse_instance(F2_HEADER + "vars X1\ndisjunct {\n  eq X1^2 ( a b a b )^-1 = 1\n}\n")
    report = search(inst, 2)
    assert report.verdict == WITNESS
    assert format_word(report.assignment["X1"]) == "a b"


def test_search_identity_bound_zero():
    inst = parse_instance(F2_HEADER + "vars X\ndisjunct {\n  eq X = 1\n}\n")
    report = search(inst, 0)
    assert report.verdict == WITNESS
    assert report.assignment["X"].is_identity()


def test_search_walks_more_variables_than_the_recursion_limit():
    names = " ".join(f"X{i}" for i in range(1200))
    inst = parse_instance(F2_HEADER + f"vars {names}\ndisjunct {{\n  eq X0 = 1\n}}\n")
    report = search(inst, 0)
    assert report.verdict == WITNESS
    assert len(report.assignment) == 1200
    assert all(w.is_identity() for w in report.assignment.values())
    assert report.nodes == 1200


def test_search_unsat_by_shadow():
    inst = parse_instance(F2_HEADER + """
vars X Y
disjunct {
  eq X a Y^2 b Y^-1 = 1
  ab: X = 3*Y
}
""")
    report = search(inst, 4)
    assert report.verdict == UNSAT_BY_SHADOW


def test_search_no_solution_up_to_bound():
    # X^2 = a^2 b^2 has no solution (unique roots), but the shadow is solvable
    inst = parse_instance(F2_HEADER + "vars X\ndisjunct {\n  eq X X ( a^2 b^2 )^-1 = 1\n}\n")
    report = search(inst, 3)
    assert report.verdict == NO_SOLUTION_UP_TO_BOUND


def test_search_matches_naive(f2):
    texts = [
        "vars X\ndisjunct {\n  eq X ( a b ) = 1\n}\n",
        "vars X Y\ndisjunct {\n  eq X Y = 1\n  ab: X = Y\n}\n",
        "vars X Y\ndisjunct {\n  eq X Y ( a b )^-1 = 1\n  len: 1 |X| -1 |Y| = 0\n}\n",
        "vars X\ndisjunct {\n  eq X a X a^-1 X^-1 = 1\n}\n",
        "vars X\ndisjunct {\n  eq X X X = 1\n}\ndisjunct {\n  eq X a^-1 = 1\n}\n",
    ]
    for text in texts:
        inst = parse_instance(F2_HEADER + text)
        fast = search(inst, 2)
        first = naive_search(inst, 2)
        assert fast.verdict == (WITNESS if first is not None else NO_SOLUTION_UP_TO_BOUND)
        assert fast.assignment == first  # first in enumeration order


def test_shadow_never_contradicts_naive(f2, pentagon):
    rng = random.Random(31)
    # quick random single-equation instances over F2 and the pentagon
    for p in (f2, pentagon):
        for _ in range(20):
            n = rng.randrange(2, 6)
            pieces = []
            for _ in range(n):
                if rng.random() < 0.5:
                    pieces.append(rng.choice(["X", "X^-1", "Y", "Y^-1"]))
                else:
                    pieces.append(rng.choice(list(p.vertices)))
            text = "vars X Y\ndisjunct {\n  eq " + " ".join(pieces) + " = 1\n}\n"
            inst = parse_instance(text, presentation=p)
            fast = search(inst, 1)
            first = naive_search(inst, 1)
            if fast.verdict == UNSAT_BY_SHADOW:
                assert first is None
            else:
                assert fast.verdict == (WITNESS if first is not None else NO_SOLUTION_UP_TO_BOUND)
                assert fast.assignment == first


def test_witness_reverifies(f2):
    inst = parse_instance(F2_HEADER + "vars X Y\ndisjunct {\n  eq X Y ( b a )^-1 = 1\n}\n")
    report = search(inst, 2)
    assert report.verdict == WITNESS
    from abelcon.instances import evaluate
    assert evaluate(inst, report.assignment).satisfied


# ---------------------------------------------------------------------------
# centralizer pass sets, cached per (presentation, word, bound)

PATH5 = Presentation.raag("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
GRAPHS = {"path": PATH5, "mixed": MIXED, "z4-z6-z": Z4_Z6_Z}


@pytest.mark.parametrize("name, radius", [
    ("gamma1", 3), ("path", 2), ("f2", 4), ("pentagon", 3), ("mixed", 3), ("z4-z6-z", 3),
    ("random9-0", 2), ("random9-1", 2), ("random9-2", 2)])
def test_centralizer_pass_set_matches_the_commutator_scan(request, name, radius):
    p = GRAPHS.get(name) or _long_word_presentation(request, name)
    members = ball(p, radius)
    for w in members:
        if w.is_identity():
            continue
        passing = _centralizer_in_ball(p, w, radius)
        scan = [x for x in members if is_in_centralizer(p, w, x)]
        assert passing == set(scan), format_word(w)
        assert list(passing) == scan, format_word(w)  # in ball order
        assert _centralizer_in_ball(p, w, radius) is passing


# the star of item 11's repro: centre c joined to a, b and d, and a vertex e
STAR = Presentation.raag("cabde", [("c", "a"), ("c", "b"), ("c", "d")])
Z4_Z6_Z_PATH = Presentation("uvw", [("u", "v"), ("v", "w")], {"u": 4, "v": 6, "w": None})
CONJUGATED_GRAPHS = {"path": PATH5, "mixed": MIXED, "z4-z6-z-path": Z4_Z6_Z_PATH, "star": STAR}


def _random_word(rng, p, vertices, length):
    return normalize(p, [(rng.choice(vertices), rng.choice((1, -1))) for _ in range(length)])


@pytest.mark.parametrize("name", ["f2", "pentagon", "mixed", "z4-z6-z-path", "path", "star"])
def test_centralizer_pass_set_of_a_long_conjugate_matches_the_commutator_scan(request, name):
    """w = h·c·h^-1 with |h| up to 8 over the infinite-order vertices, where
    the link ball's radius is the bound, and up to 2 over all vertices, where
    it stays bound + 2|h|."""
    p = CONJUGATED_GRAPHS.get(name) or request.getfixturevalue(name)
    infinite = [v for v in p.vertices if p.order[v] is None]
    rng = random.Random(name)
    for bound in (2, 3, 4):
        members = ball(p, bound)
        for trial in range(9):
            c = p.identity()
            while c.is_identity():
                c = _random_word(rng, p, p.vertices, rng.randint(1, 3))
            if infinite and trial % 3:
                h = _random_word(rng, p, infinite, rng.randint(3, 8))
            else:
                h = _random_word(rng, p, p.vertices, rng.randint(0, 2))
            w = c.conjugate_by(h.inverse())
            if w.is_identity():
                continue
            passing = _centralizer_in_ball(p, w, bound)
            scan = [x for x in members if is_in_centralizer(p, w, x)]
            assert list(passing) == scan, (bound, format_word(w))


@pytest.mark.parametrize("pinned, k", [(True, 1), (True, 2), (True, 3),
                                       (False, 1), (False, 2), (False, 3), (False, 4)])
def test_a_commutator_with_a_long_conjugator_answers_at_once(pinned, k):
    """[X, h c h^-1] = 1 on the star with h = (e a)^k at bound 2, pinned to
    X = a or not: the link of c is {a, b, d}, and a link ball of radius
    bound + 2|h| = 2 + 4k would hold millions of words from k = 2 on."""
    h, h_inv = " ".join(["e a"] * k), " ".join(["a^-1 e^-1"] * k)
    pin = "  eq X a^-1 = 1\n" if pinned else ""
    text = (f"vars X\ndisjunct {{\n  eq X ( {h} c {h_inv} ) X^-1 ( {h} c^-1 {h_inv} ) = 1\n"
            f"{pin}}}\n")
    inst = parse_instance(text, presentation=STAR)
    _centralizer_in_ball.cache_clear()
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(20)
    try:
        report = search(inst, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert report.assignment == naive_search(inst, 2)
    assert report.verdict == (NO_SOLUTION_UP_TO_BOUND if pinned else WITNESS)


def _out_of_time(signum, frame):
    raise TimeoutError("the pass set took more than 20 s")


def test_centralizer_pass_set_over_zk_enumerates_only_the_budget():
    """w = g0 g1 ... g7 in Z^8 with a vertex z joined to g0 only: w's
    centralizer is Z^8 itself, eight cyclic parts. The exponent vectors
    within the budget are the 3 649 lattice points of the 8-dimensional
    L1 ball of radius 4; the whole box of them has 9^8 = 43 046 721."""
    names = [f"g{i}" for i in range(8)]
    edges = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    p = Presentation.raag(names + ["z"], edges + [("g0", "z")])
    w = normalize(p, [(v, 1) for v in names])
    _centralizer_in_ball.cache_clear()
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(20)  # well over 100 times what the budgeted enumeration takes
    try:
        passing = _centralizer_in_ball(p, w, 4)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    members = ball(p, 4)
    assert passing == {x for x in members if is_in_centralizer(p, w, x)}
    assert len(passing) == 3649 < len(members)


def test_centralizer_pass_set_is_shared_by_equal_presentations():
    p = Presentation.raag("abc", [("a", "b")])
    twin = Presentation.raag("abc", [("a", "b")])
    assert twin is not p and twin == p
    w, tw = parse_word(p, "a c a"), parse_word(twin, "a c a")
    assert _centralizer_in_ball(p, w, 3) is _centralizer_in_ball(twin, tw, 3)
    assert centralizer_generators(p, w) is centralizer_generators(twin, tw)


def test_centralizer_pass_set_on_finite_order_support_equals_the_scan(pentagon):
    members = ball(pentagon, 2)
    for text in ("a b", "a c", "a c a c"):
        w = parse_word(pentagon, text)
        assert _centralizer_in_ball(pentagon, w, 2) == {
            x for x in members if is_in_centralizer(pentagon, w, x)}, text
    assert _centralizer_in_ball(pentagon, pentagon.identity(), 2) == members.keys()
    # (q p q)^2 = q p q^-2 p q: its root q p q lies in the radius-6 ball
    w = parse_word(PQRT, "q p q") ** 2
    members = ball(PQRT, 6)
    passing = _centralizer_in_ball(PQRT, w, 6)
    assert passing == {x for x in members if is_in_centralizer(PQRT, w, x)}
    assert parse_word(PQRT, "q p q") in passing and len(passing) == 5


@pytest.mark.parametrize("commutator", ["X {c} X^-1 {c}^-1", "{c} X {c}^-1 X^-1"],
                         ids=["variable-first", "constant-first"])
def test_shadow_and_search_share_one_centralizer_description(commutator):
    term = commutator.format(c="( a b^2 a b^-1 )")
    inst = parse_instance(F2_HEADER + f"vars X\ndisjunct {{\n  eq {term} = 1\n}}\n")
    centralizer_generators.cache_clear()
    _centralizer_in_ball.cache_clear()
    assert search(inst, 3).verdict == WITNESS
    info = centralizer_generators.cache_info()
    assert (info.misses, info.hits) == (1, 1)  # the shadow's lattice rows, then the pass set


def test_centralizer_caches_are_bounded():
    z = Presentation.free("z")
    assert centralizer_generators.cache_info().maxsize == CENTRALIZER_CACHE_SIZE
    assert _centralizer_in_ball.cache_info().maxsize == CENTRALIZER_SET_CACHE_SIZE
    for k in range(1, max(CENTRALIZER_CACHE_SIZE, CENTRALIZER_SET_CACHE_SIZE) + 5):
        w = normalize(z, [("z", k)])
        assert centralizer_generators(z, w).exponents == (k,)
        assert len(_centralizer_in_ball(z, w, 1)) == 3
    assert centralizer_generators.cache_info().currsize <= CENTRALIZER_CACHE_SIZE
    assert _centralizer_in_ball.cache_info().currsize <= CENTRALIZER_SET_CACHE_SIZE
    assert _centralizer_in_ball(z, normalize(z, [("z", 1)]), 1) == ball(z, 1).keys()  # rebuilt


def test_the_walk_makes_no_group_word_constraint_check(monkeypatch):
    """Constraints are checked on cached exponent sums: neither abelianize
    nor _constraint_holds runs per node, and only the witness re-check,
    `evaluate`, calls _constraint_holds, which multiplies no words."""
    instances_mod = importlib.import_module("abelcon.instances")
    search_mod = importlib.import_module("abelcon.search")
    words_mod = importlib.import_module("abelcon.words")
    calls = Counter()
    inside = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapped(*args):
            calls[name] += 1
            inside.append(name)
            try:
                return real(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(module, name, wrapped)

    def product_spy(module):
        real = module.product

        def wrapped(*args):
            if "_constraint_holds" in inside:
                calls["product in _constraint_holds"] += 1
            return real(*args)
        monkeypatch.setattr(module, "product", wrapped)

    spy(instances_mod, "_constraint_holds")
    spy(instances_mod, "abelianize")
    spy(search_mod, "evaluate")
    product_spy(instances_mod)
    product_spy(words_mod)
    body = ("vars X Y\ndisjunct {{\n  eq X X^-1 = 1\n  expsum: 1 |X|_a -1 |Y|_b = 0\n"
            "  len: 1 |X| 1 |Y| = {n}\n  ab: X Y = ( {w} )\n}}\n")
    runs = {}
    for bound, n, w in ((2, 4, "a^3 b^3"), (3, 4, "a^3 b^3"), (3, 4, "a b")):
        calls.clear()
        report = search(parse_instance(F2_HEADER + body.format(n=n, w=w)), bound)
        runs[bound, n, w] = report.verdict, report.nodes, dict(calls)
    # exhausted walks (|X| + |Y| = 4 is too short for a^3 b^3): whatever the
    # number of nodes, not one call
    for key in ((2, 4, "a^3 b^3"), (3, 4, "a^3 b^3")):
        verdict, nodes, seen = runs[key]
        assert verdict == NO_SOLUTION_UP_TO_BOUND and nodes > 10 and not seen, runs
    assert runs[3, 4, "a^3 b^3"][1] > runs[2, 4, "a^3 b^3"][1]
    # a witness: one evaluate, checking each constraint once; the ab: check
    # sums the values' images and builds no product word
    verdict, nodes, seen = runs[3, 4, "a b"]
    assert verdict == WITNESS
    assert seen == {"evaluate": 1, "_constraint_holds": 3}, runs


def test_a_row_is_checked_at_the_depth_of_its_last_unknown():
    """X's rows of ab: X Y Y^-1 = a^2 b are checked where X gets its value,
    not where Y, the constraint's last variable, gets its own: the walk
    admits X = a^2 b and Y = 1 only."""
    inst = parse_instance(F2_HEADER + "vars X Y\ndisjunct {\n  eq X X^-1 = 1\n  eq Y Y^-1 = 1\n"
                          "  ab: X Y Y^-1 = ( a^2 b )\n}\n")
    report = search(inst, 3)
    assert report.verdict == WITNESS
    assert report.nodes == 2
    assert report.assignment == naive_search(inst, 3)
    assert format_word(report.assignment["X"]) == "a^2 b"
    assert report.assignment["Y"].is_identity()


def test_each_constraint_row_is_built_once_per_search(monkeypatch):
    """One search builds each disjunct's shadow once, and each constraint's
    rows once: the walk checks the rows its shadow was solved from, for the
    refuted disjunct and the two solvable ones alike."""
    instances_mod = importlib.import_module("abelcon.instances")
    search_mod = importlib.import_module("abelcon.search")
    calls = Counter()

    def spy(module, name):
        real = getattr(module, name)

        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapped)

    spy(search_mod, "disjunct_shadow")
    spy(instances_mod, "constraint_rows")
    inst = parse_instance(F2_HEADER + """
vars X Y
disjunct {
  eq X = 1
  ab: X = a
}
disjunct {
  eq X Y^-1 = 1
  ab: X Y = ( a^2 b^2 )
  expsum: 1 |X|_a -1 |Y|_b = 0
  len: 1 |X| 1 |Y| = 2
}
disjunct {
  eq X Y = 1
  ab: X = ( a b )
  ab: X Y = 1
}
""")
    report = search(inst, 2)
    assert (report.verdict, report.disjunct) == (WITNESS, 2)
    assert report.assignment == naive_search(inst, 2)
    assert calls == {"disjunct_shadow": 3, "constraint_rows": 6}, calls


# ---------------------------------------------------------------------------
# the ball is fetched only where a depth has no pass set, or for a scan

SEARCH_MOD = importlib.import_module("abelcon.search")


def _ball_spy(monkeypatch) -> list:
    fetched = []
    real = SEARCH_MOD.cayley_ball

    def wrapped(p, radius):
        fetched.append((p, radius))
        return real(p, radius)
    monkeypatch.setattr(SEARCH_MOD, "cayley_ball", wrapped)
    return fetched


@pytest.mark.parametrize("mode", ["pure-ab", "native-expsum"])
def test_compiled_h10_searches_never_build_the_target_ball(monkeypatch, mode):
    """Every variable of a compiled H10 instance has a domain equation, so
    every depth has a pass set: the only balls built are link balls."""
    target = Presentation.free(["s1", "s2"])
    fetched = _ball_spy(monkeypatch)
    for text, bound in (("1*x*y -6 = 0", 8), ("1*x*y -6 = 0", 12), ("1*x -1*y -1 = 0\n1*x*x -4 = 0", 8)):
        inst = compile_h10_free(parse_h10(text), target, mode).instance
        assert search(inst, bound).verdict in (WITNESS, NO_SOLUTION_UP_TO_BOUND)
    assert all(p != target for p, _ in fetched), fetched


def test_a_depth_without_a_pass_set_and_a_scan_fetch_the_ball_once(monkeypatch):
    """Every fetch asks for the bound ball, and the cache of `words.ball`
    builds it once per search however often the walk reads it."""
    fetched = _ball_spy(monkeypatch)
    # Y has no equation: each value of X walks the whole ball at Y's depth
    inst = parse_instance(F2_HEADER + "vars X Y\ndisjunct {\n  eq X X^-1 = 1\n"
                          "  len: 1 |X| 1 |Y| = 4\n}\n")
    ball.cache_clear()
    report = search(inst, 2)
    assert ball.cache_info().misses == 1
    assert fetched and set(fetched) == {(inst.presentation, 2)}
    assert report.assignment == naive_search(inst, 2) and report.nodes > 2
    # X X = w scans the ball; Y's depth reads the same ball
    fetched.clear()
    inst = parse_instance(F2_HEADER + "vars X Y\ndisjunct {\n  eq X X ( a b a b )^-1 = 1\n"
                          "  ab: Y = ( a b )\n}\n")
    ball.cache_clear()
    report = search(inst, 2)
    assert ball.cache_info().misses == 1
    assert fetched and set(fetched) == {(inst.presentation, 2)}
    assert report.assignment == naive_search(inst, 2)


def test_a_compiled_search_at_bound_12_runs_in_256_mb():
    """x·y = 6 in pure-ab mode at the radius cap. The ball of radius 12 over
    F(s1, s2) would hold 1 062 881 words, hundreds of megabytes; the limit on
    the address space is set in the child interpreter only."""
    code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
import abelcon
target = abelcon.Presentation.free(["s1", "s2"])
cr = abelcon.compile_h10_free(abelcon.parse_h10("1*x*y -6 = 0"), target, "pure-ab")
report = abelcon.search(cr.instance, 12)
print(report.verdict, report.nodes)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [WITNESS, "1440"]
