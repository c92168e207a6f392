"""Acceptance suite: one test per criterion, one PASS line each.

Every tolerance here is exact; a criterion either reproduces its documented
values and invariants or the build fails.
"""

import random
import time
from itertools import product

import pytest

from abelcon.abelian import (
    LinearSystem,
    exponent_sum,
    parse_linear_system,
    solve_linear_system,
)
from abelcon.cli import main as cli_main
from abelcon.compilers import (
    compile_h10_free,
    compile_h10_raag,
    decode_solution,
    parse_h10,
    reduce_finite_ab,
    witness_h10,
)
from abelcon.instances import (
    AbEq,
    ConstAtom,
    Disjunct,
    GroupTerm,
    Instance,
    VarAtom,
    evaluate,
    flatten,
    is_short,
    parse_instance,
)
from abelcon.search import UNSAT_BY_SHADOW, WITNESS, search
from abelcon.words import (
    Presentation,
    ball,
    centralizer_generators,
    format_word,
    geodesic_length,
    multiply,
    normalize,
    parse_word,
)

from .oracle import (
    all_raw_words,
    disjunct_holds,
    forced_extension,
    holds,
    in_described_centralizer,
    is_in_centralizer,
    oracle_normal_form,
)


def report(criterion, detail=""):
    print(f"PASS criterion {criterion}" + (f": {detail}" if detail else ""))


F2_HEADER = "graph {\n  vertex a inf\n  vertex b inf\n}\n"
PAPER_EQ = "eq X a Y^2 b Y^-1 = 1"


# ---------------------------------------------------------------------------


def test_criterion_1_weak_modules(tmp_path, capsys, gamma1, gamma2):
    (tmp_path / "gamma1.graph").write_text(gamma1.to_text())
    (tmp_path / "gamma2.graph").write_text(gamma2.to_text())
    assert cli_main(["weak-modules", str(tmp_path / "gamma1.graph")]) == 0
    out1 = capsys.readouterr().out
    assert out1 == "{a}\n{d}\n"
    assert cli_main(["weak-modules", str(tmp_path / "gamma2.graph")]) == 0
    out2 = capsys.readouterr().out
    assert out2 == "{a,b}\n{d}\n"
    report(1, "gamma1 -> {a},{d}; gamma2 -> {a,b},{d}")


def test_criterion_2_paper_triple():
    item1 = parse_instance(F2_HEADER + "vars X Y\ndisjunct {\n  " + PAPER_EQ +
                           "\n  len: 1 |X| -1 |Y| = 2\n}\n")
    r1 = search(item1, 2)
    assert r1.verdict == WITNESS
    p = item1.presentation
    x, y = r1.assignment["X"], r1.assignment["Y"]
    assert geodesic_length(p, x) == geodesic_length(p, y) + 2
    assert evaluate(item1, r1.assignment).satisfied

    item2 = parse_instance(F2_HEADER + "vars X Y\ndisjunct {\n  " + PAPER_EQ +
                           "\n  expsum: 1 |X|_a -2 |Y|_a -1 |Y|_b = 0\n"
                           "  expsum: 1 |X|_b -3 |Y|_b = 0\n}\n")
    assert search(item2, 4).verdict == UNSAT_BY_SHADOW

    item3 = parse_instance(F2_HEADER + "vars X Y\ndisjunct {\n  " + PAPER_EQ +
                           "\n  ab: X = 3*Y\n}\n")
    assert search(item3, 4).verdict == UNSAT_BY_SHADOW
    report(2, "item1 witness with |x|=|y|+2; items 2 and 3 UnsatByShadow")


def test_criterion_3_exponent_sum_calculus(f2, gamma1, fxy):
    assert exponent_sum(fxy, parse_word(fxy, "x y x^-1 y^2"), "x") == 0
    rng = random.Random(2026)
    for p in (f2, gamma1):
        for _ in range(10_000):
            raw1 = [(rng.choice(p.vertices), rng.choice([-2, -1, 1, 2]))
                    for _ in range(rng.randrange(0, 7))]
            raw2 = [(rng.choice(p.vertices), rng.choice([-2, -1, 1, 2]))
                    for _ in range(rng.randrange(0, 7))]
            g, h = normalize(p, raw1), normalize(p, raw2)
            gh = multiply(p, g, h)
            for s in p.vertices:
                assert exponent_sum(p, gh, s) == exponent_sum(p, g, s) + exponent_sum(p, h, s)
    for p in (f2, gamma1):
        elems = ball(p, 3)
        for g in elems:
            for h in elems:
                gh = multiply(p, g, h)
                for s in p.vertices:
                    assert (exponent_sum(p, gh, s)
                            == exponent_sum(p, g, s) + exponent_sum(p, h, s))
    report(3, "10000 random pairs per group plus exhaustive radius-3 balls")


def test_criterion_4_normal_form_oracle_equivalence(gamma1, pentagon, f2):
    start = time.monotonic()
    for p in (gamma1, pentagon, f2):
        fibers_fwd = {}
        fibers_bwd = {}
        for raw in all_raw_words(p, 6):
            mine = normalize(p, list(raw)).syllables
            theirs = oracle_normal_form(p, list(raw))
            fibers_fwd.setdefault(mine, set()).add(theirs)
            fibers_bwd.setdefault(theirs, set()).add(mine)
        assert all(len(v) == 1 for v in fibers_fwd.values())
        assert all(len(v) == 1 for v in fibers_bwd.values())
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"criterion 4 took {elapsed:.1f}s"
    report(4, f"all raw words of length <= 6 on three presentations in {elapsed:.1f}s")


def test_criterion_5_centralizer_theorem(gamma1):
    elems = ball(gamma1, 3)
    checked = 0
    for g in elems:
        if g.is_identity():
            continue
        desc = centralizer_generators(gamma1, g)
        for x in elems:
            assert in_described_centralizer(gamma1, desc, x) == is_in_centralizer(gamma1, g, x), (
                format_word(g), format_word(x))
            checked += 1
    report(5, f"{checked} membership comparisons over the radius-3 ball")


def test_criterion_6_free_h10_round_trip(capsys):
    start = time.monotonic()
    fs = Presentation.free(["s1", "s2"])
    cr = compile_h10_free(parse_h10("1*x*y -1*z = 0"), fs, mode="pure-ab")
    asg = witness_h10(cr, {"x": 2, "y": 3, "z": 6})
    assert evaluate(cr.instance, asg).satisfied
    assert decode_solution(cr, asg) == {"x": 2, "y": 3, "z": 6}
    found = search(cr.instance, 8)
    assert found.verdict == WITNESS
    decoded = decode_solution(cr, found.assignment)
    assert decoded["x"] * decoded["y"] == decoded["z"]

    cr2 = compile_h10_free(parse_h10("1*x 1*y -5 = 0"), fs, mode="pure-ab")
    found2 = search(cr2.instance, 6)
    assert found2.verdict == WITNESS
    decoded2 = decode_solution(cr2, found2.assignment)
    assert decoded2["x"] + decoded2["y"] == 5
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0, f"criterion 6 took {elapsed:.1f}s"
    report(6, f"x*y=z at bound 8 and x+y=5 at bound 6 in {elapsed:.1f}s")


def test_criterion_7_raag_h10_round_trip(gamma1):
    cr = compile_h10_raag(parse_h10("1*x*y -1*z = 0"), gamma1)
    for sol in ({"x": 1, "y": 1, "z": 1}, {"x": 1, "y": 2, "z": 2}):
        asg = witness_h10(cr, sol)
        assert evaluate(cr.instance, asg).satisfied
        assert decode_solution(cr, asg) == sol
    found = search(cr.instance, 1)
    violations = 0
    if found.verdict == WITNESS:
        decoded = decode_solution(cr, found.assignment)  # raises on violation
        assert decoded["x"] * decoded["y"] == decoded["z"]
    report(7, f"witnesses verified; search verdict {found.verdict} with {violations} violations")


def _pentagon_random_instance(rng, pentagon):
    names = ("X", "Y")

    def rand_term(max_atoms):
        atoms = []
        for _ in range(rng.randrange(1, max_atoms + 1)):
            if rng.random() < 0.55:
                atoms.append(VarAtom(rng.choice(names), rng.random() < 0.3))
            else:
                w = normalize(pentagon, [(rng.choice(pentagon.vertices), 1)])
                atoms.append(ConstAtom(w))
        return GroupTerm(tuple(atoms))

    eqs = tuple(rand_term(4) for _ in range(rng.randrange(1, 3)))
    cons = (AbEq(rand_term(3), rand_term(3)),)
    return Instance(pentagon, names, (Disjunct(eqs, cons),))


def _solution_set(inst, bound, onto):
    elems = ball(inst.presentation, bound)
    out = set()
    for values in product(elems, repeat=len(inst.variables)):
        asg = dict(zip(inst.variables, values))
        if evaluate(inst, asg).satisfied:
            out.add(tuple(asg[v] for v in onto))
    return out


def _projected_solution_set(original, derived, bound):
    """Solutions of the derived instance projected onto the original variables.

    Fresh variables introduced by the rewrite are definitionally determined,
    so each base assignment extends uniquely per disjunct.
    """
    elems = ball(original.presentation, bound)
    out = set()
    for values in product(elems, repeat=len(original.variables)):
        base = dict(zip(original.variables, values))
        for di in range(len(derived.disjuncts)):
            ext = forced_extension(derived, di, base)
            if ext is not None and disjunct_holds(derived, di, ext):
                out.add(tuple(base[v] for v in original.variables))
                break
    return out


def test_criterion_8_finite_ab_reduction(pentagon):
    rng = random.Random(88)
    for trial in range(20):
        inst = _pentagon_random_instance(rng, pentagon)
        reduced = reduce_finite_ab(inst)
        before = _solution_set(inst, 3, inst.variables)
        after = _projected_solution_set(inst, reduced, 3)
        assert before == after, f"trial {trial}"
    report(8, "20 random pentagon instances agree at bound 3")


def _flatten_random_instance(rng, p):
    names = ("X", "Y")

    def rand_const():
        raw = [(rng.choice(p.vertices), rng.choice([-1, 1]))
               for _ in range(rng.randrange(1, 3))]
        return normalize(p, raw)

    def rand_term(max_atoms):
        atoms = []
        for _ in range(rng.randrange(1, max_atoms + 1)):
            if rng.random() < 0.5:
                atoms.append(VarAtom(rng.choice(names), rng.random() < 0.4))
            else:
                w = rand_const()
                if not w.is_identity():
                    atoms.append(ConstAtom(w))
        return GroupTerm(tuple(atoms))

    eqs = tuple(rand_term(5) for _ in range(rng.randrange(1, 3)))
    cons = []
    if rng.random() < 0.5:
        cons.append(AbEq(rand_term(2), rand_term(2)))
    return Instance(p, names, (Disjunct(eqs, tuple(cons)),))


def test_criterion_9_flattening(f2):
    rng = random.Random(99)
    for trial in range(50):
        inst = _flatten_random_instance(rng, f2)
        flat = flatten(inst)
        for d in flat.disjuncts:
            assert all(is_short(t) for t in d.equations)
        before = _solution_set(inst, 3, inst.variables)
        after = _projected_solution_set(inst, flat, 3)
        assert before == after, f"trial {trial}"
    report(9, "50 random instances agree at bound 3 after flattening")


def test_criterion_10_linear_solver():
    paper1 = parse_linear_system("1 x_b -3 y_b = 0\n1 x_b 1 y_b = -1\n")
    paper2 = parse_linear_system("4 u = -1\n4 w = -1\n")
    assert solve_linear_system(paper1).status == "UNSAT"
    assert solve_linear_system(paper2).status == "UNSAT"

    rng = random.Random(1010)
    for trial in range(200):
        names = tuple(f"v{i}" for i in range(rng.randrange(1, 6)))
        target = [rng.randrange(-10, 11) for _ in names]
        rows = []
        for _ in range(rng.randrange(1, 6)):
            coeffs = {j: rng.randrange(-5, 6) for j in range(len(names))}
            total = sum(c * target[j] for j, c in coeffs.items())
            modulus = rng.choice([None, None, None, 2, 3, 4, 6, 12])
            rows.append((coeffs, total, modulus))
        sys_ = LinearSystem(names, tuple(rows))
        res = solve_linear_system(sys_)
        assert res.status == "SAT", f"trial {trial}"
        assert holds(sys_, res.witness), f"trial {trial}"
    report(10, "2 paper systems refuted; 200 planted systems solved with verified witnesses")
