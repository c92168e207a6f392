import importlib
import importlib.util
import random
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

import abelcon.instances as instances_mod
from abelcon.abelian import solve_linear_system
from abelcon.compilers import compile_h10_free, compile_h10_raag, parse_h10
from abelcon.errors import (
    IncompleteAssignment,
    InfiniteAbelianisation,
    InvalidPresentation,
    ParseError,
    PresentationMismatch,
    UnknownVariable,
    UnknownVertex,
)
from abelcon.instances import (
    AbEq,
    ConstAtom,
    Coset,
    Disjunct,
    ExpSumEq,
    GroupTerm,
    Instance,
    LengthEq,
    VarAtom,
    abelian_shadow,
    commutator_term,
    const_term,
    disjunct_shadow,
    evaluate,
    flatten,
    is_short,
    parse_instance,
    print_instance,
    var_term,
)
from abelcon.words import Presentation, ball, parse_word

from .oracle import disjunct_holds, forced_extension


def W(p, text):
    return parse_word(p, text)


F2_HEADER = "graph {\n  vertex a inf\n  vertex b inf\n}\n"

X1_SQUARED = F2_HEADER + """
vars X1
disjunct {
  eq X1^2 ( a b a b )^-1 = 1
}
"""

PAPER_23 = F2_HEADER + """
vars X Y
disjunct {
  eq X a Y^2 b Y^-1 = 1
  %s
}
"""


def test_parse_x1_squared():
    inst = parse_instance(X1_SQUARED)
    assert inst.variables == ("X1",)
    assert len(inst.disjuncts) == 1
    d = inst.disjuncts[0]
    assert len(d.equations) == 1 and not d.constraints
    term = d.equations[0]
    assert term.atoms[0] == VarAtom("X1") and term.atoms[1] == VarAtom("X1")
    assert isinstance(term.atoms[2], ConstAtom)


def test_parse_rejects_empty_equations():
    with pytest.raises(ParseError):
        parse_instance(F2_HEADER + "vars X\ndisjunct {\n}\n")


def test_parse_ab_scalar_multiple():
    inst = parse_instance(F2_HEADER + "vars X Y\ndisjunct {\n  eq X = 1\n  ab: X = 3*Y\n}\n")
    con = inst.disjuncts[0].constraints[0]
    assert isinstance(con, AbEq)
    assert con.lhs == var_term("X")
    assert con.rhs.atoms == (VarAtom("Y"),) * 3


def test_parse_errors_have_lines():
    bad = F2_HEADER + "vars X\ndisjunct {\n  eq Z = 1\n}\n"
    with pytest.raises(ParseError):
        parse_instance(bad)
    with pytest.raises(ParseError):
        parse_instance(F2_HEADER + "vars X\nnonsense\n")
    for con in ("expsum: 1 |X|_a = 1 junk", "len: 1 |X| = 1 junk",
                "eq X 2* = 1", "ab: X = 2*", "eq 3* = 1", "eq X^ a^-1 = 1", "eq 2_0*X = 1",
                # errors of the words inside a term or a coset
                "eq X ( a c ) = 1", "eq X ( a^x ) = 1", "eq X ab^2 = 1", "coset: X in c * G'"):
        with pytest.raises(ParseError, match="line 8"):
            parse_instance(F2_HEADER + f"vars X\ndisjunct {{\n  eq X = 1\n  {con}\n}}\n")


def test_an_instance_built_with_an_undeclared_variable_is_refused():
    p = Presentation.free("ab")
    for d in (Disjunct((GroupTerm((VarAtom("X"), VarAtom("Y"))),), ()),
              Disjunct((), (ExpSumEq(((1, "Y", "a"),), 0),))):
        with pytest.raises(UnknownVariable, match="undeclared variable 'Y'"):
            Instance(p, ("X",), (d,))


def test_graph_block_errors_name_their_file_line():
    for bad, error, message in (
            ("vertex b 1x", ParseError, "bad vertex order '1x'"),
            ("vertx b inf", ParseError, "unrecognized graph line 'vertx b inf'"),
            ("edge a c", UnknownVertex, "edge (a, c) uses undeclared vertex"),
            ("edge a a", InvalidPresentation, "loop at vertex a"),
            ("vertex a 2", InvalidPresentation, "duplicate vertex a")):
        text = f"# a comment\n\ngraph {{\n  vertex a inf  # first\n  {bad}\n}}\nvars X\n"
        with pytest.raises(error) as err:
            parse_instance(text + "disjunct {\n  eq X = 1\n}\n")
        assert err.value.line == 5 and str(err.value) == f"{message} (line 5)"


def test_an_unterminated_block_names_the_line_that_opened_it():
    body = "vars X\ndisjunct {\n  eq X a = 1\n}\n"
    for text, line in ((F2_HEADER + "vars X\n\ndisjunct {\n  eq X a = 1\n", 7),
                       ("# a comment\ngraph {\n  vertex a inf\n", 2),
                       (F2_HEADER + body + "disjunct {\n  eq X = 1\n# } in a comment\n", 9)):
        with pytest.raises(ParseError, match="unterminated") as err:
            parse_instance(text)
        assert err.value.line == line
    with pytest.raises(ParseError, match="no equations section") as err:
        parse_instance(F2_HEADER + "vars X\ndisjunct {\n  # nothing\n}\n")
    assert err.value.line == 6


def test_instance_keywords_are_whole_tokens():
    glued = F2_HEADER + "varsX Y\ndisjunct {\n  eq Y = 1\n}\n"
    longer = F2_HEADER + "vars X\ndisjunctive {\n  eq X = 1\n}\n"
    for text, line in ((glued, 5), (longer, 6)):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == line
    inst = parse_instance(F2_HEADER + "vars X Y\ndisjunct {\n  eq X Y = 1\n}\n")
    assert inst.variables == ("X", "Y") and len(inst.disjuncts) == 1


def test_round_trip(tmp_path):
    text = F2_HEADER + """
vars X Y
disjunct {
  eq X a Y^2 b Y^-1 = 1
  ab: X = 3*Y
  expsum: 1 |X|_a -2 |Y|_a -1 |Y|_b = 0
  len: 1 |X| -1 |Y| = 2
}
disjunct {
  eq X Y ( a b ) = 1
}
"""
    inst = parse_instance(text)
    assert parse_instance(print_instance(inst)) == inst


REPEATED_CONSTANTS = """vars X Y
disjunct {
  eq X ( a b a^-1 ) Y ( a b a^-1 ) a^2 = 1
  eq Y a^2 X^-1 ( a b a^-1 )^2 b = 1
  ab: X ( a b a^-1 ) = 2*b a^2
}
disjunct {
  eq X ( a b a^-1 ) = 1 ; ab: X = -1*a^2
}
"""


def test_each_distinct_constant_is_normalised_once_per_parse(f2, monkeypatch):
    words_mod = importlib.import_module("abelcon.words")
    calls = Counter()

    def spy(name):
        real = getattr(words_mod, name)

        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(words_mod, name, wrapped)

    spy("normalize")
    spy("product")
    parsed = []
    for _ in range(2):  # a second parse shares no memo with the first
        calls.clear()
        parsed.append(parse_instance(REPEATED_CONSTANTS, presentation=f2))
        # ( a b a^-1 ), a^2, ( a b a^-1 )^2 and b. The products are the
        # square and the inverse of a^2 under -1*; the first power of
        # ( a b a^-1 ) is the word itself
        assert calls == {"normalize": 4, "product": 2}
    assert parsed[0] == parsed[1]
    eqs = parsed[0].disjuncts[0].equations
    assert eqs[0].atoms[1] == ConstAtom(W(f2, "a b a^-1"))
    assert eqs[1].atoms[3] == ConstAtom(W(f2, "a b^2 a^-1"))
    assert parsed[0].disjuncts[1].constraints[0].rhs.atoms == (ConstAtom(W(f2, "a^-2")),)


def test_a_later_vars_line_declares_more_variables(f2):
    text = "vars X\ndisjunct {\n  eq X a = 1\n}\nvars Y\ndisjunct {\n  eq X Y^-2 = 1\n}\n"
    inst = parse_instance(text, presentation=f2)
    assert inst.variables == ("X", "Y")
    assert inst.disjuncts[1].equations[0].atoms == (VarAtom("X"),) + (VarAtom("Y", True),) * 2


def test_constants_after_a_graph_section_are_words_of_its_group(f2):
    text = ("vars X\ndisjunct {\n  eq X a = 1\n}\ngraph {\n  vertex a 2\n}\n"
            "disjunct {\n  eq X a = 1\n}\n")
    inst = parse_instance(text, presentation=f2)
    first, second = (d.equations[0].atoms[1].word for d in inst.disjuncts)
    assert first.pres == f2 and second.pres == inst.presentation != f2


def test_a_bad_token_repeated_reports_its_first_line():
    for bad in ("c", "a^x", "( a )^x", "X^y"):
        text = F2_HEADER + f"vars X\ndisjunct {{\n  eq X {bad} = 1\n  eq {bad} X = 1\n}}\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == 7, bad


def _perfbench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_printed_benchmark_instances_reparse_and_reprint_unchanged():
    wl = _perfbench_workloads()
    texts = []
    for name, compile_ in (("h10_search", lambda h, p, r: compile_h10_free(h, p, r.mode)),
                           ("raag_roundtrip", lambda h, p, r: compile_h10_raag(h, p))):
        pool = wl.WORKLOADS[name].generate(7)
        pres = {g: Presentation.from_text(t) for g, t in pool.graphs.items()}
        for req in pool.requests:
            inst = compile_(parse_h10(req.text), pres[req.graph], req).instance
            texts.append(print_instance(inst))
    pool = wl.WORKLOADS["shadow_mixed"].generate(7)
    pres = {g: Presentation.from_text(t) for g, t in pool.graphs.items()}
    texts += [print_instance(parse_instance(req.text, presentation=pres[req.graph]))
              for req in pool.requests]
    assert len(texts) == 115 + 150 + 2400
    for text in texts:
        assert print_instance(parse_instance(text)) == text


def test_round_trip_group_file(tmp_path, gamma1):
    (tmp_path / "g.graph").write_text(gamma1.to_text())
    text = "group g.graph\nvars X\ndisjunct {\n  eq X a = 1\n}\n"
    inst = parse_instance(text, base_dir=str(tmp_path))
    assert inst.presentation == gamma1
    assert inst.graph_ref == "g.graph"
    assert parse_instance(print_instance(inst), base_dir=str(tmp_path)) == inst


def test_a_group_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    (tmp_path / "g.graph").write_bytes(b"vertex a inf\nvertex \xff b inf\n")
    text = "group g.graph\nvars X\ndisjunct {\n  eq X a = 1\n}\n"
    with pytest.raises(ParseError, match="cannot read graph file"):
        parse_instance(text, base_dir=str(tmp_path))


def test_coset_requires_finite_ab(pentagon, f2):
    text = "vars X\ndisjunct {\n  eq X = 1\n  coset: X in a b * G'\n}\n"
    inst = parse_instance(text, presentation=pentagon)
    assert isinstance(inst.disjuncts[0].constraints[0], Coset)
    with pytest.raises(InfiniteAbelianisation):
        parse_instance(text, presentation=f2)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_x1_squared(f2):
    inst = parse_instance(X1_SQUARED)
    good = evaluate(inst, {"X1": W(inst.presentation, "a b")})
    assert good and good.disjunct == 0
    bad = evaluate(inst, {"X1": W(inst.presentation, "a")})
    assert not bad and bad.disjunct is None  # its one equation, and nothing else, fails


def test_evaluate_paper_length_item(f2):
    inst = parse_instance(PAPER_23 % "len: 1 |X| -1 |Y| = 2")
    p = inst.presentation
    res = evaluate(inst, {"X": W(p, "b^-1 a^-1"), "Y": p.identity()})
    assert res.satisfied


def test_evaluate_incomplete(f2):
    inst = parse_instance(X1_SQUARED)
    with pytest.raises(IncompleteAssignment):
        evaluate(inst, {})


def test_evaluate_representative_invariance(gamma1):
    inst = parse_instance("vars X\ndisjunct {\n  eq X ( b a c ) = 1\n}\n",
                          presentation=gamma1)
    v1 = parse_word(gamma1, "c^-1 a^-1 b^-1")
    assert evaluate(inst, {"X": v1}).satisfied
    # same element spelled differently (b a b^-1 collapses because a, b commute)
    w1 = parse_word(gamma1, "b a b^-1 c")
    w2 = parse_word(gamma1, "a c")
    assert w1 == w2
    inst2 = parse_instance("vars X\ndisjunct {\n  eq X ( a c )^-1 = 1\n}\n",
                           presentation=gamma1)
    assert evaluate(inst2, {"X": w1}).satisfied


# ---------------------------------------------------------------------------
# flattening


def test_flatten_long_equation(f2):
    # x y z = 1 splits into w = x y and w z = 1
    inst = parse_instance(F2_HEADER + "vars x y z\ndisjunct {\n  eq x y z = 1\n}\n")
    flat = flatten(inst)
    d = flat.disjuncts[0]
    assert all(is_short(t) for t in d.equations)
    assert flat.variables == ("x", "y", "z", "_f0")
    assert d.equations == (
        GroupTerm((VarAtom("x"), VarAtom("y"), VarAtom("_f0", True))),
        GroupTerm((VarAtom("_f0"), VarAtom("z"))),
    )
    inst4 = parse_instance(F2_HEADER + "vars x y z w\ndisjunct {\n  eq x y z w = 1\n}\n")
    flat4 = flatten(inst4)
    assert "_f0" in flat4.variables
    assert all(is_short(t) for t in flat4.disjuncts[0].equations)


def test_flatten_short_unchanged(f2):
    inst = parse_instance(F2_HEADER + "vars x y\ndisjunct {\n  eq x y^-1 = 1\n}\n")
    assert flatten(inst) == inst


def test_flatten_abeq_argument(f2):
    inst = parse_instance(
        F2_HEADER + "vars X Y Z\ndisjunct {\n  eq X = 1\n  ab: X Y = Z\n}\n")
    flat = flatten(inst)
    con = flat.disjuncts[0].constraints[0]
    assert isinstance(con, AbEq)
    assert con.lhs == var_term("_f0")
    assert con.rhs == var_term("Z")


def _solution_set(inst, bound, variables):
    elems = ball(inst.presentation, bound)
    sols = set()
    for values in product(elems, repeat=len(inst.variables)):
        asg = dict(zip(inst.variables, values))
        if evaluate(inst, asg):
            sols.add(tuple(asg[v] for v in variables))
    return sols


def _projected_flat_solutions(inst, flat, bound):
    elems = ball(inst.presentation, bound)
    sols = set()
    for values in product(elems, repeat=len(inst.variables)):
        base = dict(zip(inst.variables, values))
        for di in range(len(flat.disjuncts)):
            ext = forced_extension(flat, di, base)
            if ext is not None and disjunct_holds(flat, di, ext):
                sols.add(tuple(base[v] for v in inst.variables))
                break
    return sols


def _random_instance(rng, p, nvars=2, const_len=2):
    names = ["X", "Y"][:nvars]
    letters = [v for v in p.vertices]

    def rand_term(max_atoms):
        atoms = []
        for _ in range(rng.randrange(1, max_atoms + 1)):
            if rng.random() < 0.5:
                atoms.append(VarAtom(rng.choice(names), rng.random() < 0.4))
            else:
                raw = [(rng.choice(letters), rng.choice([-1, 1]))
                       for _ in range(rng.randrange(1, const_len + 1))]
                w = parse_word(p, " ".join(f"{v}^{e}" for v, e in raw))
                if not w.is_identity():
                    atoms.append(ConstAtom(w))
        return GroupTerm(tuple(atoms))

    eqs = tuple(rand_term(5) for _ in range(rng.randrange(1, 3)))
    cons = []
    if rng.random() < 0.7:
        cons.append(AbEq(rand_term(3), rand_term(3)))
    return Instance(p, tuple(names), (Disjunct(eqs, tuple(cons)),))


def test_flatten_preserves_solution_sets(f2):
    rng = random.Random(13)
    for _ in range(12):
        inst = _random_instance(rng, f2)
        flat = flatten(inst)
        assert _solution_set(inst, 2, inst.variables) == _projected_flat_solutions(inst, flat, 2)


# ---------------------------------------------------------------------------
# abelian shadow


def test_shadow_simple_sat(f2):
    inst = parse_instance(F2_HEADER + "vars X\ndisjunct {\n  eq X = 1\n}\n")
    systems = abelian_shadow(inst)
    assert len(systems) == 1
    assert solve_linear_system(systems[0]).status == "SAT"


def test_shadow_paper_items_unsat():
    item3 = parse_instance(PAPER_23 % "ab: X = 3*Y")
    assert solve_linear_system(abelian_shadow(item3)[0]).status == "UNSAT"
    item2 = parse_instance(
        PAPER_23 % "expsum: 1 |X|_a -2 |Y|_a -1 |Y|_b = 0 ; expsum: 1 |X|_b -3 |Y|_b = 0")
    assert solve_linear_system(abelian_shadow(item2)[0]).status == "UNSAT"


def test_shadow_columns_with_equal_names_stay_apart():
    """X = b solves it; the shadow names both ab(eq0) at lam0 and the
    multiplier of the centralizer generator of b `eq0.lam0`, and solves
    them as the two columns they are."""
    inst = parse_instance("graph {\n  vertex lam0 inf\n  vertex b inf\n}\nvars eq0\n"
                          "disjunct {\n  eq eq0 b eq0^-1 b^-1 = 1\n  ab: eq0 = b\n}\n")
    shadow, = abelian_shadow(inst)
    assert shadow.names == ("eq0.lam0", "eq0.b", "eq0.lam0")
    assert solve_linear_system(shadow).status == "SAT"


@pytest.mark.parametrize("names", ["xy", "ab"])
def test_shadow_refuses_a_constant_over_another_presentation(gamma1, names):
    other = Presentation.free(names)
    term = GroupTerm((VarAtom("X"), ConstAtom(parse_word(other, names[0]))))
    inst = Instance(gamma1, ("X",), (Disjunct((term,), ()),))
    with pytest.raises(PresentationMismatch):
        abelian_shadow(inst)


def test_shadow_soundness_exhaustive(f2):
    rng = random.Random(17)
    for _ in range(15):
        inst = _random_instance(rng, f2)
        shadow = abelian_shadow(inst)[0]
        if solve_linear_system(shadow).status == "UNSAT":
            assert not _solution_set(inst, 2, inst.variables)


def test_shadow_refuted_paper_item_has_no_solutions_at_bound_4():
    inst = parse_instance(PAPER_23 % "ab: X = 3*Y")
    assert solve_linear_system(abelian_shadow(inst)[0]).status == "UNSAT"
    assert not _solution_set(inst, 4, inst.variables)


def test_shadow_centralizer_bug_is_not_swallowed(f2, monkeypatch):
    # no error from the centralizer description is caught: it propagates
    def broken(p, w):
        raise AssertionError("centralizer generators do not commute with w")

    monkeypatch.setattr(instances_mod, "centralizer_generators", broken)
    d = Disjunct((commutator_term("X", W(f2, "a b")),), ())
    with pytest.raises(AssertionError):
        disjunct_shadow(f2, d, ("X",))


def test_shadow_torsion_congruences(pentagon):
    # X must map to ab = (1,1,0,0,0); X = a b works, X = a does not
    inst = parse_instance(
        "vars X\ndisjunct {\n  eq X X = 1\n  ab: X = ( a b )\n}\n",
        presentation=pentagon)
    systems = abelian_shadow(inst)
    res = solve_linear_system(systems[0])
    assert res.status == "SAT"
    for var, value in res.witness.items():
        if var.startswith("X."):
            assert value % 2 == (1 if var in ("X.a", "X.b") else 0)
