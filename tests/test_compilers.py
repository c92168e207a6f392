import json
import random
from itertools import product

import pytest

from abelcon import cli, compilers
from abelcon.abelian import exponent_sum
from abelcon.compilers import (
    AtomizedH10,
    CompiledReduction,
    ConstDef,
    EqDef,
    H10Instance,
    Monomial,
    Polynomial,
    ProdDef,
    SumDef,
    atomize,
    compile_h10_free,
    compile_h10_raag,
    decode_solution,
    integers_into_free_interpretation,
    parse_h10,
    print_h10,
    reduce_finite_ab,
    rewrite_under_interpretation,
    witness_h10,
)
from abelcon.errors import (
    AbelianTarget,
    DecodeInconsistency,
    InfiniteAbelianisation,
    InvalidPresentation,
    NotAnIntegerSolution,
    NotASolution,
    NotFlattened,
    ParseError,
    RankTooSmall,
    RecipeError,
)
from abelcon.instances import (
    AbEq,
    Coset,
    Disjunct,
    GroupTerm,
    Instance,
    VarAtom,
    evaluate,
    flatten,
    parse_instance,
    print_instance,
    var_term,
)
from abelcon.search import WITNESS, search
from abelcon.words import Presentation, ball, format_word, parse_word

from .oracle import disjunct_holds, forced_extension


XY_EQ_Z = "1*x*y -1*z = 0"
X_PLUS_Y_5 = "1*x 1*y -5 = 0"


# ---------------------------------------------------------------------------
# polynomials and atomization


def test_h10_round_trip():
    h = parse_h10("1*x*y -1*z = 0\n2*x*x 1 = 0\n")
    assert parse_h10(print_h10(h)) == h
    assert h.variables() == ("x", "y", "z")


def test_h10_skips_comments_and_names_a_bad_line():
    text = "# x y = z\n1*x*y -1*z = 0  # the product\n\n0*w 2*x -4 = 0\n"
    h = parse_h10(text)
    assert h == parse_h10("1*x*y -1*z = 0\n2*x -4 = 0\n") and h.variables() == ("x", "y", "z")
    for bad, message in (("1*x -2", "polynomial line must end with '= 0'"),
                         ("1*x two*y = 0", "monomial must start with an integer: 'two*y'")):
        with pytest.raises(ParseError) as err:
            parse_h10(text.replace("0*w 2*x -4 = 0", bad))
        assert err.value.line == 4 and str(err.value) == f"{message} (line 4)"


def test_h10_evaluate():
    h = parse_h10(XY_EQ_Z)
    assert h.holds({"x": 2, "y": 3, "z": 6})
    assert not h.holds({"x": 2, "y": 3, "z": 7})


def test_atomize_single_product():
    a = atomize(parse_h10("1*x*y -6 = 0"))
    assert len(a.atoms) == 2
    assert isinstance(a.atoms[0], ProdDef)
    assert isinstance(a.atoms[1], ConstDef) and a.atoms[1].value == 6


def test_atomize_single_sum():
    a = atomize(parse_h10(X_PLUS_Y_5))
    assert len(a.atoms) == 2
    assert isinstance(a.atoms[0], SumDef)
    assert isinstance(a.atoms[1], ConstDef) and a.atoms[1].value == 5


def test_atomize_square_plus_one():
    # x^2 + 1 = z: product, constant, sum, then equality with z
    a = atomize(parse_h10("1*x*x 1 -1*z = 0"))
    kinds = [type(at).__name__ for at in a.atoms]
    assert kinds == ["ProdDef", "ConstDef", "SumDef", "EqDef"]
    assert a.atoms[3].right == "z"


def _extends(a, src):
    try:
        a.extend_solution(src)
    except NotAnIntegerSolution:
        return False
    return True


def test_atomize_equisatisfiable():
    h = parse_h10("1*x*y -1*z = 0\n1*x -1*y 1 = 0")
    a = atomize(h)
    B = 4
    for vals in product(range(-B, B + 1), repeat=3):
        src = dict(zip(("x", "y", "z"), vals))
        assert h.holds(src) == _extends(a, src), src


def test_extend_solution_consistency():
    h = parse_h10(XY_EQ_Z)
    a = atomize(h)
    full = a.extend_solution({"x": 2, "y": 3, "z": 6})
    for atom in a.atoms:
        if isinstance(atom, ConstDef):
            assert full[atom.var] == atom.value
        elif isinstance(atom, SumDef):
            assert full[atom.var] == full[atom.left] + full[atom.right]
        elif isinstance(atom, ProdDef):
            assert full[atom.var] == full[atom.left] * full[atom.right]
        else:
            assert full[atom.left] == full[atom.right]


# ---------------------------------------------------------------------------
# free-group compiler


@pytest.fixture(scope="module")
def fs():
    return Presentation.free(["s1", "s2"])


def test_compile_free_rejects_bad_targets(gamma1):
    h = parse_h10(XY_EQ_Z)
    with pytest.raises(RankTooSmall):
        compile_h10_free(h, Presentation.free(["s"]))
    with pytest.raises(RankTooSmall):
        compile_h10_free(h, gamma1)


@pytest.mark.parametrize("mode", ["pure-ab", "native-expsum"])
def test_compile_free_round_trip_236(fs, mode):
    cr = compile_h10_free(parse_h10(XY_EQ_Z), fs, mode=mode)
    asg = witness_h10(cr, {"x": 2, "y": 3, "z": 6})
    assert evaluate(cr.instance, asg).satisfied
    assert decode_solution(cr, asg) == {"x": 2, "y": 3, "z": 6}
    # the documented witness shape: b = s2^2, c = (s1 s2^2)^3 with |c|_s2 = 6
    b_vars = [v for v in cr.instance.variables if v.startswith("_b")]
    assert len(b_vars) == 1
    assert format_word(asg[b_vars[0]]) == "s2^2"
    c_vars = [v for v in cr.instance.variables if v.startswith("_c")]
    expected_c = parse_word(fs, "s1 s2^2") ** 3
    assert asg[c_vars[0]] == expected_c
    assert exponent_sum(fs, asg[c_vars[0]], "s2") == 6


def test_compile_free_zero_product(fs):
    cr = compile_h10_free(parse_h10(XY_EQ_Z), fs)
    asg = witness_h10(cr, {"x": 0, "y": 5, "z": 0})
    assert evaluate(cr.instance, asg).satisfied
    assert asg["A_x"].is_identity()


def test_compile_free_const_atom(fs):
    cr = compile_h10_free(parse_h10("1*x = 0"), fs)
    asg = witness_h10(cr, {"x": 0})
    assert asg["A_x"].is_identity()
    assert decode_solution(cr, asg) == {"x": 0}


def test_witness_rejects_non_solutions(fs):
    cr = compile_h10_free(parse_h10(XY_EQ_Z), fs)
    with pytest.raises(NotAnIntegerSolution):
        witness_h10(cr, {"x": 2, "y": 3, "z": 5})
    with pytest.raises(NotAnIntegerSolution):
        witness_h10(cr, {"x": 2, "y": 3})
    with pytest.raises(NotAnIntegerSolution, match="'w' is not a variable of the source system"):
        witness_h10(cr, {"x": 2, "y": 3, "z": 6, "w": 5})


def test_decode_rejects_non_solutions(fs):
    cr = compile_h10_free(parse_h10(XY_EQ_Z), fs)
    bad = {v: fs.identity() for v in cr.instance.variables}
    bad["A_x"] = parse_word(fs, "s1")
    with pytest.raises(NotASolution):
        decode_solution(cr, bad)


@pytest.fixture
def evaluate_calls(monkeypatch):
    """The assignments `compilers` checks with `evaluate`, in order."""
    calls = []

    def counted(inst, asg):
        calls.append(asg)
        return evaluate(inst, asg)

    monkeypatch.setattr(compilers, "evaluate", counted)
    return calls


@pytest.mark.parametrize("target", ["fs", "gamma1"])
def test_decode_checks_a_witness_changed_after_it_was_built(request, target):
    p = request.getfixturevalue(target)
    compile_ = compile_h10_free if target == "fs" else compile_h10_raag
    cr = compile_(parse_h10(XY_EQ_Z), p)
    asg = witness_h10(cr, {"x": 2, "y": 3, "z": 6})
    gvar, ref = cr.decode["z"]
    asg[gvar] = asg[gvar] * parse_word(p, ref)  # z read as 7
    assert not evaluate(cr.instance, dict(asg)).satisfied
    with pytest.raises(NotASolution):
        decode_solution(cr, asg)


def test_decode_skips_the_check_only_for_the_witness_just_checked(gamma1, evaluate_calls):
    cr = compile_h10_raag(parse_h10(XY_EQ_Z), gamma1)
    solution = {"x": 2, "y": 3, "z": 6}
    asg = witness_h10(cr, solution)
    assert evaluate_calls == [asg]
    assert decode_solution(cr, asg) == solution
    assert decode_solution(cr._replace(decode=dict(cr.decode)), asg) == solution
    assert evaluate_calls == [asg]
    # a copy, and the same dict with an equal instance that is another object
    assert decode_solution(cr, dict(asg)) == solution
    same = parse_instance(print_instance(cr.instance))
    assert same == cr.instance and same is not cr.instance
    assert decode_solution(cr._replace(instance=same), asg) == solution
    # a value changed and changed back leaves the same items: no check needed
    value = asg["A_x"]
    asg["A_x"] = gamma1.identity()
    asg["A_x"] = value
    assert decode_solution(cr, asg) == solution
    assert len(evaluate_calls) == 3
    # a later witness takes the slot over
    other = witness_h10(cr, {"x": 1, "y": 6, "z": 6})
    assert decode_solution(cr, asg) == solution
    assert decode_solution(cr, other) == {"x": 1, "y": 6, "z": 6}
    assert len(evaluate_calls) == 5


def test_cli_checks_each_assignment_once(tmp_path, capsys, gamma1, evaluate_calls):
    cr = compile_h10_raag(parse_h10(XY_EQ_Z), gamma1)
    inst, dec, asg = tmp_path / "c.inst", tmp_path / "c.dec", tmp_path / "asg.txt"
    inst.write_text(print_instance(cr.instance))
    dec.write_text(cr.sidecar_json())

    def run(*argv):
        code = cli.main([str(a) for a in argv])
        return code, capsys.readouterr().out

    assert run("verify", inst, dec, "--bound", "2", "--hint", "x=2,y=3,z=6") == (0, "(2,3,6)\nOK\n")
    assert len(evaluate_calls) == 1  # witness_h10's own
    code, out = run("witness", inst, dec, "--solution", "x=2,y=3,z=6")
    assert code == 0 and len(evaluate_calls) == 2
    asg.write_text(out)
    assert run("decode", inst, dec, "--assignment", asg) == (0, "x = 2\ny = 3\nz = 6\n")
    assert len(evaluate_calls) == 3  # an assignment read from a file is checked


@pytest.mark.parametrize("mode", ["pure-ab", "native-expsum"])
def test_compile_free_search_decodes(fs, mode):
    cr = compile_h10_free(parse_h10("1*x 1*y -2 = 0"), fs, mode=mode)
    report = search(cr.instance, 3)
    assert report.verdict == WITNESS
    decoded = decode_solution(cr, report.assignment)
    assert decoded["x"] + decoded["y"] == 2


def test_sidecar_round_trip(fs):
    cr = compile_h10_free(parse_h10(XY_EQ_Z), fs)
    text = cr.sidecar_json()
    inst2 = parse_instance(print_instance(cr.instance))
    cr2 = CompiledReduction.from_sidecar_json(text, inst2)
    asg = witness_h10(cr2, {"x": 1, "y": 4, "z": 4})
    assert decode_solution(cr2, asg) == {"x": 1, "y": 4, "z": 4}


def test_sidecar_is_compact_and_the_indented_layout_still_loads(fs):
    cr = compile_h10_free(parse_h10(XY_EQ_Z), fs)
    text = cr.sidecar_json()
    assert "\n" not in text
    doc = json.loads(text)
    inst2 = parse_instance(print_instance(cr.instance))
    for layout in (text, json.dumps(doc, indent=1)):  # the layout written before
        cr2 = CompiledReduction.from_sidecar_json(layout, inst2)
        assert (cr2.decode, cr2.recipes, cr2.atomized) == (cr.decode, cr.recipes, cr.atomized)


def test_a_v1_sidecar_still_loads(fs):
    """A v1 file also stores the atomization (`source_vars`, `all_vars`,
    `atoms`); the reader recomputes it and ignores those keys, even an atom
    of an unknown kind."""
    cr = compile_h10_free(parse_h10(XY_EQ_Z), fs)
    doc = json.loads(cr.sidecar_json())
    assert sorted(doc) == ["decode", "format", "h10", "mode", "recipes"]
    assert doc["format"] == "h10-reduction-sidecar-v2"
    v1 = dict(doc, format="h10-reduction-sidecar-v1", source_vars=["x", "y", "z"],
              all_vars=["x", "y", "z", "_p0"], atoms=[
                  {"kind": "prod", "var": "_p0", "left": "x", "right": "y"},
                  {"kind": "eq", "left": "_p0", "right": "z"},
                  {"kind": "product", "var": "_p1", "left": "x", "right": "x"}])
    inst2 = parse_instance(print_instance(cr.instance))
    cr2 = CompiledReduction.from_sidecar_json(json.dumps(v1), inst2)
    assert (cr2.decode, cr2.recipes, cr2.atomized) == (cr.decode, cr.recipes, cr.atomized)


def test_a_recipe_nested_too_deep_is_a_typed_error(fs):
    cr = compile_h10_free(parse_h10(XY_EQ_Z), fs)
    name, expr = cr.recipes[0]
    for _ in range(100_000):  # deeper than any recursion limit
        expr = {"op": "inv", "arg": expr}
    cr = cr._replace(recipes=((name, expr),) + cr.recipes[1:])
    with pytest.raises(RecipeError, match="cannot be evaluated"):
        witness_h10(cr, {"x": 1, "y": 4, "z": 4})
    doc = json.loads(compile_h10_free(parse_h10(XY_EQ_Z), fs).sidecar_json())
    doc["recipes"][0][1] = "@"
    nested = '{"op": "inv", "arg": ' * 100_000 + '{"op": "word", "text": "s1"}' + "}" * 100_000
    with pytest.raises(ParseError, match="malformed sidecar"):
        CompiledReduction.from_sidecar_json(json.dumps(doc).replace('"@"', nested), cr.instance)


def test_compiled_instance_text_round_trip(fs):
    cr = compile_h10_free(parse_h10(XY_EQ_Z), fs)
    text = print_instance(cr.instance)
    assert parse_instance(text) == cr.instance


# ---------------------------------------------------------------------------
# right-angled Artin compiler


def test_compile_raag_rejects_abelian():
    k3 = Presentation.raag("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(AbelianTarget):
        compile_h10_raag(parse_h10(XY_EQ_Z), k3)


def test_compile_raag_gamma1_witnesses(gamma1):
    cr = compile_h10_raag(parse_h10(XY_EQ_Z), gamma1)
    asg = witness_h10(cr, {"x": 1, "y": 1, "z": 1})
    assert evaluate(cr.instance, asg).satisfied
    # documented witness: b = d, c = a d (h1 = a, h2 = d)
    b_vars = [v for v in cr.instance.variables if v.startswith("_b")]
    assert format_word(asg[b_vars[0]]) == "d"
    c_vars = [v for v in cr.instance.variables if v.startswith("_c")]
    assert asg[c_vars[0]] == parse_word(gamma1, "a d")
    assert decode_solution(cr, asg) == {"x": 1, "y": 1, "z": 1}
    asg2 = witness_h10(cr, {"x": 1, "y": 2, "z": 2})
    assert decode_solution(cr, asg2) == {"x": 1, "y": 2, "z": 2}


def test_compile_raag_join_recurses():
    # c joined to both a and b: F2 x Z; the compiler works inside {a, b}
    f2xz = Presentation.raag("abc", [("a", "c"), ("b", "c")])
    cr = compile_h10_raag(parse_h10(XY_EQ_Z), f2xz)
    for _, term in enumerate_constants(cr.instance):
        assert term <= {"a", "b"}
    asg = witness_h10(cr, {"x": 2, "y": 1, "z": 2})
    assert decode_solution(cr, asg) == {"x": 2, "y": 1, "z": 2}


def enumerate_constants(inst):
    from abelcon.instances import ConstAtom
    for d in inst.disjuncts:
        for term in d.equations:
            for a in term.atoms:
                if isinstance(a, ConstAtom):
                    yield a, {v for v, _ in a.word.syllables}
        for con in d.constraints:
            if isinstance(con, AbEq):
                for t in (con.lhs, con.rhs):
                    for a in t.atoms:
                        if isinstance(a, ConstAtom):
                            yield a, {v for v, _ in a.word.syllables}


def test_compile_raag_weak_module_pair_of_size_two(gamma2):
    # weak modules {a, b} and {d}: exercises the diagonal relativization
    cr = compile_h10_raag(parse_h10(XY_EQ_Z), gamma2)
    asg = witness_h10(cr, {"x": 2, "y": 3, "z": 6})
    assert evaluate(cr.instance, asg).satisfied
    assert decode_solution(cr, asg) == {"x": 2, "y": 3, "z": 6}


def test_compile_raag_search_found_solutions_decode(gamma1):
    cr = compile_h10_raag(parse_h10(XY_EQ_Z), gamma1)
    report = search(cr.instance, 1)
    if report.verdict == WITNESS:
        decoded = decode_solution(cr, report.assignment)
        assert decoded["x"] * decoded["y"] == decoded["z"]


def test_compile_raag_free_target_matches_free_machinery(fxy):
    # a free group is a RAAG whose weak modules are the two singletons
    cr = compile_h10_raag(parse_h10(X_PLUS_Y_5), fxy)
    asg = witness_h10(cr, {"x": 2, "y": 3})
    assert decode_solution(cr, asg) == {"x": 2, "y": 3}


# ---------------------------------------------------------------------------
# finite abelianisation reduction


def test_reduce_finite_ab_single_var(pentagon):
    inst = parse_instance(
        "vars X\ndisjunct {\n  eq X X = 1\n  ab: X = ( a b )\n}\n",
        presentation=pentagon)
    red = reduce_finite_ab(inst)
    con = red.disjuncts[0].constraints[0]
    assert isinstance(con, Coset)
    assert con.variable == "X"
    assert con.rep == parse_word(pentagon, "a b")
    assert red.variables == inst.variables


def test_reduce_finite_ab_no_abeq_unchanged(pentagon):
    inst = parse_instance("vars X\ndisjunct {\n  eq X = 1\n}\n", presentation=pentagon)
    assert reduce_finite_ab(inst) == inst


def test_reduce_finite_ab_rejects_infinite(f2):
    inst = parse_instance("vars X\ndisjunct {\n  eq X = 1\n}\n", presentation=f2)
    with pytest.raises(InfiniteAbelianisation):
        reduce_finite_ab(inst)


def _solutions(inst, bound, onto):
    elems = ball(inst.presentation, bound)
    out = set()
    for values in product(elems, repeat=len(inst.variables)):
        asg = dict(zip(inst.variables, values))
        if evaluate(inst, asg).satisfied:
            out.add(tuple(asg[v] for v in onto))
    return out


def _reduced_solutions(original, reduced, bound):
    # fresh Z variables are determined by the originals, so extend directly
    elems = ball(original.presentation, bound)
    out = set()
    for values in product(elems, repeat=len(original.variables)):
        base = dict(zip(original.variables, values))
        for di in range(len(reduced.disjuncts)):
            ext = forced_extension(reduced, di, base)
            if ext is not None and disjunct_holds(reduced, di, ext):
                out.add(tuple(base[v] for v in original.variables))
                break
    return out


def test_reduce_finite_ab_preserves_solutions(pentagon):
    rng = random.Random(19)
    for _ in range(6):
        natoms = rng.randrange(1, 4)
        eq_atoms = []
        for _ in range(natoms):
            if rng.random() < 0.5:
                eq_atoms.append(("X", rng.random() < 0.5))
            else:
                eq_atoms.append((rng.choice("abcde"), None))
        pieces = [(name if inv is None else (name + ("^-1" if inv else "")))
                  for name, inv in eq_atoms]
        text = ("vars X Y\ndisjunct {\n  eq " + " ".join(pieces) +
                " Y^-1 = 1\n  ab: X Y = ( " +
                " ".join(rng.choice("abcde") for _ in range(2)) + " )\n}\n")
        inst = parse_instance(text, presentation=pentagon)
        red = reduce_finite_ab(inst)
        assert _solutions(inst, 2, inst.variables) == _reduced_solutions(inst, red, 2)


# ---------------------------------------------------------------------------
# interpretation rewriting


def test_rewrite_integers_into_free(f2):
    z = Presentation.free(["n"])
    interp = integers_into_free_interpretation(f2, "a", z)
    inst = parse_instance("vars X Y Z\ndisjunct {\n  eq X Y Z^-1 = 1\n}\n",
                          presentation=z)
    out = rewrite_under_interpretation(interp, inst)
    assert out.presentation == f2
    d = out.disjuncts[0]
    # three domain gadgets plus the translated multiplication
    comms = [t for t in d.equations if len(t.atoms) == 4]
    assert len(comms) == 3
    prods = [t for t in d.equations if len(t.atoms) == 3]
    assert prods == [GroupTerm((VarAtom("X"), VarAtom("Y"), VarAtom("Z", True)))]


def test_rewrite_requires_flattened(f2):
    z = Presentation.free(["n"])
    interp = integers_into_free_interpretation(f2, "a", z)
    inst = parse_instance("vars X Y Z W\ndisjunct {\n  eq X Y Z W = 1\n}\n",
                          presentation=z)
    with pytest.raises(NotFlattened):
        rewrite_under_interpretation(interp, inst)
    assert rewrite_under_interpretation(interp, flatten(inst))


Z_SYSTEM = """vars X Y
disjunct {
  eq X X Y^-1 = 1
  eq Y t^-3 = 1
}
disjunct {
  eq X X X Y^-1 = 1
  eq Y t^-3 = 1
}
"""


def test_rewrite_search_finds_the_s1_images_of_the_integer_witness():
    # over Z the first disjunct asks 2x = 3 and fails; the second gives x = 1
    z = Presentation.free(["t"])
    free = Presentation.free(["s1", "s2"])
    interp = integers_into_free_interpretation(free, "s1", z)
    inst = flatten(parse_instance(Z_SYSTEM, presentation=z))
    over_z = search(inst, 3)
    assert over_z.verdict == WITNESS and over_z.disjunct == 1
    out = rewrite_under_interpretation(interp, inst)
    assert out.presentation == free and out.variables == inst.variables == ("X", "Y", "_f0")
    report = search(out, 3)
    assert report.verdict == WITNESS and report.disjunct == 1
    assert report.assignment == {v: interp.map_constant(w) for v, w in over_z.assignment.items()}
    assert format_word(report.assignment["Y"]) == "s1^3"


def test_rewrite_refuses_constraints_and_foreign_instances():
    # the third refusal, an unflattened equation, is test_rewrite_requires_flattened's
    z = Presentation.free(["t"])
    interp = integers_into_free_interpretation(Presentation.free(["s1", "s2"]), "s1", z)
    constrained = parse_instance("vars X\ndisjunct {\n  eq X t = 1\n  len: 1 |X| = 1\n}\n",
                                 presentation=z)
    with pytest.raises(NotFlattened, match="constraint"):
        rewrite_under_interpretation(interp, constrained)
    foreign = parse_instance("vars X\ndisjunct {\n  eq X u = 1\n}\n",
                             presentation=Presentation.free(["u"]))
    with pytest.raises(InvalidPresentation, match="target"):
        rewrite_under_interpretation(interp, foreign)


def test_rewrite_constant_translation(f2):
    z = Presentation.free(["n"])
    interp = integers_into_free_interpretation(f2, "a", z)
    inst = parse_instance("vars X\ndisjunct {\n  eq X n^-3 = 1\n}\n", presentation=z)
    out = rewrite_under_interpretation(interp, inst)
    sols = _solutions(out, 3, ("X",))
    assert sols == {(parse_word(f2, "a^3"),)}


def test_rewrite_solution_enumeration_matches(f2):
    z = Presentation.free(["n"])
    interp = integers_into_free_interpretation(f2, "a", z)
    text = "vars X Y\ndisjunct {\n  eq X Y ( n n )^-1 = 1\n}\n"
    inst = parse_instance(text, presentation=z)
    direct = _solutions(inst, 2, ("X", "Y"))
    out = rewrite_under_interpretation(interp, flatten(inst))
    mapped = set()
    elems = ball(f2, 2)
    for values in product(elems, repeat=len(out.variables)):
        asg = dict(zip(out.variables, values))
        if evaluate(out, asg).satisfied:
            decoded = tuple(
                parse_word(z, "n") ** exponent_sum(f2, asg[v], "a") for v in ("X", "Y"))
            mapped.add(decoded)
    assert mapped == direct
