import json
import sys
from types import SimpleNamespace

import pytest

import abelcon.cli as cli
from abelcon.cli import main
from abelcon.compilers import decode_solution
from abelcon.errors import DecodeInconsistency, IntegerTooLong

GAMMA1 = """vertex a inf
vertex b inf
vertex c inf
vertex d inf
edge a b
edge b c
edge c d
"""

GAMMA2 = """vertex a inf
vertex b inf
vertex c inf
vertex d inf
edge a b
edge a c
edge b c
edge c d
"""

F2 = "vertex a inf\nvertex b inf\n"


@pytest.fixture()
def files(tmp_path):
    (tmp_path / "gamma1.graph").write_text(GAMMA1)
    (tmp_path / "gamma2.graph").write_text(GAMMA2)
    (tmp_path / "f2.graph").write_text(F2)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(files, capsys):
    code, out, _ = run(capsys, "normalize", files / "gamma1.graph", "a", "b", "a^-1")
    assert code == 0 and out == "b\n"


def test_length_and_absum(files, capsys):
    code, out, _ = run(capsys, "length", files / "gamma1.graph", "a", "c")
    assert code == 0 and out == "2\n"
    code, out, _ = run(capsys, "absum", files / "f2.graph", "a", "a b a^-1 b^2")
    assert code == 0 and out == "0\n"


def test_weak_modules_output(files, capsys):
    code, out, _ = run(capsys, "weak-modules", files / "gamma1.graph")
    assert code == 0 and out == "{a}\n{d}\n"
    code, out, _ = run(capsys, "weak-modules", files / "gamma2.graph")
    assert code == 0 and out == "{a,b}\n{d}\n"


def test_decompose(files, capsys):
    (files / "edge.graph").write_text("vertex a inf\nvertex b inf\nedge a b\n")
    code, out, _ = run(capsys, "decompose", files / "edge.graph")
    assert code == 0 and out == "{a}\n{b}\n"


def test_centralizer(files, capsys):
    code, out, _ = run(capsys, "centralizer", files / "gamma1.graph", "a")
    assert code == 0
    assert out == "conjugator 1\ncyclic a exponent 1\nlink {b}\n"


PENTAGON = "".join(f"vertex {v} 2\n" for v in "abcde") + "edge a b\nedge b c\nedge c d\nedge d e\nedge e a\n"
MIXED = "vertex p 3\nvertex q 4\nvertex r inf\nvertex t inf\nedge p r\nedge q t\nedge r t\n"


@pytest.mark.parametrize("graph, word, expected", [
    (PENTAGON, "a c a c", "conjugator 1\ncyclic a c exponent 2\nlink {b}\n"),
    (MIXED, "q p q q p q", "conjugator 1\ncyclic q p q exponent 2\nlink {}\n"),
], ids=["pentagon", "mixed"])
def test_centralizer_on_finite_order_support(files, capsys, graph, word, expected):
    (files / "torsion.graph").write_text(graph)
    assert run(capsys, "centralizer", files / "torsion.graph", *word.split())[:2] == (0, expected)


def test_centralizer_of_a_long_primitive_word(files, capsys):
    code, out, _ = run(capsys, "centralizer", files / "f2.graph", "a", "b^39")
    assert code == 0
    assert out == "conjugator 1\ncyclic a b^39 exponent 1\nlink {}\n"


@pytest.mark.parametrize("copies", [1, 2])
def test_centralizer_with_300_digit_exponents(files, capsys, copies):
    """The root search is bounded by the syllables, not the exponents."""
    m = "8" * 300
    code, out, _ = run(capsys, "centralizer", files / "f2.graph", *[f"a^{m}", f"b^{m}"] * copies)
    assert code == 0
    assert out == f"conjugator 1\ncyclic a^{m} b^{m} exponent {copies}\nlink {{}}\n"


@pytest.mark.parametrize("line", ["varsX Y", "disjunctive {"])
def test_glued_instance_keyword_exits_3(files, capsys, line):
    inst = files / "glued.inst"
    inst.write_text(f"group f2.graph\nvars Y\n{line}\n  eq Y = 1\n}}\n")
    code, out, err = run(capsys, "solve", inst, "--bound", "1")
    assert code == 3 and out == "" and err.startswith("error: ") and "(line 3)" in err


def test_solve_witness(files, capsys):
    inst = files / "x1.inst"
    inst.write_text("group f2.graph\nvars X1\ndisjunct {\n  eq X1^2 ( a b a b )^-1 = 1\n}\n")
    code, out, err = run(capsys, "solve", inst, "--bound", "2")
    assert code == 0
    assert out == "X1 = a b\n"
    assert err.startswith("stats nodes=")


def test_solve_more_variables_than_the_recursion_limit(files, capsys):
    inst = files / "many.inst"
    names = " ".join(f"X{i}" for i in range(1200))
    inst.write_text(f"group f2.graph\nvars {names}\ndisjunct {{\n  eq X0 = 1\n}}\n")
    code, out, _ = run(capsys, "solve", inst, "--bound", "0")
    assert code == 0
    assert out == "".join(f"X{i} = 1\n" for i in range(1200))


def test_solve_unsat_by_shadow(files, capsys):
    inst = files / "item3.inst"
    inst.write_text("group f2.graph\nvars X Y\ndisjunct {\n"
                    "  eq X a Y^2 b Y^-1 = 1\n  ab: X = 3*Y\n}\n")
    code, out, _ = run(capsys, "solve", inst, "--bound", "4")
    assert code == 1 and "UNSAT" in out


def test_solve_unknown(files, capsys):
    inst = files / "hard.inst"
    inst.write_text("group f2.graph\nvars X\ndisjunct {\n  eq X X ( a^2 b^2 )^-1 = 1\n}\n")
    code, out, _ = run(capsys, "solve", inst, "--bound", "2")
    assert code == 2 and "no solution up to bound 2" in out


ORDER_TWO = ("graph {\n  vertex a 2\n  vertex b 2\n  vertex c 2\n}\nvars X Y\ndisjunct {\n"
             "  eq X X^-1 = 1\n  eq Y Y^-1 = 1\n")


@pytest.mark.parametrize("lhs, y_terms", [("X Y Y", " 2 Y.{}"), ("X", "")])
def test_a_term_zero_mod_k_does_not_delay_its_row(files, capsys, lhs, y_terms):
    """Over vertices of order 2, Y's terms in ab: X Y Y = a are 2 Y.v, which
    add 0 mod 2: the walk checks each row where X gets its value, in as few
    nodes as for ab: X = a, and the shadow still prints every term."""
    inst = files / "order2.inst"
    inst.write_text(ORDER_TWO + f"  ab: {lhs} = ( a )\n}}\n")
    code, out, err = run(capsys, "solve", inst, "--bound", "2")
    assert (code, out) == (0, "X = a\nY = 1\n")
    assert err.startswith("stats nodes=2 ")
    rows = "".join(f"1 X.{v}{y_terms.format(v)} = {const} mod 2\n"
                   for v, const in (("a", -1), ("b", 0), ("c", 0)))
    assert run(capsys, "shadow", inst)[:2] == (0, "disjunct 0: SAT\n" + rows)


def test_flatten_and_shadow(files, capsys):
    inst = files / "long.inst"
    inst.write_text("group f2.graph\nvars X Y Z W\ndisjunct {\n  eq X Y Z W = 1\n}\n")
    code, out, _ = run(capsys, "flatten", inst)
    assert code == 0 and "_f0" in out
    code, out, _ = run(capsys, "shadow", inst)
    assert code == 0 and out.startswith("disjunct 0: SAT")


def test_usage_error_exit_code(files, capsys):
    assert main(["solve"]) == 3
    capsys.readouterr()


def test_unknown_file_exit_code(files, capsys):
    code, _, err = run(capsys, "normalize", files / "missing.graph", "a")
    assert code == 3 and "error" in err


@pytest.mark.parametrize("argv", [
    ("normalize", "{bad}", "a"),
    ("shadow", "{bad}"),
    ("shadow", "{group_ref}"),
    ("compile-h10", "{bad}", "--target", "{f2}", "--out", "{out}", "--sidecar", "{out}"),
    ("decode", "{inst}", "{dec}", "--assignment", "{bad}"),
], ids=["graph", "instance", "group-file", "h10", "assignment"])
def test_a_file_that_is_not_utf8_is_an_error(files, capsys, argv):
    bad = files / "bad.txt"
    bad.write_bytes(b"vertex a inf\nvertex \xff b inf\n")
    group_ref = files / "ref.inst"
    group_ref.write_text("group bad.txt\nvars X\ndisjunct {\n  eq X a = 1\n}\n")
    inst, dec = _compiled_sum(files, capsys)
    paths = dict(bad=bad, group_ref=group_ref, f2=files / "f2.graph", out=files / "out",
                 inst=inst, dec=dec, asg=files / "asg.txt")
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_compile_verify_pipeline(files, capsys):
    h10 = files / "xyz.h10"
    h10.write_text("1*x*y -1*z = 0\n")
    code, out, _ = run(capsys, "compile-h10", h10, "--target", files / "f2.graph",
                       "--out", files / "compiled.inst", "--sidecar", files / "compiled.dec")
    assert code == 0
    code, out, err = run(capsys, "verify", files / "compiled.inst", files / "compiled.dec",
                         "--bound", "2", "--hint", "x=2,y=3,z=6")
    assert code == 0
    assert out.splitlines()[0] == "(2,3,6)"
    assert out.splitlines()[-1] == "OK"


def test_verify_rejects_a_hint_naming_no_source_variable(files, capsys):
    inst, dec = _compiled_sum(files, capsys)
    code, out, err = run(capsys, "verify", inst, dec, "--bound", "3", "--hint", "x=2,y=3,z=1")
    assert (code, out, err) == (3, "", "error: 'z' is not a variable of the source system\n")


def test_witness_rejects_a_solution_naming_no_source_variable(files, capsys):
    inst, dec = _compiled_sum(files, capsys)
    code, out, err = run(capsys, "witness", inst, dec, "--solution", "x=2,y=3,w=5")
    assert (code, out, err) == (3, "", "error: 'w' is not a variable of the source system\n")


def test_witness_and_decode_commands(files, capsys):
    h10 = files / "sum.h10"
    h10.write_text("1*x 1*y -5 = 0\n")
    run(capsys, "compile-h10", h10, "--target", files / "f2.graph",
        "--out", files / "s.inst", "--sidecar", files / "s.dec")
    code, out, _ = run(capsys, "witness", files / "s.inst", files / "s.dec",
                       "--solution", "x=2,y=3")
    assert code == 0
    (files / "asg.txt").write_text(out)
    code, out, _ = run(capsys, "decode", files / "s.inst", files / "s.dec",
                       "--assignment", files / "asg.txt")
    assert code == 0
    assert out == "x = 2\ny = 3\n"


def _rewrite_decode(dec, change):
    doc = json.loads(dec.read_text())
    change(doc["decode"])
    dec.write_text(json.dumps(doc))


def test_verify_fails_a_hint_that_decodes_to_other_values(files, capsys):
    """x + y = 5 with x read off A_y and y off A_x: the hint's witness
    decodes to x = 3, y = 2, which solves the source but is not the hint."""
    inst, dec = _compiled_sum(files, capsys)
    _rewrite_decode(dec, lambda m: m.update(x=m["y"], y=m["x"]))
    code, out, err = run(capsys, "verify", inst, dec, "--bound", "2", "--hint", "x=2,y=3")
    assert (code, out, err) == (1, "", "FAIL: decoded hint mismatch\n")


def test_decode_refuses_values_that_fail_the_source(files, capsys):
    """x + y = 5 with both read off A_x: a witness of x = 2, y = 3 decodes to
    2 + 2, so decode raises DecodeInconsistency and exits 3."""
    inst, dec = _compiled_sum(files, capsys)
    _, out, _ = run(capsys, "witness", inst, dec, "--solution", "x=2,y=3")
    asg = files / "asg.txt"
    asg.write_text(out)
    _rewrite_decode(dec, lambda m: m.update(y=m["x"]))
    cr = cli._load_reduction(str(inst), str(dec))
    with pytest.raises(DecodeInconsistency):
        decode_solution(cr, cli._parse_assignment(cr.instance, out))
    code, out, err = run(capsys, "decode", inst, dec, "--assignment", asg)
    assert (code, out) == (3, "")
    assert err.startswith("error: decoded values {'x': 2, 'y': 2} fail the source system")


def test_decode_of_a_value_too_long_to_print_is_an_input_error(files, capsys):
    """x = y over F(s1, s2), expsum mode: A_x = s1^x, so s1^N s1^N decodes to
    2N, one digit more than the interpreter converts to text."""
    (files / "fs.graph").write_text("vertex s1 inf\nvertex s2 inf\n")
    (files / "eq.h10").write_text("1*x -1*y = 0\n")
    inst, dec, asg = files / "eq.inst", files / "eq.dec", files / "asg.txt"
    code, _, _ = run(capsys, "compile-h10", files / "eq.h10", "--target", files / "fs.graph",
                     "--out", inst, "--sidecar", dec, "--mode", "native-expsum")
    assert code == 0
    limit = sys.get_int_max_str_digits()
    n = "9" * limit
    asg.write_text(f"A_x = s1^{n} s1^{n}\nA_y = s1^{n} s1^{n}\n")
    code, out, err = run(capsys, "decode", inst, dec, "--assignment", asg)
    assert (code, out, err) == (3, "", f"error: integer of more than {limit} digits\n")
    # verify prints its decoded tuple the same way
    cr = SimpleNamespace(atomized=SimpleNamespace(source_vars=["x"]))
    with pytest.raises(IntegerTooLong):
        cli._decoded_tuple(cr, {"x": 2 * int(n)})


def test_assignment_files_take_comments_and_name_bad_lines(files, capsys):
    inst, dec = _compiled_sum(files, capsys)
    _, out, _ = run(capsys, "witness", inst, dec, "--solution", "x=2,y=3")
    asg = files / "asg.txt"
    asg.write_text(out)
    _, plain, _ = run(capsys, "decode", inst, dec, "--assignment", asg)
    lines = out.splitlines()
    asg.write_text("# from witness\n\n" + "".join(f"{line}  # value {i}\n"
                                                  for i, line in enumerate(lines)))
    code, commented, _ = run(capsys, "decode", inst, dec, "--assignment", asg)
    assert (code, commented) == (0, plain) and plain == "x = 2\ny = 3\n"
    for bad, message in (("A_x a", "bad assignment line 'A_x a'"),
                         ("A_x = a c", "unknown vertex in token 'c'"),
                         ("A_x = a", "'A_x' is given twice"),
                         ("NotAVar = a", "'NotAVar' is not a variable of the instance")):
        asg.write_text("# from witness\n\n" + "\n".join([lines[0], bad] + lines[2:]) + "\n")
        code, out, err = run(capsys, "decode", inst, dec, "--assignment", asg)
        assert (code, out) == (3, "")
        assert err == f"error: {message} (line 4)\n"


@pytest.mark.parametrize("h10, code, out, failure", [
    ("1*x -1 = 0\n", 0, "(1)\nOK\n", []),
    ("1*x -1 = 0\n1*x -2 = 0\n", 1, "", ["FAIL: compiled instance has unsatisfiable shadow"]),
], ids=["witness", "unsat-shadow"])
def test_verify_without_a_hint_searches(files, capsys, h10, code, out, failure):
    (files / "one.h10").write_text(h10)
    inst, dec = files / "one.inst", files / "one.dec"
    run(capsys, "compile-h10", files / "one.h10", "--target", files / "f2.graph",
        "--out", inst, "--sidecar", dec)
    got_code, got_out, err = run(capsys, "verify", inst, dec, "--bound", "2")
    assert (got_code, got_out) == (code, out)
    assert err.startswith("stats nodes=") and err.splitlines()[1:] == failure


def test_compile_h10_raag_refuses_a_coxeter_target(files, capsys):
    (files / "one.h10").write_text("1*x -1 = 0\n")
    (files / "cox.graph").write_text("vertex a 2\nvertex b 2\nedge a b\n")
    code, out, err = run(capsys, "compile-h10-raag", files / "one.h10",
                         "--target", files / "cox.graph",
                         "--out", files / "r.inst", "--sidecar", files / "r.dec")
    assert (code, out, err) == (3, "", "error: target must be a right-angled Artin presentation\n")


def test_compile_raag_cli(files, capsys):
    h10 = files / "xyz.h10"
    h10.write_text("1*x*y -1*z = 0\n")
    code, out, _ = run(capsys, "compile-h10-raag", h10, "--target", files / "gamma1.graph",
                       "--out", files / "r.inst", "--sidecar", files / "r.dec")
    assert code == 0
    code, out, _ = run(capsys, "verify", files / "r.inst", files / "r.dec",
                       "--bound", "1", "--hint", "x=1,y=1,z=1")
    assert code == 0
    assert out.splitlines()[0] == "(1,1,1)"
    assert out.splitlines()[-1] == "OK"


def test_verify_with_a_passing_hint_does_not_search(files, capsys, monkeypatch):
    inst, dec = _compiled_sum(files, capsys)
    calls = []
    real = cli.search

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "search", spy)
    code, out, _ = run(capsys, "verify", inst, dec, "--bound", "1", "--hint", "x=2,y=3")
    assert (code, out) == (0, "(2,3)\nOK\n")
    assert calls == []
    code, out, err = run(capsys, "verify", inst, dec, "--bound", "-1", "--hint", "x=2,y=3")
    assert code == 3 and out == "" and err == "error: radius -1 outside 0..12\n"
    code, out, err = run(capsys, "verify", inst, dec, "--bound", "1", "--cap", "0",
                         "--hint", "x=2,y=3")
    assert code == 3 and err == "error: radius 1 outside 0..0\n"
    assert calls == []
    code, _, err = run(capsys, "verify", inst, dec, "--bound", "1")
    assert len(calls) == 1 and err.startswith("stats nodes=")


def test_reduce_finite_ab_cli(files, capsys):
    pent = files / "pent.graph"
    pent.write_text("vertex a 2\nvertex b 2\nvertex c 2\nvertex d 2\nvertex e 2\n"
                    "edge a b\nedge b c\nedge c d\nedge d e\nedge e a\n")
    inst = files / "coset.inst"
    inst.write_text("group pent.graph\nvars X\ndisjunct {\n  eq X X = 1\n  ab: X = ( a b )\n}\n")
    code, out, _ = run(capsys, "reduce-finite-ab", inst)
    assert code == 0 and "coset: X in a b * G'" in out
    # --out writes the same text and prints nothing
    assert run(capsys, "reduce-finite-ab", inst, "--out", files / "reduced.inst") == (0, "", "")
    assert (files / "reduced.inst").read_text() == out


# Inputs and outputs of the shadow and reduce-finite-ab commands, recorded
# once; they cover lattice rows, mod-k constants, a cancelled variable, an
# expsum: row whose repeated coefficient sums to 0, and coset rows.
GOLDEN_MIXED = ('graph {\n'
                '  vertex p 3\n'
                '  vertex q 4\n'
                '  vertex r inf\n'
                '  vertex t inf\n'
                '  edge p r\n'
                '  edge q t\n'
                '  edge r t\n'
                '}\n'
                'vars X Y\n'
                'disjunct {\n'
                '  eq X r X^-1 r^-1 = 1\n'
                '  eq X Y ( p q^2 ) = 1\n'
                '  ab: X X^-1 Y = ( p^-1 q r^3 )\n'
                '  ab: X ( p q ) = ( q^-1 t ) Y^-1\n'
                '  expsum: 2 |X|_r -1 |Y|_t 1 |X|_r -3 |X|_r = 4\n'
                '  len: 1 |X| -1 |Y| = 1\n'
                '}\n'
                'disjunct {\n'
                '  eq X Y^-1 = 1\n'
                '  expsum: 1 |Y|_t = -2\n'
                '}\n')
GOLDEN_PENTAGON = ('graph {\n'
                   '  vertex a 2\n'
                   '  vertex b 2\n'
                   '  vertex c 2\n'
                   '  vertex d 2\n'
                   '  vertex e 2\n'
                   '  edge a b\n'
                   '  edge b c\n'
                   '  edge c d\n'
                   '  edge d e\n'
                   '  edge e a\n'
                   '}\n'
                   'vars X Y\n'
                   'disjunct {\n'
                   '  eq X X = 1\n'
                   '  ab: X Y = ( a c d )\n'
                   "  coset: Y in b e * G'\n"
                   '  len: 2 |X| -1 |Y| = 0\n'
                   '}\n')
# [X, w] with w of finite-order support: no lattice rows
GOLDEN_PENTAGON_COMMUTATOR = ('graph {\n'
                              + "".join(f"  {line}\n" for line in PENTAGON.splitlines())
                              + '}\n'
                              'vars X Y\n'
                              'disjunct {\n'
                              '  eq X ( a c ) X^-1 ( a c )^-1 = 1\n'
                              '  eq Y b Y^-1 b^-1 = 1\n'
                              '  ab: X Y = ( a b d )\n'
                              '}\n'
                              'disjunct {\n'
                              '  eq X ( a c a c ) X^-1 ( a c a c )^-1 = 1\n'
                              "  coset: X in c * G'\n"
                              '}\n')
GOLDEN = [
    (GOLDEN_MIXED, "shadow", 0,
     ('disjunct 0: UNSAT\n'
      '1 X.p -1 eq0.lam1 = 0 mod 3\n'
      '1 X.q = 0 mod 4\n'
      '1 X.r -1 eq0.lam0 = 0\n'
      '1 X.t -1 eq0.lam2 = 0\n'
      '1 X.p 1 Y.p = -1 mod 3\n'
      '1 X.q 1 Y.q = -2 mod 4\n'
      '1 X.r 1 Y.r = 0\n'
      '1 X.t 1 Y.t = 0\n'
      '1 Y.p = -1 mod 3\n'
      '1 Y.q = -3 mod 4\n'
      '1 Y.r = 3\n'
      '1 Y.t = 0\n'
      '1 X.p 1 Y.p = -1 mod 3\n'
      '1 X.q 1 Y.q = -2 mod 4\n'
      '1 X.r 1 Y.r = 0\n'
      '1 X.t 1 Y.t = 1\n'
      '0 X.r -1 Y.t = 4\n'
      'disjunct 1: SAT\n'
      '1 X.p -1 Y.p = 0 mod 3\n'
      '1 X.q -1 Y.q = 0 mod 4\n'
      '1 X.r -1 Y.r = 0\n'
      '1 X.t -1 Y.t = 0\n'
      '1 Y.t = -2\n')),
    (GOLDEN_PENTAGON, "shadow", 0,
     ('disjunct 0: SAT\n'
      '2 X.a = 0 mod 2\n'
      '2 X.b = 0 mod 2\n'
      '2 X.c = 0 mod 2\n'
      '2 X.d = 0 mod 2\n'
      '2 X.e = 0 mod 2\n'
      '1 X.a 1 Y.a = -1 mod 2\n'
      '1 X.b 1 Y.b = 0 mod 2\n'
      '1 X.c 1 Y.c = -1 mod 2\n'
      '1 X.d 1 Y.d = -1 mod 2\n'
      '1 X.e 1 Y.e = 0 mod 2\n'
      '1 Y.a = 0 mod 2\n'
      '1 Y.b = -1 mod 2\n'
      '1 Y.c = 0 mod 2\n'
      '1 Y.d = 0 mod 2\n'
      '1 Y.e = -1 mod 2\n')),
    (GOLDEN_PENTAGON, "reduce-finite-ab", 0,
     ('graph {\n'
      '  vertex a 2\n'
      '  vertex b 2\n'
      '  vertex c 2\n'
      '  vertex d 2\n'
      '  vertex e 2\n'
      '  edge a b\n'
      '  edge a e\n'
      '  edge b c\n'
      '  edge c d\n'
      '  edge d e\n'
      '}\n'
      'vars X Y _z0\n'
      'disjunct {\n'
      '  eq X^2 = 1\n'
      '  eq X Y _z0^-1 = 1\n'
      "  coset: _z0 in a c d * G'\n"
      "  coset: Y in b e * G'\n"
      '  len: 2 |X| -1 |Y| = 0\n'
      '}\n')),
    (GOLDEN_PENTAGON_COMMUTATOR, "shadow", 0,
     ('disjunct 0: SAT\n'
      '1 X.a 1 Y.a = -1 mod 2\n'
      '1 X.b 1 Y.b = -1 mod 2\n'
      '1 X.c 1 Y.c = 0 mod 2\n'
      '1 X.d 1 Y.d = -1 mod 2\n'
      '1 X.e 1 Y.e = 0 mod 2\n'
      'disjunct 1: SAT\n'
      '1 X.a = 0 mod 2\n'
      '1 X.b = 0 mod 2\n'
      '1 X.c = -1 mod 2\n'
      '1 X.d = 0 mod 2\n'
      '1 X.e = 0 mod 2\n')),
]


@pytest.mark.parametrize("text, command, code, expected", GOLDEN,
                         ids=["shadow-mixed", "shadow-pentagon", "reduce-pentagon",
                              "shadow-pentagon-commutator"])
def test_shadow_and_reduction_output_is_pinned(files, capsys, text, command, code, expected):
    inst = files / "golden.inst"
    inst.write_text(text)
    assert run(capsys, command, inst)[:2] == (code, expected)


def test_deterministic_output(files, capsys):
    code1, out1, _ = run(capsys, "weak-modules", files / "gamma1.graph")
    code2, out2, _ = run(capsys, "weak-modules", files / "gamma1.graph")
    assert (code1, out1) == (code2, out2)
    inst = files / "x1.inst"
    inst.write_text("group f2.graph\nvars X1\ndisjunct {\n  eq X1^2 ( a b a b )^-1 = 1\n}\n")
    _, out1, _ = run(capsys, "solve", inst, "--bound", "2")
    _, out2, _ = run(capsys, "solve", inst, "--bound", "2")
    assert out1 == out2


def _compiled_sum(files, capsys):
    h10 = files / "sum.h10"
    h10.write_text("1*x 1*y -5 = 0\n")
    run(capsys, "compile-h10", h10, "--target", files / "f2.graph",
        "--out", files / "s.inst", "--sidecar", files / "s.dec")
    return files / "s.inst", files / "s.dec"


def _first_recipe(expr):
    def corrupt(text):
        doc = json.loads(text)
        doc["recipes"][0][1] = expr
        return json.dumps(doc)
    return corrupt


def _decode_x_from(entry):
    def corrupt(text):
        doc = json.loads(text)
        doc["decode"]["x"] = entry
        return json.dumps(doc)
    return corrupt


def _first_recipe_nested(levels):
    """The first recipe wrapped in `levels` inversions, written out by hand:
    json.dumps itself refuses to nest that deep."""
    def corrupt(text):
        doc = json.loads(text)
        inner = json.dumps(doc["recipes"][0][1])
        doc["recipes"][0][1] = "@"
        nested = '{"op": "inv", "arg": ' * levels + inner + "}" * levels
        return json.dumps(doc).replace('"@"', nested, 1)
    return corrupt


def _without_h10(text):
    doc = json.loads(text)
    del doc["h10"]
    return json.dumps(doc)


BIG = "1" + "0" * 300  # above sys.maxsize: no count of copies this large is expanded

# instance files some cases below read, written next to the graphs
BAD_INSTANCES = {
    "variable-power.inst": f"group f2.graph\nvars X\ndisjunct {{\n  eq X^{BIG} = 1\n}}\n",
    "multiplier.inst": f"group f2.graph\nvars X\ndisjunct {{\n  eq {BIG}*X = 1\n}}\n",
    "word-power.inst": f"group f2.graph\nvars X\ndisjunct {{\n  eq X ( a b )^{BIG} = 1\n}}\n",
    # the disjunct is read over F2, then the presentation would change under it
    "second-group.inst": "group f2.graph\nvars X\ndisjunct {\n  eq X = 1\n}\ngroup gamma1.graph\n",
    "group-then-graph.inst": "group f2.graph\ngraph {\nvertex a inf\n}\nvars X\n"
                             "disjunct {\n  eq X = 1\n}\n",
    "unknown-vertex-in-parens.inst": "group f2.graph\nvars X\ndisjunct {\n  eq X ( a c ) = 1\n}\n",
    "bad-variable-name.inst": "group f2.graph\nvars 1X\ndisjunct {\n  eq a a^-1 = 1\n}\n",
    # each exponent parses, but the shadow's constant, their sum, has 4301 digits
    "4301-digit-constant.inst": f"group f2.graph\nvars X\ndisjunct {{\n"
                                f"  eq X ( a^{'9' * 4300} a^{'9' * 4300} ) = 1\n}}\n",
    "all-zero.h10": "0 = 0\n",
    "expsum-at-finite-order.inst": "graph {\n  vertex a 2\n  vertex b inf\n}\nvars X\n"
                                   "disjunct {\n  eq X = 1\n  expsum: 1 |X|_a = 0\n}\n",
    # the bad order is on line 4 of the file and line 2 of the block
    "graph-block-bad-order.inst": "# two vertices\ngraph {\n  vertex a inf\n  vertex b 1x\n}\n"
                                  "vars X\ndisjunct {\n  eq X = 1\n}\n",
    "disjunct-before-group.inst": "vars X\ndisjunct {\n  eq X = 1\n}\ngroup f2.graph\n",
    "eq-without-equals-one.inst": "group f2.graph\nvars X\ndisjunct {\n  eq X a\n}\n",
    "ab-without-equals.inst": "group f2.graph\nvars X\ndisjunct {\n  eq X = 1\n  ab: X a\n}\n",
    "unbalanced-parenthesis.inst": "group f2.graph\nvars X\ndisjunct {\n  eq X ( a b = 1\n}\n",
    "expsum-odd-items.inst": "group f2.graph\nvars X\ndisjunct {\n  eq X = 1\n"
                             "  expsum: 1 |X|_a 2 = 0\n}\n",
    "len-not-a-length.inst": "group f2.graph\nvars X\ndisjunct {\n  eq X = 1\n"
                             "  len: 1 X = 0\n}\n",
    "malformed-coset.inst": "group f2.graph\nvars X\ndisjunct {\n  eq X = 1\n"
                            "  coset: X a * G'\n}\n",
}


BAD_INPUTS = {
    "solve-negative-bound": (None, ("solve", "{inst}", "--bound", "-1")),
    "verify-negative-bound": (None, ("verify", "{inst}", "{dec}", "--bound", "-1")),
    "witness-non-integer": (None, ("witness", "{inst}", "{dec}", "--solution", "x=two,y=3")),
    "verify-non-integer-hint": (None, ("verify", "{inst}", "{dec}", "--bound", "1",
                                       "--hint", "x=two,y=3")),
    "sidecar-not-json": (lambda text: "not json {", ("witness", "{inst}", "{dec}",
                                                     "--solution", "x=2,y=3")),
    "sidecar-without-h10": (_without_h10, ("witness", "{inst}", "{dec}",
                                           "--solution", "x=2,y=3")),
    "recipe-unknown-op": (_first_recipe({"op": "bogus"}), ("witness", "{inst}", "{dec}",
                                                         "--solution", "x=2,y=3")),
    "witness-underscore-integer": (None, ("witness", "{inst}", "{dec}",
                                          "--solution", "x=0_2,y=3")),
    "recipe-pow-without-exp": (_first_recipe({"op": "pow", "base": {"op": "word", "text": "a"}}),
                               ("witness", "{inst}", "{dec}", "--solution", "x=2,y=3")),
    "recipe-not-an-object": (_first_recipe(5), ("verify", "{inst}", "{dec}", "--bound", "1",
                                                "--hint", "x=2,y=3")),
    "recipe-const-string": (_first_recipe({"op": "pow", "base": {"op": "word", "text": "a"},
                                           "exp": {"op": "const", "value": "2"}}),
                            ("witness", "{inst}", "{dec}", "--solution", "x=2,y=3")),
    # "2" times 10^8 would be a string of 10^8 characters: refused before any arithmetic
    "recipe-const-not-int": (_first_recipe({"op": "pow", "base": {"op": "word", "text": "a b"},
                                            "exp": {"op": "mul", "args": [
                                                {"op": "const", "value": "2"},
                                                {"op": "const", "value": 10 ** 8}]}}),
                             ("witness", "{inst}", "{dec}", "--solution", "x=2,y=3")),
    "decode-names-a-non-variable": (_decode_x_from(["nope", "a"]),
                                    ("decode", "{inst}", "{dec}", "--assignment", "{asg}")),
    "sidecar-not-utf8": (lambda text: b"\xff" + text.encode(),
                         ("witness", "{inst}", "{dec}", "--solution", "x=2,y=3")),
    "recipe-nested-1800-deep": (_first_recipe_nested(1800),
                                ("witness", "{inst}", "{dec}", "--solution", "x=2,y=3")),
    # each token parses, but the merged exponent has 4301 digits
    "normalize-4301-digit-exponent": (None, ("normalize", "{graph}", "a^" + "9" * 4300,
                                             "a^" + "9" * 4300)),
    "length-4301-digits": (None, ("length", "{graph}", "a^" + "9" * 4300, "a^" + "9" * 4300)),
    "solve-variable-power-301-digits": (None, ("solve", "{dir}/variable-power.inst", "--bound", "1")),
    "solve-multiplier-301-digits": (None, ("solve", "{dir}/multiplier.inst", "--bound", "1")),
    "solve-word-power-301-digits": (None, ("solve", "{dir}/word-power.inst", "--bound", "1")),
    "solve-second-group-section": (None, ("solve", "{dir}/second-group.inst", "--bound", "1")),
    "flatten-group-then-graph": (None, ("flatten", "{dir}/group-then-graph.inst")),
    "witness-solution-names-x-twice": (None, ("witness", "{inst}", "{dec}",
                                              "--solution", "x=2,y=3,x=2")),
    "verify-hint-names-x-twice": (None, ("verify", "{inst}", "{dec}", "--bound", "1",
                                         "--hint", "x=2,y=3,x=2")),
    "solve-unknown-vertex-in-parens": (None, ("solve", "{dir}/unknown-vertex-in-parens.inst",
                                              "--bound", "1")),
    "solve-graph-block-bad-order": (None, ("solve", "{dir}/graph-block-bad-order.inst",
                                           "--bound", "1")),
    "solve-bad-variable-name": (None, ("solve", "{dir}/bad-variable-name.inst", "--bound", "1")),
    "solve-expsum-at-finite-order": (None, ("solve", "{dir}/expsum-at-finite-order.inst",
                                            "--bound", "1")),
    "solve-disjunct-before-group": (None, ("solve", "{dir}/disjunct-before-group.inst",
                                           "--bound", "1")),
    "solve-eq-without-equals-one": (None, ("solve", "{dir}/eq-without-equals-one.inst",
                                           "--bound", "1")),
    "solve-ab-without-equals": (None, ("solve", "{dir}/ab-without-equals.inst", "--bound", "1")),
    "solve-unbalanced-parenthesis": (None, ("solve", "{dir}/unbalanced-parenthesis.inst",
                                            "--bound", "1")),
    "solve-expsum-odd-items": (None, ("solve", "{dir}/expsum-odd-items.inst", "--bound", "1")),
    "solve-len-not-a-length": (None, ("solve", "{dir}/len-not-a-length.inst", "--bound", "1")),
    "solve-malformed-coset": (None, ("solve", "{dir}/malformed-coset.inst", "--bound", "1")),
    "shadow-4301-digit-constant": (None, ("shadow", "{dir}/4301-digit-constant.inst")),
    "verify-hint-bound-outside-cap": (None, ("verify", "{inst}", "{dec}", "--bound", "99",
                                             "--hint", "x=2,y=3")),
    # an all-zero system has no equation to encode, and writes no instance
    "compile-h10-all-zero": (None, ("compile-h10", "{dir}/all-zero.h10", "--target", "{graph}",
                                    "--out", "{dir}/unwritten.inst",
                                    "--sidecar", "{dir}/unwritten.dec")),
    "compile-h10-raag-all-zero": (None, ("compile-h10-raag", "{dir}/all-zero.h10",
                                         "--target", "{dir}/gamma1.graph",
                                         "--out", "{dir}/unwritten.inst",
                                         "--sidecar", "{dir}/unwritten.dec")),
}

# the line a case's error names
ERROR_LINES = {"solve-unknown-vertex-in-parens": 4, "solve-graph-block-bad-order": 4,
               "solve-disjunct-before-group": 2, "solve-eq-without-equals-one": 4,
               "solve-ab-without-equals": 5, "solve-unbalanced-parenthesis": 4,
               "solve-expsum-odd-items": 5, "solve-len-not-a-length": 5,
               "solve-malformed-coset": 5}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_an_error_not_a_no(files, capsys, case):
    corrupt, argv = BAD_INPUTS[case]
    inst, dec = _compiled_sum(files, capsys)
    asg = files / "asg.txt"
    code, out, _ = run(capsys, "witness", inst, dec, "--solution", "x=2,y=3")
    assert code == 0
    asg.write_text(out)
    if corrupt is not None:
        data = corrupt(dec.read_text())
        dec.write_bytes(data if isinstance(data, bytes) else data.encode())
    for name, text in BAD_INSTANCES.items():
        (files / name).write_text(text)
    code, out, err = run(capsys, *(a.format(inst=inst, dec=dec, asg=asg, graph=files / "f2.graph",
                                            dir=files) for a in argv))
    assert code == 3 and out == "" and not (files / "unwritten.inst").exists()
    assert err.startswith("error: ") and "Traceback" not in err
    if case in ERROR_LINES:
        assert err.rstrip().endswith(f"(line {ERROR_LINES[case]})")


def test_one_syllable_powers_take_any_exponent(files, capsys):
    """v^e raised to n is v^(e*n), not n copies: only a power of a longer
    word, like `( a b )^BIG` above, is too long to expand."""
    (files / "one-syllable-power.inst").write_text(
        f"group f2.graph\nvars X\ndisjunct {{\n  eq X ( a )^{BIG} ( a )^-{BIG} = 1\n}}\n")
    code, out, _ = run(capsys, "solve", files / "one-syllable-power.inst", "--bound", "1")
    assert code == 0 and out == "X = 1\n"
    # x + y = 5, and the witness of x is a^x
    inst, dec = _compiled_sum(files, capsys)
    solution = f"x={BIG},y={5 - int(BIG)}"
    code, out, _ = run(capsys, "witness", inst, dec, "--solution", solution)
    assert code == 0 and f"A_x = a^{BIG}\n" in out
    (files / "asg.txt").write_text(out)
    code, out, _ = run(capsys, "decode", inst, dec, "--assignment", files / "asg.txt")
    assert (code, out) == (0, f"x = {BIG}\ny = {5 - int(BIG)}\n")


def test_a_recipe_nested_800_deep_still_evaluates(files, capsys):
    inst, dec = _compiled_sum(files, capsys)
    _, expected, _ = run(capsys, "witness", inst, dec, "--solution", "x=2,y=3")
    dec.write_text(_first_recipe_nested(800)(dec.read_text()))  # an even number: no change
    code, out, _ = run(capsys, "witness", inst, dec, "--solution", "x=2,y=3")
    assert code == 0 and out == expected
