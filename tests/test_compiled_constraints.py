"""Differential tests of the constraint checks.

The search checks ab:, expsum:, coset: and len: constraints as integer sums
on each value's exponent-sum vector (`instances.compile_constraint`, which
reads the rows of `instances.constraint_rows`, as the abelian shadow does).
`instances._constraint_holds`, the witness re-check, checks them apart from
those rows; for ab: it sums the images of each side's atom values. The
reference for ab: is `tests/oracle.py::ab_holds_by_products`, which
multiplies each side out and abelianises the product; for the other kinds
it is `_constraint_holds`. Both checks must agree with the reference on
every value, or every pair of values, of small balls over F2, the pentagon
right-angled Coxeter group, a Z/3, Z/4, Z graph and the all-torsion
Z/3 * Z/4, and on seeded random ab: constraints.
"""

import random
from itertools import product

import pytest

from abelcon.abelian import abelianize
from abelcon.errors import PresentationMismatch
from abelcon.instances import (
    AbEq,
    ConstAtom,
    GroupTerm,
    VarAtom,
    _constraint_holds,
    compile_constraint,
    constraint_variables,
    parse_instance,
)
from abelcon.words import Presentation, ball, parse_word

from .oracle import ab_holds_by_products

PENTAGON = Presentation.racg("abcde", [(u, v) for u, v in zip("abcde", "bcdea")])
F2 = Presentation.free("ab")
MIXED = Presentation("pqr", [("p", "r")], {"p": 3, "q": 4, "r": None})
TORSION = Presentation("pq", [], {"p": 3, "q": 4})

# (group, radius, constraint lines over the variables X and Y)
CASES = [
    (F2, 2, [
        "ab: X X^-1 Y = ( a b^-1 )",             # X cancels out
        "ab: X X = Y^-1 ( a^2 )",                # a repeated, an inverted variable
        "ab: X ( a b ) = ( b^-1 ) Y",            # constants on both sides
        "ab: X = Y",
        "ab: ( a b a^-1 ) = b",                  # ground
        "ab: 1 = X^-1 Y ( b )",                  # an empty side
        "expsum: 2 |X|_a -1 |Y|_b 1 |X|_b = 1",
        "expsum: 1 |X|_a 1 |X|_a = 2",
        "len: 1 |X| -1 |Y| = 1",
    ]),
    (PENTAGON, 2, [
        "ab: X X^-1 Y = ( a c )",
        "ab: X ( a b ) = ( c ) Y^-1",
        "ab: X X = Y",
        "ab: X = Y",
        "ab: X^-1 ( a c a c ) = Y 1",            # raw a- and c-sums 2 at order 2
        "coset: X in a c * G'",
        "coset: Y in 1 * G'",
        "len: 2 |X| -1 |Y| = 2",
    ]),
    (MIXED, 2, [
        "ab: X X^-1 Y = ( p^-1 q )",
        "ab: X ( p q ) = ( q^-1 r ) Y",
        "ab: X X X = Y ( q^-1 )",
        "ab: X = Y",
        "ab: ( p q p ) = p^-1",                  # ground, raw sums 2 and -1 at order 3
        "ab: X^-1 X^-1 = Y ( q^-1 ) 1",
        "expsum: 1 |X|_r -2 |Y|_r = 0",
        "len: 1 |X| 1 |Y| = 3",
    ]),
    (TORSION, 3, [
        "ab: X = Y",
        "ab: X X^-1 Y = ( q p )",
        "coset: X in p^-1 q^2 * G'",
        "coset: Y in 1 * G'",
    ]),
]


def _disjunct(p, lines):
    text = "vars X Y\ndisjunct {\n  eq 1 = 1\n" + "".join(f"  {ln}\n" for ln in lines) + "}\n"
    return parse_instance(text, presentation=p).disjuncts[0]


def _reference(p, con, asg):
    return ab_holds_by_products(p, con, asg) if isinstance(con, AbEq) else _constraint_holds(p, con, asg)


@pytest.mark.parametrize("p, radius, lines", CASES, ids=["F2", "pentagon", "mixed", "torsion"])
def test_compiled_checks_agree_with_constraint_holds(p, radius, lines):
    values = list(ball(p, radius))
    cons = _disjunct(p, lines).constraints
    for con in cons:
        check = compile_constraint(p, con)
        held = 0
        for x, y in product(values, repeat=2):
            asg = {"X": x, "Y": y}
            expected = _reference(p, con, asg)
            assert check(asg) == expected, (con, x, y)
            assert _constraint_holds(p, con, asg) == expected, (con, x, y)
            held += expected
        if constraint_variables(con):
            assert 0 < held < len(values) ** 2, con  # the check decides something


def _random_ab_constraints(p, rng, count):
    """ab: constraints over X, Y, Z: half of them random sides, half a
    right side that shuffles the left one's atoms, inserts constants of
    image 0 (raw sums that differ by the order at a finite-order vertex)
    and may invert one variable atom, so that about half of them hold."""
    words = [w for w in ball(p, 2) if not w.is_identity()]
    zero = [w for w in ball(p, 4) if not any(abelianize(p, w)) and any(w.exponent_sums())]

    def atom():
        if rng.random() < 0.6:
            return VarAtom(rng.choice("XYZ"), rng.random() < 0.5)
        return ConstAtom(rng.choice(words))

    def side():
        return [atom() for _ in range(rng.randrange(5))]  # may be empty

    for _ in range(count):
        lhs = side()
        if rng.random() < 0.5:
            rhs = side()
        else:
            rhs = lhs + [ConstAtom(rng.choice(zero)) for _ in range(rng.randrange(3) if zero else 0)]
            rng.shuffle(rhs)
            flip = [i for i, a in enumerate(rhs) if isinstance(a, VarAtom)]
            if flip and rng.random() < 0.3:
                i = rng.choice(flip)
                rhs[i] = rhs[i].inverted()
        yield AbEq(GroupTerm(tuple(lhs)), GroupTerm(tuple(rhs)))


@pytest.mark.parametrize("p", [F2, PENTAGON, MIXED], ids=["F2", "pentagon", "mixed"])
def test_random_ab_checks_agree_with_the_product_reference(p):
    rng = random.Random(2204)
    values = list(ball(p, 2))
    held = 0
    cases = 0
    for con in _random_ab_constraints(p, rng, 300):
        check = compile_constraint(p, con)
        for _ in range(4):
            asg = {v: rng.choice(values) for v in "XYZ"}
            expected = ab_holds_by_products(p, con, asg)
            assert _constraint_holds(p, con, asg) == expected, (con, asg)
            assert check(asg) == expected, (con, asg)
            held += expected
            cases += 1
    assert 0.2 * cases < held < 0.8 * cases, (held, cases)


def test_finite_order_sums_that_differ_by_the_order_are_equal():
    # at a vertex of order k, exponent -1 and raw sum k-1 are the same image
    for p, k in ((MIXED, 3), (TORSION, 3)):
        minus_one = parse_word(p, "p^-1")
        k_minus_one = parse_word(p, "p q p")
        assert minus_one.exponent_sums()[0] == -1 and k_minus_one.exponent_sums()[0] == k - 1
        con = _disjunct(p, ["ab: X = Y"]).constraints[0]
        check = compile_constraint(p, con)
        asg = {"X": minus_one, "Y": parse_word(p, "p q p q^-1")}
        assert check(asg) and _constraint_holds(p, con, asg)
    q_word = parse_word(TORSION, "q p q p q")  # q-sum 3 against -1 at order 4
    con = _disjunct(TORSION, ["coset: X in q^-1 p^-1 * G'"]).constraints[0]
    assert compile_constraint(TORSION, con)({"X": q_word, "Y": q_word})
    # a difference that is not a multiple of the order still separates
    con = _disjunct(MIXED, ["ab: X = ( p q )"]).constraints[0]
    assert not compile_constraint(MIXED, con)({"X": parse_word(MIXED, "p q^-1")})


def test_exponent_sums_are_computed_once_and_kept():
    w = parse_word(F2, "a b^-2 a")
    sums = w.exponent_sums()
    assert sums == (2, -2)
    assert w.exponent_sums() is sums


def test_a_constant_over_another_presentation_is_a_mismatch():
    # an equal presentation built separately is the same group
    con = AbEq(GroupTerm((VarAtom("X"),)), GroupTerm((ConstAtom(parse_word(F2, "a")),)))
    assert compile_constraint(Presentation.free("ab"), con)({"X": parse_word(F2, "a")})
    foreign = AbEq(GroupTerm((VarAtom("X"),)), GroupTerm((ConstAtom(parse_word(PENTAGON, "a")),)))
    with pytest.raises(PresentationMismatch):
        compile_constraint(F2, foreign)
