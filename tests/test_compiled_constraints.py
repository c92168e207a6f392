"""Differential tests of the constraint checks.

The walk checks ab:, expsum: and coset: constraints as integer sums on each
value's exponent-sum vector: it reads the very rows its abelian shadow is
solved from (`instances.disjunct_shadow`, built from
`instances.constraint_rows`), each at the depth of its last unknown
(`search._DisjunctState.constraints_hold`); len: sums geodesic lengths.
`instances._constraint_holds`, the witness re-check, checks them apart from
those rows; for ab: it sums the images of each side's atom values. The
reference for ab: is `tests/oracle.py::ab_holds_by_products`, which
multiplies each side out and abelianises the product; for the other kinds
it is `_constraint_holds`. Both checks must agree with the reference on
every value, or every pair of values, of small balls over F2, the pentagon
right-angled Coxeter group, a Z/3, Z/4, Z graph and the all-torsion
Z/3 * Z/4, and on seeded random ab: constraints. The walk's check must also
decide each constraint at the depth of its last unknown, no earlier and no
later.
"""

import random
from itertools import product

import pytest

from abelcon.abelian import abelianize, solve_rows
from abelcon.errors import PresentationMismatch
from abelcon.instances import (
    AbEq,
    ConstAtom,
    Disjunct,
    GroupTerm,
    Instance,
    VarAtom,
    _constraint_holds,
    constraint_variables,
    disjunct_shadow,
    parse_instance,
)
from abelcon.search import _DisjunctState
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


def _walk_state(p, variables, con):
    """The walk's state for a disjunct of con alone, built from its shadow
    as the search builds it, or None when the shadow refutes the disjunct
    and the search builds no state."""
    inst = Instance(p, variables, (Disjunct((GroupTerm(()),), (con,)),))
    shadow = disjunct_shadow(p, inst.disjuncts[0], variables)
    if solve_rows(*shadow[:2]) is None:
        return None
    return _DisjunctState(inst, 0, shadow, ball(p, 0), 0)


def _walk_holds(st, asg):
    """The walk's verdict on values of the first len(asg) variables: no
    ground failure, and the check at each of their depths passes."""
    return (st is not None and not st.ground_failed
            and all(st.constraints_hold(depth, asg) for depth in range(len(asg))))


@pytest.mark.parametrize("p, radius, lines", CASES, ids=["F2", "pentagon", "mixed", "torsion"])
def test_compiled_checks_agree_with_constraint_holds(p, radius, lines):
    values = list(ball(p, radius))
    cons = _disjunct(p, lines).constraints
    for con in cons:
        st = _walk_state(p, ("X", "Y"), con)
        held = 0
        by_x = []
        for x in values:
            outcomes = []
            for y in values:
                asg = {"X": x, "Y": y}
                expected = _reference(p, con, asg)
                assert _walk_holds(st, asg) == expected, (con, x, y)
                assert _constraint_holds(p, con, asg) == expected, (con, x, y)
                outcomes.append(expected)
            held += sum(outcomes)
            early = _walk_holds(st, {"X": x})  # depth 0, before Y has a value
            assert early or not any(outcomes), (con, x)  # depth 0 prunes no solution
            by_x.append((x, early, outcomes))
        if all(len(set(outcomes)) == 1 for _, _, outcomes in by_x):
            # con does not depend on Y, so depth 0 decides it
            for x, early, outcomes in by_x:
                assert early == outcomes[0], (con, x)
        if constraint_variables(con):
            assert 0 < held < len(values) ** 2, con  # the check decides something


def _last_unknown(con, variables):
    """The position of the last variable whose signed count in
    ab(lhs) - ab(rhs) is not 0, or -1 when every count is 0."""
    count = dict.fromkeys(variables, 0)
    for side, sign in ((con.lhs, 1), (con.rhs, -1)):
        for a in side.atoms:
            if isinstance(a, VarAtom):
                count[a.name] += -sign if a.inverse else sign
    return max((s for s, x in enumerate(variables) if count[x]), default=-1)


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
    variables = ("X", "Y", "Z")
    held = 0
    cases = 0
    for con in _random_ab_constraints(p, rng, 300):
        st = _walk_state(p, variables, con)
        last = _last_unknown(con, variables)
        for _ in range(4):
            asg = {v: rng.choice(values) for v in variables}
            expected = ab_holds_by_products(p, con, asg)
            assert _constraint_holds(p, con, asg) == expected, (con, asg)
            assert _walk_holds(st, asg) == expected, (con, asg)
            if st is not None and last >= 0:
                # the depths before the last unknown's pass, and its own
                # decides, on the values up to it alone
                prefix = {v: asg[v] for v in variables[:last + 1]}
                checks = [st.constraints_hold(depth, prefix) for depth in range(last + 1)]
                assert all(checks[:-1]) and checks[-1] == expected, (con, asg)
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
        asg = {"X": minus_one, "Y": parse_word(p, "p q p q^-1")}
        assert _walk_holds(_walk_state(p, ("X", "Y"), con), asg) and _constraint_holds(p, con, asg)
    q_word = parse_word(TORSION, "q p q p q")  # q-sum 3 against -1 at order 4
    con = _disjunct(TORSION, ["coset: X in q^-1 p^-1 * G'"]).constraints[0]
    assert _walk_holds(_walk_state(TORSION, ("X", "Y"), con), {"X": q_word, "Y": q_word})
    # a difference that is not a multiple of the order still separates
    con = _disjunct(MIXED, ["ab: X = ( p q )"]).constraints[0]
    assert not _walk_holds(_walk_state(MIXED, ("X",), con), {"X": parse_word(MIXED, "p q^-1")})


def test_exponent_sums_are_computed_once_and_kept():
    w = parse_word(F2, "a b^-2 a")
    sums = w.exponent_sums()
    assert sums == (2, -2)
    assert w.exponent_sums() is sums


def test_a_constant_over_another_presentation_is_a_mismatch():
    # an equal presentation built separately is the same group
    con = AbEq(GroupTerm((VarAtom("X"),)), GroupTerm((ConstAtom(parse_word(F2, "a")),)))
    st = _walk_state(Presentation.free("ab"), ("X",), con)
    assert _walk_holds(st, {"X": parse_word(F2, "a")})
    foreign = AbEq(GroupTerm((VarAtom("X"),)), GroupTerm((ConstAtom(parse_word(PENTAGON, "a")),)))
    with pytest.raises(PresentationMismatch):
        _walk_state(F2, ("X",), foreign)
