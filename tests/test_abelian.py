import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from abelcon.abelian import (
    LinearSystem,
    abelianize,
    abelianize_product,
    exponent_sum,
    format_linear_system,
    parse_linear_system,
    solve_linear_system,
)
from abelcon.errors import NotAbelianPrimitive, ParseError, PresentationMismatch
from abelcon.instances import abelian_shadow, evaluate, parse_instance
from abelcon.words import Presentation, ball, multiply, normalize, parse_word
from abelcon.words import product as word_product

from .oracle import diagonal_verdict, holds


def W(p, text):
    return parse_word(p, text)


def test_abelianize_examples(f2, pentagon):
    assert abelianize(f2, W(f2, "a b a^-1 b^-1")) == (0, 0)
    assert abelianize(f2, W(f2, "abab")) == (2, 2)
    racg = Presentation("ab", [], {"a": 2, "b": 2})
    assert abelianize(racg, W(racg, "a b a")) == (0, 1)


def _sum(p, u, v):
    """u + v in the abelianisation: reduced mod k at each vertex of order k."""
    return tuple(a + b if p.order[x] is None else (a + b) % p.order[x]
                 for x, a, b in zip(p.vertices, u, v))


def test_abelianize_homomorphism_random(gamma1, f2):
    rng = random.Random(3)
    for p in (gamma1, f2):
        for _ in range(300):
            raw1 = [(rng.choice(p.vertices), rng.choice([-2, -1, 1, 2])) for _ in range(6)]
            raw2 = [(rng.choice(p.vertices), rng.choice([-2, -1, 1, 2])) for _ in range(6)]
            x, y = normalize(p, raw1), normalize(p, raw2)
            assert abelianize(p, multiply(p, x, y)) == _sum(p, abelianize(p, x), abelianize(p, y))


def test_abelianize_homomorphism_exhaustive_small(pentagon):
    elems = ball(pentagon, 2)
    for x in elems:
        for y in elems:
            assert abelianize(pentagon, x * y) == _sum(pentagon, abelianize(pentagon, x),
                                                        abelianize(pentagon, y))


MIXED = Presentation("pqr", [("p", "r")], {"p": 3, "q": 4})


@pytest.mark.parametrize("name", ["f2", "pentagon", "mixed"])
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_abelianize_product_is_ab_of_the_product(request, name, data):
    p = MIXED if name == "mixed" else request.getfixturevalue(name)
    letters = st.tuples(st.sampled_from(p.vertices), st.integers(-5, 5))
    factors = data.draw(st.lists(st.tuples(st.lists(letters, max_size=6).map(
        lambda raw: normalize(p, raw)), st.booleans()), max_size=5))
    assert abelianize_product(p, factors) == abelianize(p, word_product(p, factors))


def test_abelianize_product_of_nothing_is_zero(pentagon):
    assert abelianize_product(pentagon, []) == (0,) * 5
    assert abelianize_product(MIXED, []) == (0, 0, 0)


def test_abelianize_product_rejects_a_foreign_factor(f2, fxy):
    with pytest.raises(PresentationMismatch):
        abelianize_product(f2, [(W(f2, "a"), False), (W(fxy, "x"), True)])


def test_exponent_sum_paper_value(fxy):
    assert exponent_sum(fxy, W(fxy, "x y x^-1 y^2"), "x") == 0
    p = Presentation.free("s")
    assert exponent_sum(p, W(p, "s^3"), "s") == 3


def test_exponent_sum_additive(f2):
    g = W(f2, "a b")          # |g|_a = 1
    h = W(f2, "a^-1 b^3")     # |h|_a = -1
    assert exponent_sum(f2, multiply(f2, g, h), "a") == 0


def test_exponent_sum_constant_on_classes(gamma1):
    rng = random.Random(5)
    for _ in range(200):
        raw = [(rng.choice(gamma1.vertices), rng.choice([-2, -1, 1, 2])) for _ in range(7)]
        w = normalize(gamma1, raw)
        for v in gamma1.vertices:
            assert exponent_sum(gamma1, w, v) == sum(e for u, e in raw if u == v)


def test_exponent_sum_rejects_torsion(pentagon):
    with pytest.raises(NotAbelianPrimitive):
        exponent_sum(pentagon, W(pentagon, "a"), "a")


def in_K(p, w, vertices):
    """w lies in K_S, the elements with zero exponent sum at every s in S."""
    return all(exponent_sum(p, w, v) == 0 for v in vertices)


def test_in_K(f2):
    assert in_K(f2, W(f2, "a b a^-1 b^-1"), {"a", "b"})
    assert not in_K(f2, W(f2, "a"), {"a"})
    assert in_K(f2, W(f2, "b"), {"a"})


def test_in_K_subgroup_and_normal(f2):
    rng = random.Random(9)
    members = [w for w in ball(f2, 3) if in_K(f2, w, {"a"})]
    for _ in range(100):
        x, y = rng.choice(members), rng.choice(members)
        assert in_K(f2, multiply(f2, x, y), {"a"})
        g = rng.choice(list(ball(f2, 3)))
        assert in_K(f2, x.conjugate_by(g), {"a"})


def _expsum_holds(p, constraint, values):
    """One expsum: constraint on the words `values`, checked by evaluate."""
    text = (f"vars {' '.join(values)}\ndisjunct {{\n  eq 1 = 1\n  expsum: {constraint}\n}}\n")
    asg = {name: W(p, word) for name, word in values.items()}
    return evaluate(parse_instance(text, presentation=p), asg).satisfied


def test_relation_holds(f2, gamma2):
    # |g|_x = |h|_x on a vertex tuple, |g|_s = |h|_t, and |g|_u = |g|_v
    assert _expsum_holds(f2, "1 |G|_a -1 |H|_a = 0", {"G": "a b", "H": "a b^2"})
    assert _expsum_holds(f2, "1 |G|_a -1 |H|_b = 0", {"G": "a", "H": "b"})
    assert _expsum_holds(gamma2, "1 |G|_a -1 |G|_b = 0", {"G": "a b c"})
    assert not _expsum_holds(gamma2, "1 |G|_a -1 |G|_b = 0", {"G": "a^2 b"})


# ---------------------------------------------------------------------------
# linear systems


def test_paper_unsat_systems():
    sys1 = parse_linear_system("1 x_b -3 y_b = 0\n1 x_b 1 y_b = -1\n")
    assert solve_linear_system(sys1).status == "UNSAT"
    sys2 = parse_linear_system("4 u = -1\n4 w = -1\n")
    assert solve_linear_system(sys2).status == "UNSAT"


def test_simple_sat():
    res = solve_linear_system(parse_linear_system("1 x 1 y = 0\n"))
    assert res.status == "SAT"
    assert res.witness["x"] + res.witness["y"] == 0


def test_congruences():
    # x = 1 (mod 4) and x = 2 (mod 4) is impossible
    sys = parse_linear_system("1 x = 1 mod 4\n1 x = 2 mod 4\n")
    assert solve_linear_system(sys).status == "UNSAT"
    # x = 1 (mod 4) and x = 3 (mod 2) is fine
    sys = parse_linear_system("1 x = 1 mod 4\n1 x = 3 mod 2\n")
    res = solve_linear_system(sys)
    assert res.status == "SAT" and res.witness["x"] % 4 == 1


def test_round_trip_text():
    text = "3 x -1 y = 0\n1 x 1 y = -1\n2 z = 1 mod 4\n"
    sys = parse_linear_system(text)
    assert sys == LinearSystem(("x", "y", "z"), (({0: 3, 1: -1}, 0, None),
                                                 ({0: 1, 1: 1}, -1, None),
                                                 ({2: 2}, 1, 4)))
    assert format_linear_system(sys) == text
    assert parse_linear_system(format_linear_system(sys)) == sys


def test_a_repeated_name_sums_into_one_coefficient():
    sys = parse_linear_system("1 y 2 x -1 y = 3\n4 x = 2 mod 6\n")
    assert sys == LinearSystem(("y", "x"), (({0: 0, 1: 2}, 3, None), ({1: 4}, 2, 6)))
    assert format_linear_system(sys) == "0 y 2 x = 3\n4 x = 2 mod 6\n"
    assert not solve_linear_system(sys)


@pytest.mark.parametrize("bad, message", [
    ("1 x = 1 mod four", "bad modulus 'four'"),
    ("1 x = 1 mod 1", "modulus must be >= 2"),
    ("1 x 2 y", "missing '=' in equation"),
    ("1 x = 1 2", "right-hand side must be a single integer"),
    ("1 x = one", "bad constant 'one'"),
    ("1 x 2 = 3", "left-hand side must be coefficient/variable pairs"),
    ("1 x two y = 3", "bad coefficient 'two'"),
])
def test_linear_system_errors_name_their_file_line(bad, message):
    text = f"# two rows\n1 x = 1  # the first\n\n{bad}  # a comment\n2 y = 4\n"
    with pytest.raises(ParseError) as err:
        parse_linear_system(text)
    assert err.value.line == 4 and str(err.value) == f"{message} (line 4)"


def _random_system(rng, planted=True):
    names = tuple(f"v{i}" for i in range(rng.randrange(1, 5)))
    target = [rng.randrange(-10, 11) for _ in names]
    rows = []
    for _ in range(rng.randrange(1, 5)):
        coeffs = {j: rng.randrange(-4, 5) for j in range(len(names))}
        total = sum(c * target[j] for j, c in coeffs.items())
        modulus = rng.choice([None, None, 2, 3, 4, 6])
        if planted:
            const = total
        else:
            const = total + rng.randrange(-8, 9)
        rows.append((coeffs, const, modulus))
    return LinearSystem(names, tuple(rows)), dict(zip(names, target))


def test_planted_systems_are_sat():
    rng = random.Random(42)
    for _ in range(200):
        sys, target = _random_system(rng, planted=True)
        assert holds(sys, target)
        res = solve_linear_system(sys)
        assert res.status == "SAT"
        assert holds(sys, res.witness)


def test_agreement_with_box_brute_force():
    rng = random.Random(7)
    B = 6
    for _ in range(120):
        names = tuple(f"v{i}" for i in range(rng.randrange(1, 4)))
        rows = []
        for _ in range(rng.randrange(1, 4)):
            coeffs = {j: rng.randrange(-3, 4) for j in range(len(names))}
            modulus = rng.choice([None, 2, 3])
            rows.append((coeffs, rng.randrange(-5, 6), modulus))
        sys = LinearSystem(names, tuple(rows))
        res = solve_linear_system(sys)
        brute = None
        for values in product(range(-B, B + 1), repeat=len(names)):
            cand = dict(zip(names, values))
            if holds(sys, cand):
                brute = cand
                break
        if brute is not None:
            assert res.status == "SAT"
        if res.status == "SAT":
            assert holds(sys, res.witness)


@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-20, 20)),
                min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_two_var_exact_rank(rows):
    sys = LinearSystem(("x", "y"), tuple(({0: a, 1: b}, c, None) for a, b, c in rows))
    res = solve_linear_system(sys)
    if res.status == "SAT":
        assert holds(sys, res.witness)


def _mixed_system(rng):
    """Exact rows and congruences; unit coefficients, one-unknown rows,
    repeated unknowns, zero coefficients and empty rows all come up often."""
    names = tuple(f"v{i}" for i in range(rng.randrange(1, 7)))
    rows = []
    for _ in range(rng.randrange(1, 7)):
        coeffs = {}
        for _ in range(rng.randrange(0, len(names) + 1)):
            j = rng.randrange(len(names))
            coeffs[j] = coeffs.get(j, 0) + rng.choice((-3, -2, -1, -1, 0, 1, 1, 2, 4))
        rows.append((coeffs, rng.randrange(-6, 7), rng.choice((None, None, 2, 3, 4))))
    return LinearSystem(names, tuple(rows))


def _block_mod2_system(rng):
    """Congruences mod 2 in blocks that share no unknown, their rows
    interleaved round by round: the shape of a shadow over a right-angled
    Coxeter group, one block per vertex."""
    blocks = [[f"{x}.{v}" for x in "XYZ"[:rng.randrange(1, 4)]] for v in "abcde"[:rng.randrange(1, 6)]]
    names = tuple(x for block in blocks for x in block)
    rows = []
    for _ in range(rng.randrange(1, 4)):
        for block in blocks:
            coeffs = {names.index(x): rng.choice((-1, 1)) for x in block if rng.random() < 0.6}
            rows.append((coeffs, rng.choice((-1, 0, 0, 1)), 2))
    return LinearSystem(names, tuple(rows))


def test_presolve_keeps_the_verdict_of_diagonalization_alone():
    """The sparse elimination's verdicts against the dense reference, on
    mixed systems and on block-diagonal congruences mod 2."""
    rng = random.Random(2024)
    for shape in (_mixed_system, _block_mod2_system):
        verdicts = set()
        for trial in range(10_000):
            sys = shape(rng)
            res = solve_linear_system(sys)
            assert bool(res) == diagonal_verdict(sys), (shape, trial, sys)
            if res:
                assert holds(sys, res.witness), (shape, trial, sys)
            verdicts.add(res.status)
        assert verdicts == {"SAT", "UNSAT"}, shape


def test_pinned_unknowns_and_unit_coefficients_are_solved():
    names = [f"X{i}" for i in range(400)]
    text = ("graph {\n  vertex a inf\n  vertex b inf\n}\nvars " + " ".join(names)
            + "\ndisjunct {\n" + "".join(f"  eq {x} = 1\n" for x in names) + "}\n")
    shadow, = abelian_shadow(parse_instance(text))
    assert len(shadow.rows) == 800
    res = solve_linear_system(shadow)
    assert res and set(res.witness.values()) == {0}
    # a unit coefficient in a single row, and a one-unknown congruence's slack
    sys = parse_linear_system("1 x 2 y = 7\n3 y = 6\n2 z 1 w = 1 mod 4\n")
    assert holds(sys, solve_linear_system(sys).witness)
    assert not solve_linear_system(parse_linear_system("2 x = 3\n1 x 1 y = 0\n"))
    assert not solve_linear_system(parse_linear_system("1 x -1 x = 1\n"))


def test_rows_without_a_unit_coefficient_are_solved():
    # x = 1 is fixed and substituted; the two rows left have no unit coefficient
    sys = parse_linear_system("1 x = 1\n2 y 3 z 1 x = 5\n4 y 6 z = 8\n")
    res = solve_linear_system(sys)
    assert res and holds(sys, res.witness)
    assert not solve_linear_system(parse_linear_system("1 x = 1\n2 y 4 z 1 x = 6\n"))
    # a chain 2 x_i + 3 x_(i+1) = 1 is solvable; its parity twin is not
    chain = "".join(f"2 x{i} 3 x{i + 1} = 1\n" for i in range(40))
    sys = parse_linear_system(chain)
    res = solve_linear_system(sys)
    assert res and holds(sys, res.witness)
    assert not solve_linear_system(parse_linear_system(chain + "1 x40 = 0 mod 2\n"))
