"""The abelian shadow the search solves: integer rows over columns
(`instances.disjunct_shadow`, `abelian.solve_rows`), checked against the
named shadow the CLI prints (`abelian_shadow`, `solve_linear_system`),
against one dense diagonalization (`oracle.diagonal_verdict`) and against
its own printed text read back (`parse_linear_system`)."""

import random

import pytest

import abelcon.abelian as abelian_mod
from abelcon.abelian import (
    format_linear_system,
    parse_linear_system,
    solve_linear_system,
    solve_rows,
)
from abelcon.instances import (
    AbEq,
    ConstAtom,
    Coset,
    Disjunct,
    ExpSumEq,
    GroupTerm,
    Instance,
    VarAtom,
    abelian_shadow,
    commutator_term,
    const_term,
    constraint_rows,
    disjunct_shadow,
    evaluate,
    parse_instance,
)
from abelcon.words import Presentation, multiply, normalize

from .oracle import diagonal_verdict

F2 = Presentation.free("ab")
PENTAGON = Presentation.racg("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
MIXED = Presentation("pqrt", [("p", "r"), ("q", "t"), ("r", "t")],
                     {"p": 3, "q": 4, "r": None, "t": None})
PATH = Presentation.raag(["g1", "g2", "g3", "g4"], [("g1", "g2"), ("g2", "g3"), ("g3", "g4")])
GRAPHS = {"F2": F2, "pentagon": PENTAGON, "mixed": MIXED, "path": PATH}


def _word(rng, p, vertices, length):
    return normalize(p, [(rng.choice(vertices), rng.choice((-2, -1, 1, 1, 2)))
                         for _ in range(length)])


def _term(rng, p, variables):
    atoms = []
    for _ in range(rng.randrange(0, 5)):
        if rng.random() < 0.6:
            atoms.append(VarAtom(rng.choice(variables), rng.random() < 0.4))
        else:
            w = _word(rng, p, p.vertices, rng.randrange(1, 4))
            if not w.is_identity():
                atoms.append(ConstAtom(w))
    return GroupTerm(tuple(atoms))


def _random_instance(rng, p):
    """Up to two disjuncts over X, Y, Z: random equations, commutators
    [X, w] with w on infinite-order vertices (lattice rows) or on any, and
    ab:, expsum: (infinite-order vertices) and coset: (all orders finite)."""
    variables = ("X", "Y", "Z")[:rng.randrange(1, 4)]
    infinite = [v for v in p.vertices if p.order[v] is None]
    disjuncts = []
    for _ in range(rng.randrange(1, 3)):
        eqs = []
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.35:
                w = _word(rng, p, infinite if infinite and rng.random() < 0.8 else p.vertices,
                          rng.randrange(1, 4))
                eqs.append(commutator_term(rng.choice(variables), w))
            else:
                eqs.append(_term(rng, p, variables))
        cons = []
        for _ in range(rng.randrange(0, 4)):
            kind = rng.choice(("ab", "expsum", "coset"))
            if kind == "ab":
                cons.append(AbEq(_term(rng, p, variables), _term(rng, p, variables)))
            elif kind == "expsum" and infinite:
                cons.append(ExpSumEq(tuple((rng.choice((-2, -1, 1, 2, 3)), rng.choice(variables),
                                            rng.choice(infinite))
                                           for _ in range(rng.randrange(1, 4))),
                                     rng.randrange(-3, 4)))
            elif kind == "coset" and not infinite:
                cons.append(Coset(rng.choice(variables), _word(rng, p, p.vertices, 3)))
        disjuncts.append(Disjunct(tuple(eqs), tuple(cons)))
    return Instance(p, variables, tuple(disjuncts))


@pytest.mark.parametrize("name", GRAPHS)
def test_integer_shadow_verdicts_match_the_named_and_dense_ones(name):
    p = GRAPHS[name]
    rng = random.Random(2204)
    seen = set()
    for trial in range(400):
        inst = _random_instance(rng, p)
        named = abelian_shadow(inst)
        base = {x: s * len(p.vertices) for s, x in enumerate(inst.variables)}
        for i, d in enumerate(inst.disjuncts):
            rows, columns, multipliers, first, _ = disjunct_shadow(p, d, inst.variables)
            assert columns == len(inst.variables) * len(p.vertices) + len(multipliers)
            # the constraints' rows come last, in order
            assert rows[first:] == [r for con in d.constraints
                                    for r in constraint_rows(p, con, base)], (trial, i)
            values = solve_rows(rows, columns)
            verdict = values is not None
            assert named[i].rows == tuple(rows), (trial, i)
            assert verdict == bool(solve_linear_system(named[i])), (trial, i)
            assert verdict == diagonal_verdict(named[i]), (trial, i)
            if verdict:
                assert len(values) == columns
            seen.add((verdict, bool(multipliers),
                      any(k is not None for _, _, k in rows)))
    assert {v for v, _, _ in seen} == {True, False}
    if name != "pentagon":  # lattice rows need a word on infinite-order vertices
        assert any(m for _, m, _ in seen)
    if name in ("pentagon", "mixed"):
        assert any(c for _, _, c in seen)


@pytest.mark.parametrize("name", GRAPHS)
def test_the_printed_shadow_reads_back(name):
    """The text `abelcon shadow` prints parses to a system of the same
    verdict, which prints to the same bytes."""
    p = GRAPHS[name]
    rng = random.Random(2204)
    for trial in range(400):
        for i, system in enumerate(abelian_shadow(_random_instance(rng, p))):
            text = format_linear_system(system)
            read = parse_linear_system(text)
            assert format_linear_system(read) == text, (trial, i)
            assert bool(solve_linear_system(read)) == bool(solve_linear_system(system)), (trial, i)


def _planted_instance(rng, p):
    """An instance of one disjunct over X, Y, Z and values that satisfy it:
    each equation is a random term times the inverse of its value, a
    commutator [X, w] takes w a power of X's value, and the constants of
    ab:, expsum: and coset: are read off the values."""
    variables = ("X", "Y", "Z")[:rng.randrange(1, 4)]
    asg = {x: _word(rng, p, p.vertices, rng.randrange(0, 4)) for x in variables}
    infinite = [v for v in p.vertices if p.order[v] is None]
    eqs = []
    for _ in range(rng.randrange(1, 4)):
        x = rng.choice(variables)
        if rng.random() < 0.35 and not asg[x].is_identity():
            eqs.append(commutator_term(x, asg[x] ** rng.choice((1, 2))))
        else:
            t = _term(rng, p, variables)
            eqs.append(t * const_term(t.evaluate(p, asg).inverse()))
    cons = []
    for _ in range(rng.randrange(0, 4)):
        kind = rng.choice(("ab", "expsum", "coset"))
        if kind == "ab":
            lhs, rhs = _term(rng, p, variables), _term(rng, p, variables)
            gap = multiply(p, rhs.evaluate(p, asg).inverse(), lhs.evaluate(p, asg))
            cons.append(AbEq(lhs, rhs * const_term(gap)))
        elif kind == "expsum" and infinite:
            terms = tuple((rng.choice((-2, -1, 1, 2, 3)), rng.choice(variables), rng.choice(infinite))
                          for _ in range(rng.randrange(1, 4)))
            cons.append(ExpSumEq(terms, sum(c * asg[x].exponent_sums()[p.index[v]]
                                            for c, x, v in terms)))
        elif kind == "coset" and not infinite:
            x = rng.choice(variables)
            cons.append(Coset(x, asg[x]))
    return Instance(p, variables, (Disjunct(tuple(eqs), tuple(cons)),)), asg


@pytest.mark.parametrize("name", GRAPHS)
def test_shadow_rows_hold_at_the_exponent_sums_of_a_solution(name):
    """Every row without a multiplier column holds at the columns' exponent
    sums of a planted solution, and the whole shadow is solvable: it states
    necessary conditions, each unknown at its own column."""
    p = GRAPHS[name]
    rng = random.Random(1946)
    lattice_rows = 0
    for trial in range(300):
        inst, asg = _planted_instance(rng, p)
        assert evaluate(inst, asg).satisfied, trial
        rows, columns, multipliers, _, _ = disjunct_shadow(p, inst.disjuncts[0], inst.variables)
        first = columns - len(multipliers)
        sums = [e for x in inst.variables for e in asg[x].exponent_sums()]
        for coeffs, const, k in rows:
            if all(j < first for j in coeffs):
                t = sum(c * sums[j] for j, c in coeffs.items()) - const
                assert (t if k is None else t % k) == 0, (trial, coeffs, const, k)
            else:
                lattice_rows += 1
        assert solve_rows(rows, columns) is not None, trial
    assert lattice_rows or name == "pentagon"


SAT_PATH_INSTANCE = ("vars X Y\n"
                     "disjunct {\n  eq X Y^-1 = 1\n  eq X g2 X^-1 g2^-1 = 1\n"
                     "  expsum: 1 |X|_g1 = 2\n}\n")


def test_a_corrupted_back_substitution_fails_the_witness_check(monkeypatch):
    inst = parse_instance(SAT_PATH_INSTANCE, presentation=PATH)
    rows, columns, _, _, _ = disjunct_shadow(PATH, inst.disjuncts[0], inst.variables)
    named, = abelian_shadow(inst)
    # X.g1 - Y.g1 = 0 comes first, over the rows' own columns
    assert rows[0] == named.rows[0] == ({0: 1, 4: -1}, 0, None)
    assert (named.names[0], named.names[4]) == ("X.g1", "Y.g1")
    assert solve_rows(rows, columns) is not None and solve_linear_system(named)
    honest = abelian_mod._back_substitute

    def corrupted(steps, n):
        values = honest(steps, n)
        values[0] += 1
        return values

    monkeypatch.setattr(abelian_mod, "_back_substitute", corrupted)
    with pytest.raises(AssertionError, match="bad witness"):
        solve_rows(rows, columns)
    with pytest.raises(AssertionError, match="bad witness"):
        solve_linear_system(named)
