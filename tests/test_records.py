"""The package's records are NamedTuples: immutable, with the repr and hash
a frozen dataclass had, and the two validated ones still check on
construction."""

import random

import pytest

from abelcon.abelian import LinearEquation, LinearSystem, SolvabilityResult
from abelcon.compilers import (
    AtomizedH10,
    ConstDef,
    EqDef,
    H10Instance,
    Monomial,
    Polynomial,
    ProdDef,
    SumDef,
    atomize,
    compile_h10_free,
    integers_into_free_interpretation,
    parse_h10,
)
from abelcon.errors import ParseError
from abelcon.graphs import WeakModule
from abelcon.instances import (
    AbEq,
    ConstAtom,
    Coset,
    Disjunct,
    EvalResult,
    ExpSumEq,
    GroupTerm,
    Instance,
    LengthEq,
    VarAtom,
    var_term,
)
from abelcon.words import Presentation, parse_word


def _records():
    f2 = Presentation.free("ab")
    fs = Presentation.free(["s1", "s2"])
    a = parse_word(f2, "a")
    eq = LinearEquation((("x", 2), ("y", -1)), 3, modulus=4)
    mono = Monomial(2, ("x", "y"))
    poly = Polynomial((mono, Monomial(-1, ("z",))))
    term = GroupTerm((VarAtom("X"), ConstAtom(a), VarAtom("X", True)))
    disjunct = Disjunct((term,), (AbEq(var_term("X"), GroupTerm((ConstAtom(a),))),
                                  ExpSumEq(((1, "X", "a"),), 0), LengthEq(((1, "X"),), 1)))
    return [
        eq,
        LinearSystem((eq,)),
        SolvabilityResult("SAT", {"x": 1}),
        mono,
        poly,
        H10Instance((poly,)),
        ConstDef("_k0", 3),
        SumDef("_s0", "x", "y"),
        ProdDef("_p0", "x", "y"),
        EqDef("x", "_s0"),
        AtomizedH10(("x", "y"), (ConstDef("_k0", 3), EqDef("x", "_k0"))),
        compile_h10_free(parse_h10("1*x*y -1*z = 0"), fs),
        integers_into_free_interpretation(fs, "s1", Presentation.free("t")),
        WeakModule(("a", "b")),
        VarAtom("X", True),
        ConstAtom(a),
        term,
        disjunct.constraints[0],
        disjunct.constraints[1],
        disjunct.constraints[2],
        Coset("X", parse_word(Presentation.racg("ab", []), "a")),
        disjunct,
        Instance(f2, ("X",), (disjunct,)),
        EvalResult(True, 0),
    ]


RECORDS = _records()


def _has_dict(value) -> bool:
    return isinstance(value, dict) or isinstance(value, tuple) and any(map(_has_dict, value))


def test_every_record_kind_is_sampled():
    assert len({type(r) for r in RECORDS}) == len(RECORDS) == 24


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_is_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[-1]))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_reprs_its_fields_by_name(record):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_a_repr_reads_as_before():
    assert repr(VarAtom("X", True)) == "VarAtom(name='X', inverse=True)"
    assert repr(ConstDef("_k0", 3)) == "ConstDef(var='_k0', value=3)"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_hashes_as_its_fields(record):
    rebuilt = type(record)(*(getattr(record, name) for name in record._fields))
    assert rebuilt == record
    if _has_dict(tuple(record)):  # a dict field: unhashable, as before
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(rebuilt) == hash(record) == hash(tuple(record))


def test_an_instance_still_validates_on_construction():
    f2 = Presentation.free("ab")
    d = Disjunct((var_term("X"),), ())
    assert Instance(f2, ("X",), (d,)).graph_ref is None
    assert Instance(f2, ("X",), (d,), "f2.graph") == Instance(
        presentation=f2, variables=("X",), disjuncts=(d,), graph_ref="f2.graph")
    for variables, disjuncts, message in ((("X", "X"), (d,), "duplicate"),
                                          (("X", "a"), (d,), "collides"),
                                          (("X",), (), "at least one disjunct")):
        with pytest.raises(ParseError, match=message):
            Instance(f2, variables, disjuncts)


def test_an_h10_instance_still_validates_on_construction():
    with pytest.raises(ParseError, match="at least one"):
        H10Instance(())
    with pytest.raises(ParseError, match="bad integer variable"):
        H10Instance((Polynomial((Monomial(1, ("_x",)),)),))


def test_a_failed_result_stays_falsy():
    assert not EvalResult(False, None) and EvalResult(True, 0)
    assert not SolvabilityResult("UNSAT") and SolvabilityResult("SAT", {})


def _random_system(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randint(1, 3)):
        monomials = []
        for _ in range(rng.randint(1, 4)):
            vars_ = rng.choices("xyzw", k=rng.randint(0, 3))
            monomials.append("*".join([str(rng.choice([-3, -2, -1, 1, 2, 3]))] + vars_))
        lines.append(" ".join(monomials) + " = 0")
    return "\n".join(lines) + "\n"


def test_atomize_never_gives_a_sum_and_a_product_equal_fields():
    rng = random.Random(5)
    for _ in range(200):
        atoms = atomize(parse_h10(_random_system(rng))).atoms
        sums = {tuple(a) for a in atoms if isinstance(a, SumDef)}
        prods = {tuple(a) for a in atoms if isinstance(a, ProdDef)}
        assert not sums & prods
