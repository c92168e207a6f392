"""The instance language: equation systems with constraints over a graph product.

An instance is a disjunction of systems; each system has group equations
(terms required to equal the identity) and constraints of four kinds:
abelianisation equalities, linear exponent-sum equations, linear length
equations, and commutator-subgroup coset membership. Instances are immutable;
evaluation is pure.

Abelianisation is a homomorphism, so ab:, coset: and expsum: constraints are
linear rows on the values' exponent sums (`constraint_rows`), which the
shadow solves and the search checks (`compile_constraint`).
`_constraint_holds` re-checks a witness independently of both: ab: adds up
the images of each side's atom values (`abelianize_product`) and compares
the two.

The records here and in `abelian`, `compilers` and `graphs` are
`NamedTuple`s: they compare and hash as the tuples of their fields, so two
kinds with the same field shape compare equal. Of the kinds that share a
collection, only two pairs share a shape. A `compilers.SumDef` and a
`ProdDef` never have equal fields, because `atomize` names their variables
`_s...` and `_p...`. An `ExpSumEq` and a `LengthEq` with no terms are equal,
and both state 0 = constant.
"""

from __future__ import annotations

import os
import re
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .abelian import AbelVector, abelianize, abelianize_product, exponent_sum, is_abelian_primitive
from .errors import (
    IncompleteAssignment,
    InfiniteAbelianisation,
    NotAbelianPrimitive,
    ParseError,
    UnknownVariable,
    UnknownVertex,
)
from .abelian import LinearEquation, LinearSystem
from .words import (
    NormalWord,
    Presentation,
    _check,
    _repeat_count,
    centralizer_generators,
    format_word,
    geodesic_length,
    multiply,
    parse_int,
    parse_word,
    product,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class VarAtom(NamedTuple):
    name: str
    inverse: bool = False

    def inverted(self) -> "VarAtom":
        return VarAtom(self.name, not self.inverse)


class ConstAtom(NamedTuple):
    word: NormalWord

    def inverted(self) -> "ConstAtom":
        return ConstAtom(self.word.inverse())


Atom = Union[VarAtom, ConstAtom]


class GroupTerm(NamedTuple):
    """A product of variables, inverted variables, and constant words."""
    atoms: tuple[Atom, ...]

    def variables(self) -> set[str]:
        return {a.name for a in self.atoms if isinstance(a, VarAtom)}

    def factors(self, asg: dict[str, NormalWord]) -> Iterator[tuple[NormalWord, bool]]:
        """The atoms' values as `product` factors; an x^-1 atom is x's value
        as an inverted factor."""
        return ((a.word, False) if isinstance(a, ConstAtom) else (asg[a.name], a.inverse)
                for a in self.atoms)

    def evaluate(self, p: Presentation, asg: dict[str, NormalWord]) -> NormalWord:
        """The product of the atoms' values, normalised once."""
        return product(p, self.factors(asg))

    def inverse(self) -> "GroupTerm":
        return GroupTerm(tuple(a.inverted() for a in reversed(self.atoms)))

    def __mul__(self, other: "GroupTerm") -> "GroupTerm":
        return GroupTerm(self.atoms + other.atoms)


def var_term(name: str, inverse: bool = False) -> GroupTerm:
    return GroupTerm((VarAtom(name, inverse),))


def const_term(word: NormalWord) -> GroupTerm:
    return GroupTerm((ConstAtom(word),)) if not word.is_identity() else GroupTerm(())


def commutator_term(x: str, w: NormalWord) -> GroupTerm:
    """[x, w] = x w x^-1 w^-1 as a term; equals 1 iff x commutes with w."""
    return GroupTerm((VarAtom(x), ConstAtom(w), VarAtom(x, True), ConstAtom(w.inverse())))


class AbEq(NamedTuple):
    """ab(lhs) = ab(rhs) in the abelianisation."""
    lhs: GroupTerm
    rhs: GroupTerm


class ExpSumEq(NamedTuple):
    """sum(coeff * |var|_vertex) = constant over abelian-primitive vertices."""
    terms: tuple[tuple[int, str, str], ...]  # (coeff, variable, vertex)
    constant: int


class LengthEq(NamedTuple):
    """sum(coeff * |var|) = constant in geodesic length; evaluable but never pruned on."""
    terms: tuple[tuple[int, str], ...]
    constant: int


class Coset(NamedTuple):
    """variable lies in rep * G' (commutator subgroup coset)."""
    variable: str
    rep: NormalWord


Constraint = Union[AbEq, ExpSumEq, LengthEq, Coset]


def constraint_variables(con: Constraint) -> set[str]:
    """The variables a constraint mentions."""
    if isinstance(con, AbEq):
        return con.lhs.variables() | con.rhs.variables()
    if isinstance(con, ExpSumEq):
        return {var for _, var, _ in con.terms}
    if isinstance(con, LengthEq):
        return {var for _, var in con.terms}
    if isinstance(con, Coset):
        return {con.variable}
    raise TypeError(f"unknown constraint {con!r}")


class Disjunct(NamedTuple):
    equations: tuple[GroupTerm, ...]
    constraints: tuple[Constraint, ...]


class _InstanceFields(NamedTuple):
    presentation: Presentation
    variables: tuple[str, ...]
    disjuncts: tuple[Disjunct, ...]
    graph_ref: Optional[str] = None


class Instance(_InstanceFields):
    """A disjunction of systems over one presentation, validated when built.
    `_replace` skips the checks: build a changed instance with `Instance(...)`."""
    __slots__ = ()

    def __new__(cls, presentation: Presentation, variables: tuple[str, ...],
                disjuncts: tuple[Disjunct, ...], graph_ref: Optional[str] = None):
        self = super().__new__(cls, presentation, variables, disjuncts, graph_ref)
        if not disjuncts:
            raise ParseError("instance needs at least one disjunct")
        declared = set(variables)
        if len(declared) != len(variables):
            raise ParseError("duplicate variable names")
        for v in variables:
            if not _NAME_RE.match(v):
                raise ParseError(f"bad variable name {v!r}")
            if v in presentation.index:
                raise ParseError(f"variable {v!r} collides with a vertex name")
        for d in disjuncts:
            for term in d.equations:
                self._check_term(term, declared)
            for con in d.constraints:
                self._check_constraint(con, declared)
        return self

    def _check_term(self, term: GroupTerm, declared: set[str]) -> None:
        for a in term.atoms:
            if isinstance(a, VarAtom) and a.name not in declared:
                raise UnknownVariable(f"undeclared variable {a.name!r}")

    def _check_constraint(self, con: Constraint, declared: set[str]) -> None:
        undeclared = constraint_variables(con) - declared
        if undeclared:
            raise UnknownVariable(f"undeclared variable {min(undeclared)!r}")
        if isinstance(con, ExpSumEq):
            for _, _, vertex in con.terms:
                if not is_abelian_primitive(self.presentation, vertex):
                    raise NotAbelianPrimitive(
                        f"exponent-sum constraint at finite-order vertex {vertex!r}")
        elif isinstance(con, Coset) and not self.presentation.has_finite_abelianisation():
            raise InfiniteAbelianisation("coset constraints need every vertex order finite")


# ---------------------------------------------------------------------------
# evaluation


class EvalResult(NamedTuple):
    satisfied: bool
    disjunct: Optional[int]

    def __bool__(self):
        return self.satisfied


def _constraint_holds(p: Presentation, con: Constraint, asg: dict[str, NormalWord]) -> bool:
    """con checked on the values themselves, apart from the rows that the
    shadow and the search read. ab: compares the images of the two sides,
    each summed from its atom values (`abelianize_product`)."""
    if isinstance(con, AbEq):
        return (abelianize_product(p, con.lhs.factors(asg))
                == abelianize_product(p, con.rhs.factors(asg)))
    if isinstance(con, ExpSumEq):
        total = sum(c * exponent_sum(p, asg[var], vertex) for c, var, vertex in con.terms)
        return total == con.constant
    if isinstance(con, LengthEq):
        total = sum(c * geodesic_length(p, asg[var]) for c, var in con.terms)
        return total == con.constant
    if isinstance(con, Coset):
        return abelianize(p, asg[con.variable]) == abelianize(p, con.rep)
    raise TypeError(f"unknown constraint {con!r}")


def compile_constraint(p: Presentation, con: Constraint
                       ) -> Callable[[dict[str, NormalWord]], bool]:
    """con as a check on the values' exponent sums (kept on each word once
    computed): each of its `constraint_rows` holds, exactly or mod k; len:
    sums geodesic lengths instead. No word is multiplied."""
    if isinstance(con, LengthEq):
        return lambda asg: (sum(c * geodesic_length(p, asg[var]) for c, var in con.terms)
                            == con.constant)
    rows = constraint_rows(p, con)

    def holds(asg: dict[str, NormalWord]) -> bool:
        for coeffs, const, k in rows:
            t = -const
            for var, i, c in coeffs:
                t += c * asg[var].exponent_sums()[i]
            if t if k is None else t % k:
                return False
        return True
    return holds


def evaluate(inst: Instance, asg: dict[str, NormalWord]) -> EvalResult:
    """The first disjunct the assignment satisfies: every equation, checked
    by multiplying words, then every constraint (`_constraint_holds`)."""
    missing = [v for v in inst.variables if v not in asg]
    if missing:
        raise IncompleteAssignment(f"missing values for {missing}")
    p = inst.presentation
    for i, d in enumerate(inst.disjuncts):
        if (all(t.evaluate(p, asg).is_identity() for t in d.equations)
                and all(_constraint_holds(p, c, asg) for c in d.constraints)):
            return EvalResult(True, i)
    return EvalResult(False, None)


# ---------------------------------------------------------------------------
# flattening


def is_short(term: GroupTerm) -> bool:
    """Short forms: z = x y (three atoms ending in an inverted variable),
    x = y, and x = h (at most two atoms)."""
    if len(term.atoms) <= 2:
        return True
    return (len(term.atoms) == 3 and isinstance(term.atoms[2], VarAtom)
            and term.atoms[2].inverse)


class _FreshNames:
    def __init__(self, taken: Iterable[str], prefix: str = "_f"):
        self.taken = set(taken)
        self.prefix = prefix
        self.counter = 0

    def next(self) -> str:
        while True:
            name = f"{self.prefix}{self.counter}"
            self.counter += 1
            if name not in self.taken:
                self.taken.add(name)
                return name


def flatten(inst: Instance) -> Instance:
    """Rewrite every equation into short form and every AbEq side into a variable.

    Fresh variables `_f0, _f1, ...` are introduced deterministically left to
    right; projecting the flattened solution set onto the original variables
    is exactly the original solution set.
    """
    fresh = _FreshNames(inst.variables)
    new_disjuncts = []
    new_vars = list(inst.variables)

    def flatten_term(term: GroupTerm, out_eqs: list[GroupTerm]) -> GroupTerm:
        atoms = list(term.atoms)
        while not is_short(GroupTerm(tuple(atoms))):
            w = fresh.next()
            new_vars.append(w)
            out_eqs.append(GroupTerm((atoms[0], atoms[1], VarAtom(w, True))))
            atoms = [VarAtom(w)] + atoms[2:]
        return GroupTerm(tuple(atoms))

    def as_variable(term: GroupTerm, out_eqs: list[GroupTerm]) -> GroupTerm:
        if len(term.atoms) == 1 and isinstance(term.atoms[0], VarAtom) and not term.atoms[0].inverse:
            return term
        w = fresh.next()
        new_vars.append(w)
        short = flatten_term(term * var_term(w, inverse=True), out_eqs)
        out_eqs.append(short)
        return var_term(w)

    for d in inst.disjuncts:
        eqs: list[GroupTerm] = []
        cons: list[Constraint] = []
        for term in d.equations:
            short = flatten_term(term, eqs)
            eqs.append(short)
        for con in d.constraints:
            if isinstance(con, AbEq):
                lhs = as_variable(con.lhs, eqs)
                rhs = as_variable(con.rhs, eqs)
                cons.append(AbEq(lhs, rhs))
            else:
                cons.append(con)
        new_disjuncts.append(Disjunct(tuple(eqs), tuple(cons)))
    return Instance(inst.presentation, tuple(new_vars), tuple(new_disjuncts), inst.graph_ref)


def isolate_variable(p: Presentation, term: GroupTerm, k: int,
                     asg: dict[str, NormalWord]) -> NormalWord:
    """The value of the variable at atoms[k] that makes term = 1.

    Every other atom must be ground under asg: P * a * S = 1 gives
    a = (S * P)^-1, so the variable is (S * P)^-1, or S * P when a is x^-1.
    """
    sp = GroupTerm(term.atoms[k + 1:] + term.atoms[:k]).evaluate(p, asg)
    return sp if term.atoms[k].inverse else sp.inverse()


# ---------------------------------------------------------------------------
# abelian shadow


def shadow_unknown(var: str, vertex: str) -> str:
    return f"{var}.{vertex}"


def linear_form(p: Presentation, terms: list[tuple[GroupTerm, int]]
                ) -> tuple[tuple[tuple[str, int], ...], tuple[int, ...]]:
    """sum(sign * ab(term)) as a linear form: the signed count of each
    variable, then the sum of the constant atoms' exponent-sum vectors.

    Every occurrence of a variable adds the same sign at every vertex, so a
    variable has one signed count; variables whose count is 0 are left out.
    The sums are unreduced. A constant over another presentation raises
    PresentationMismatch.
    """
    var_counts: dict[str, int] = {}
    const = [0] * len(p.vertices)
    for term, sign in terms:
        for a in term.atoms:
            if isinstance(a, VarAtom):
                var_counts[a.name] = var_counts.get(a.name, 0) + (-sign if a.inverse else sign)
            else:
                _check(p, a.word)
                const = [c + sign * e for c, e in zip(const, a.word.exponent_sums())]
    return tuple((name, c) for name, c in var_counts.items() if c), tuple(const)


def abelian_sides(con: Union[AbEq, Coset]) -> list[tuple[GroupTerm, int]]:
    """Signed terms whose abelian images sum to 0 exactly when con holds."""
    if isinstance(con, AbEq):
        return [(con.lhs, 1), (con.rhs, -1)]
    return [(var_term(con.variable), 1), (const_term(con.rep), -1)]


# sum(c * |var|_vertex) over the (var, vertex index, c) coefficients equals
# the constant: exactly when the modulus is None, mod the modulus otherwise
Row = tuple[tuple[tuple[str, int, int], ...], int, Optional[int]]


def _image_rows(p: Presentation, terms: list[tuple[GroupTerm, int]]) -> list[Row]:
    """Rows stating sum(sign * ab(term)) = 0, one per vertex: each variable's
    signed count is its coefficient, and the constant is reduced mod k at a
    vertex of order k."""
    counts, const = linear_form(p, terms)
    return [(tuple((name, i, n) for name, n in counts), -(c if k is None else c % k), k)
            for i, (c, k) in enumerate(zip(const, (p.order[v] for v in p.vertices)))]


def constraint_rows(p: Presentation, con: Constraint) -> list[Row]:
    """The linear rows on the variables' exponent sums that state con.

    ab: and coset: give one row per vertex from their linear form. expsum:
    gives one exact row, a repeated (variable, vertex) summed into one
    coefficient, kept when it sums to 0. len: gives none, as lengths are not
    linear in exponent sums. The shadow and the search's compiled checks
    both read these rows, so they agree by construction.
    """
    if isinstance(con, LengthEq):
        return []
    if isinstance(con, ExpSumEq):
        coeffs: dict[tuple[str, int], int] = {}
        for c, var, vertex in con.terms:
            key = (var, p.index[vertex])
            coeffs[key] = coeffs.get(key, 0) + c
        return [(tuple((var, i, c) for (var, i), c in coeffs.items()), con.constant, None)]
    return _image_rows(p, abelian_sides(con))


def _centralizer_lattice_rows(p: Presentation, var: str, w: NormalWord,
                              tag: str) -> list[LinearEquation]:
    """Rows confining ab(var) to the lattice spanned by ab of C(w)'s generators.

    Sound strengthening of the shadow for a commutator equation [var, w] = 1,
    emitted only when every vertex of w's support has infinite order; rows
    for a torsion support would be sound too, but would change verdicts.
    Abelianisation kills the conjugator, so the images come straight from
    the cached description: each cyclic part's exponent sums, then the unit
    vector of each link vertex.
    """
    if any(p.order[v] is not None for v, _ in w.syllables):
        return []
    desc = centralizer_generators(p, w)
    images = [AbelVector(p, b.exponent_sums()).coords for b in desc.cyclic_parts]
    images += [tuple(int(u == v) for v in p.vertices)
               for u in sorted(desc.link_vertices, key=p.index.__getitem__)]
    rows = []
    for i, v in enumerate(p.vertices):
        coeffs = [(shadow_unknown(var, v), 1)]
        for j, image in enumerate(images):
            if image[i]:
                coeffs.append((f"{tag}.lam{j}", -image[i]))
        rows.append(LinearEquation(tuple(coeffs), 0, modulus=p.order[v]))
    return rows


def _commutator_shape(term: GroupTerm):
    """Detect [X, w] = 1 with w constant; returns (var, word) or None."""
    if len(term.atoms) != 4:
        return None
    a0, a1, a2, a3 = term.atoms
    if (isinstance(a0, VarAtom) and isinstance(a2, VarAtom) and a0.name == a2.name
            and a0.inverse != a2.inverse and isinstance(a1, ConstAtom)
            and isinstance(a3, ConstAtom) and multiply(a1.word.pres, a1.word, a3.word).is_identity()):
        return a0.name, a1.word
    if (isinstance(a1, VarAtom) and isinstance(a3, VarAtom) and a1.name == a3.name
            and a1.inverse != a3.inverse and isinstance(a0, ConstAtom)
            and isinstance(a2, ConstAtom) and multiply(a0.word.pres, a0.word, a2.word).is_identity()):
        return a1.name, a0.word
    return None


def disjunct_shadow(p: Presentation, d: Disjunct) -> LinearSystem:
    """Necessary linear conditions on the ab coordinates of a disjunct's solutions.

    An equation term = 1 gives the rows of ab(term) = 0, then, for a
    commutator, its centralizer lattice rows; each constraint gives its
    `constraint_rows`. The unknown X.v is the exponent sum of X at v; rows
    with no unknown and constant 0 are left out.
    """
    rows: list[LinearEquation] = []

    def add(new: list[Row]) -> None:
        for coeffs, const, k in new:
            if coeffs or const:
                rows.append(LinearEquation(tuple((shadow_unknown(var, p.vertices[i]), c)
                                                 for var, i, c in coeffs), const, modulus=k))

    for i, term in enumerate(d.equations):
        add(_image_rows(p, [(term, 1)]))
        shape = _commutator_shape(term)
        if shape is not None and not shape[1].is_identity():
            rows.extend(_centralizer_lattice_rows(p, shape[0], shape[1], f"eq{i}"))
    for con in d.constraints:
        add(constraint_rows(p, con))
    return LinearSystem(tuple(rows))


def abelian_shadow(inst: Instance) -> list[LinearSystem]:
    """One linear system per disjunct; an UNSAT shadow refutes its disjunct."""
    return [disjunct_shadow(inst.presentation, d) for d in inst.disjuncts]


# ---------------------------------------------------------------------------
# textual format


def format_term(p: Presentation, term: GroupTerm) -> str:
    if not term.atoms:
        return "1"
    parts = []
    i = 0
    atoms = term.atoms
    while i < len(atoms):
        a = atoms[i]
        if isinstance(a, VarAtom):
            j = i
            while j + 1 < len(atoms) and atoms[j + 1] == a:
                j += 1
            count = j - i + 1
            exp = -count if a.inverse else count
            parts.append(a.name if exp == 1 else f"{a.name}^{exp}")
            i = j + 1
        else:
            body = format_word(a.word)
            if len(a.word.syllables) <= 1:
                parts.append(body)
            else:
                parts.append(f"( {body} )")
            i += 1
    return " ".join(parts)


def _format_constraint(p: Presentation, con: Constraint) -> str:
    if isinstance(con, AbEq):
        return f"ab: {format_term(p, con.lhs)} = {format_term(p, con.rhs)}"
    if isinstance(con, ExpSumEq):
        body = " ".join(f"{c} |{var}|_{vertex}" for c, var, vertex in con.terms)
        return f"expsum: {body} = {con.constant}"
    if isinstance(con, LengthEq):
        body = " ".join(f"{c} |{var}|" for c, var in con.terms)
        return f"len: {body} = {con.constant}"
    if isinstance(con, Coset):
        return f"coset: {con.variable} in {format_word(con.rep)} * G'"
    raise TypeError(f"unknown constraint {con!r}")


def print_instance(inst: Instance) -> str:
    lines = []
    if inst.graph_ref is not None:
        lines.append(f"group {inst.graph_ref}")
    else:
        lines.append("graph {")
        for raw in inst.presentation.to_text().strip().splitlines():
            lines.append("  " + raw)
        lines.append("}")
    lines.append("vars " + " ".join(inst.variables))
    for d in inst.disjuncts:
        lines.append("disjunct {")
        for term in d.equations:
            lines.append(f"  eq {format_term(inst.presentation, term)} = 1")
        for con in d.constraints:
            lines.append("  " + _format_constraint(inst.presentation, con))
        lines.append("}")
    return "\n".join(lines) + "\n"


class _Parser:
    def __init__(self, text: str, base_dir: Optional[str], presentation: Optional[Presentation]):
        self.lines = text.splitlines()
        self.base_dir = base_dir or "."
        self.pres = presentation
        self.graph_ref: Optional[str] = None
        self.variables: list[str] = []
        self.disjuncts: list[Disjunct] = []
        # each variable's atoms, plain and inverted, and each constant's
        # atoms by its text, so that a constant is normalised once per parse
        self.var_atoms: dict[str, tuple[VarAtom, VarAtom]] = {}
        self.constants: dict[str, tuple[Atom, ...]] = {}

    def fail(self, msg: str, ln: int) -> None:
        raise ParseError(msg, line=ln)

    def word(self, text: str, ln: int) -> NormalWord:
        """`parse_word` over the current presentation; its errors, which
        carry no line, are raised again as ParseError at line ln."""
        try:
            return parse_word(self.pres, text)
        except (ParseError, UnknownVertex) as exc:
            raise ParseError(str(exc), line=ln) from None

    def parse(self) -> Instance:
        i = 0
        n = len(self.lines)
        has_section = False
        while i < n:
            line = self.lines[i].split("#", 1)[0].strip()
            i += 1
            if not line:
                continue
            if line.startswith("group ") or line == "graph {":
                if has_section:
                    self.fail("a second group/graph section", i)
                has_section = True
                self.constants = {}  # constants parsed so far belong to the old presentation
            if line.startswith("group "):
                self.graph_ref = line[len("group "):].strip()
                path = os.path.join(self.base_dir, self.graph_ref)
                try:
                    with open(path, encoding="utf-8") as fh:
                        self.pres = Presentation.from_text(fh.read())
                except (OSError, UnicodeDecodeError) as exc:
                    self.fail(f"cannot read graph file {path!r}: {exc}", i)
            elif line == "graph {":
                block = []
                while i < n and self.lines[i].split("#", 1)[0].strip() != "}":
                    block.append(self.lines[i])
                    i += 1
                if i >= n:
                    self.fail("unterminated graph block", i)
                i += 1
                self.pres = Presentation.from_text("\n".join(block))
            elif line.split()[0] == "vars":
                self.variables.extend(line.split()[1:])
                self.var_atoms = {v: (VarAtom(v), VarAtom(v, True)) for v in self.variables}
            elif line.startswith("disjunct"):
                if line[len("disjunct"):].strip() != "{":
                    self.fail("expected 'disjunct {'", i)
                stmts: list[tuple[str, int]] = []
                while i < n:
                    body = self.lines[i].split("#", 1)[0].strip()
                    i += 1
                    if body == "}":
                        break
                    for stmt in body.split(";"):
                        stmt = stmt.strip()
                        if stmt:
                            stmts.append((stmt, i))
                else:
                    self.fail("unterminated disjunct block", i)
                self.disjuncts.append(self.parse_disjunct(stmts))
            else:
                self.fail(f"unrecognized line {line!r}", i)
        if self.pres is None:
            raise ParseError("no group/graph section and no presentation supplied")
        return Instance(self.pres, tuple(self.variables), tuple(self.disjuncts), self.graph_ref)

    # -- statement level -----------------------------------------------------

    def parse_disjunct(self, stmts: list[tuple[str, int]]) -> Disjunct:
        if self.pres is None:
            self.fail("group/graph section must precede disjuncts",
                      stmts[0][1] if stmts else 0)
        eqs: list[GroupTerm] = []
        cons: list[Constraint] = []
        has_eq_section = False
        for stmt, ln in stmts:
            if stmt.startswith("eq "):
                has_eq_section = True
                body = stmt[3:]
                if not body.rstrip().endswith("= 1"):
                    self.fail("equation must end with '= 1'", ln)
                eqs.append(self.parse_term(body.rstrip()[:-3], ln))
            elif stmt.startswith("ab:"):
                lhs, _, rhs = stmt[3:].partition("=")
                if not _:
                    self.fail("ab constraint needs '='", ln)
                cons.append(AbEq(self.parse_term(lhs, ln), self.parse_term(rhs, ln)))
            elif stmt.startswith("expsum:"):
                cons.append(ExpSumEq(*self.parse_linear(
                    "expsum", stmt[7:], ln, "|Var|_vertex",
                    r"\|([A-Za-z_][A-Za-z0-9_]*)\|_(\S+)$")))
            elif stmt.startswith("len:"):
                cons.append(LengthEq(*self.parse_linear(
                    "len", stmt[4:], ln, "|Var|", r"\|([A-Za-z_][A-Za-z0-9_]*)\|$")))
            elif stmt.startswith("coset:"):
                cons.append(self.parse_coset(stmt[6:], ln))
            else:
                self.fail(f"unrecognized statement {stmt!r}", ln)
        if not has_eq_section:
            self.fail("disjunct has no equations section", stmts[0][1] if stmts else 0)
        return Disjunct(tuple(eqs), tuple(cons))

    def parse_term(self, text: str, ln: int) -> GroupTerm:
        tokens = text.replace("(", " ( ").replace(")", " ) ").split()
        atoms: list[Atom] = []
        pos = 0

        def take_factor():
            nonlocal pos
            coeff = 1
            tok = tokens[pos]
            if "*" in tok and not tok.startswith("("):
                left, _, rest = tok.partition("*")
                coeff = parse_int(left, f"bad integer multiplier in {tok!r}", ln)
                if rest:
                    tokens[pos] = rest
                else:
                    pos += 1
                if pos >= len(tokens):
                    self.fail(f"multiplier {tok!r} has no factor after it", ln)
            tok = tokens[pos]
            if tok == "(":
                pos += 1
                inner = []
                while pos < len(tokens) and tokens[pos] != ")":
                    inner.append(tokens[pos])
                    pos += 1
                if pos >= len(tokens):
                    self.fail("unbalanced parenthesis", ln)
                pos += 1
                power = ""
                if pos < len(tokens) and tokens[pos].startswith("^"):
                    power = tokens[pos]
                    pos += 1
                key = f"( {' '.join(inner)} ){power}"
                cached = self.constants.get(key)
                if cached is None:
                    exp = parse_int(power[1:], f"bad exponent {power!r}", ln) if power else 1
                    word = self.word(" ".join(inner), ln) ** exp
                    cached = self.constants[key] = const_term(word).atoms
                return cached, coeff
            pos += 1
            name, caret, exps = tok.partition("^")
            pair = self.var_atoms.get(name)
            if pair is not None:
                exp = parse_int(exps, f"bad exponent in {tok!r}", ln) if caret else 1
                return (pair[exp < 0],) * _repeat_count(exp), coeff
            cached = self.constants.get(tok)
            if cached is None:
                if caret:  # a bad exponent is reported with its line
                    parse_int(exps, f"bad exponent in {tok!r}", ln)
                if name == "1":
                    cached = ()
                else:
                    try:
                        cached = const_term(parse_word(self.pres, tok)).atoms
                    except UnknownVertex:
                        self.fail(f"unknown variable or vertex {name!r}", ln)
                    except ParseError as exc:  # an exponent on a run like ab^2
                        self.fail(str(exc), ln)
                self.constants[tok] = cached
            return cached, coeff

        while pos < len(tokens):
            factors, coeff = take_factor()
            if coeff < 0:
                factors = [a.inverted() for a in reversed(factors)]
            atoms.extend(factors * _repeat_count(coeff))
        return GroupTerm(tuple(atoms))

    def parse_linear(self, kind: str, text: str, ln: int, item: str,
                     pattern: str) -> tuple[tuple[tuple, ...], int]:
        """`c1 item1 c2 item2 ... = k`: the (c, *pattern groups) pairs and k."""
        tokens = text.split()
        if "=" not in tokens:
            self.fail(f"{kind} constraint needs '='", ln)
        at = tokens.index("=")
        if len(tokens) != at + 2:
            self.fail(f"{kind} right-hand side must be one integer", ln)
        constant = parse_int(tokens[at + 1], f"bad constant {tokens[at + 1]!r}", ln)
        items = tokens[:at]
        if len(items) % 2:
            self.fail(f"{kind} needs coefficient {item} pairs", ln)
        terms = []
        for i in range(0, len(items), 2):
            c = parse_int(items[i], f"bad coefficient {items[i]!r}", ln)
            m = re.match(pattern, items[i + 1])
            if not m:
                self.fail(f"expected {item}, got {items[i + 1]!r}", ln)
            terms.append((c, *m.groups()))
        return tuple(terms), constant

    def parse_coset(self, text: str, ln: int) -> Coset:
        m = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s+in\s+(.*?)\s*\*\s*G'\s*$", text)
        if not m:
            self.fail(f"expected 'X in <word> * G'', got {text!r}", ln)
        return Coset(m.group(1), self.word(m.group(2), ln))


def parse_instance(text: str, base_dir: Optional[str] = None,
                   presentation: Optional[Presentation] = None) -> Instance:
    """Parse the instance grammar; graph files resolve relative to base_dir."""
    return _Parser(text, base_dir, presentation).parse()
