"""The instance language: equation systems with constraints over a graph product.

An instance is a disjunction of systems; each system has group equations
(terms required to equal the identity) and constraints of four kinds:
abelianisation equalities, linear exponent-sum equations, linear length
equations, and commutator-subgroup coset membership. Instances are immutable;
evaluation is pure.

Abelianisation is a homomorphism, so ab:, coset: and expsum: constraints are
linear rows on the values' exponent sums (`constraint_rows`), built once per
disjunct over integer columns (`disjunct_shadow`): the search solves them as
the shadow and checks the same rows node by node, and `abelian_shadow` puts
names on the columns to print, and converts no row.
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
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .abelian import (
    LinearSystem,
    Row,
    abelianize,
    abelianize_product,
    exponent_sum,
    is_abelian_primitive,
)
from .errors import (
    IncompleteAssignment,
    InfiniteAbelianisation,
    NotAbelianPrimitive,
    ParseError,
    UnknownVariable,
    UnknownVertex,
)
from .words import (
    NormalWord,
    Presentation,
    _check,
    _repeat_count,
    centralizer_generators,
    content_lines,
    format_word,
    geodesic_length,
    is_trivial,
    multiply,
    parse_int,
    parse_word,
    parse_word_at,
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
    """sum(coeff * |var|) = constant in geodesic length: pruned on by the walk, not in the shadow."""
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
    shadow and the search read. ab: compares the images of the two sides as
    reduced tuples, each summed from its atom values (`abelianize_product`);
    coset: compares the images of the value and the representative."""
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


def evaluate(inst: Instance, asg: dict[str, NormalWord]) -> EvalResult:
    """The first disjunct the assignment satisfies: every equation, checked
    by multiplying words into an unsorted reduced list (`is_trivial`), then
    every constraint (`_constraint_holds`)."""
    missing = [v for v in inst.variables if v not in asg]
    if missing:
        raise IncompleteAssignment(f"missing values for {missing}")
    p = inst.presentation
    for i, d in enumerate(inst.disjuncts):
        if (all(is_trivial(p, t.factors(asg)) for t in d.equations)
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
    """Names prefix0, prefix1, ... that avoid ``taken``; ``names`` lists those handed out."""
    def __init__(self, taken: Iterable[str], prefix: str = "_f"):
        self.taken = set(taken)
        self.prefix = prefix
        self.counter = 0
        self.names: list[str] = []

    def next(self) -> str:
        while True:
            name = f"{self.prefix}{self.counter}"
            self.counter += 1
            if name not in self.taken:
                self.taken.add(name)
                self.names.append(name)
                return name


def flatten(inst: Instance) -> Instance:
    """Rewrite every equation into short form and every AbEq side into a variable.

    Fresh variables `_f0, _f1, ...` are introduced deterministically left to
    right; projecting the flattened solution set onto the original variables
    is exactly the original solution set.
    """
    fresh = _FreshNames(inst.variables)
    new_disjuncts = []

    def flatten_term(term: GroupTerm, out_eqs: list[GroupTerm]) -> GroupTerm:
        atoms = list(term.atoms)
        while not is_short(GroupTerm(tuple(atoms))):
            w = fresh.next()
            out_eqs.append(GroupTerm((atoms[0], atoms[1], VarAtom(w, True))))
            atoms = [VarAtom(w)] + atoms[2:]
        return GroupTerm(tuple(atoms))

    def as_variable(term: GroupTerm, out_eqs: list[GroupTerm]) -> GroupTerm:
        if len(term.atoms) == 1 and isinstance(term.atoms[0], VarAtom) and not term.atoms[0].inverse:
            return term
        w = fresh.next()
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
    return Instance(inst.presentation, inst.variables + tuple(fresh.names), tuple(new_disjuncts),
                    inst.graph_ref)


# ---------------------------------------------------------------------------
# abelian shadow


def linear_form(p: Presentation, terms: list[tuple[GroupTerm, int]]
                ) -> tuple[dict[str, int], list[int]]:
    """sum(sign * ab(term)) as a linear form: the signed count of each
    variable, then the sum of the constant atoms' exponent-sum vectors.

    Every occurrence of a variable adds the same sign at every vertex, so a
    variable has one signed count; a count may be 0. The sums are
    unreduced. A constant over another presentation raises
    PresentationMismatch.
    """
    counts: dict[str, int] = {}
    const = [0] * len(p.vertices)
    for term, sign in terms:
        for a in term.atoms:
            if isinstance(a, VarAtom):
                counts[a.name] = counts.get(a.name, 0) + (-sign if a.inverse else sign)
            else:
                _check(p, a.word)
                for i, e in enumerate(a.word.exponent_sums()):
                    if e:
                        const[i] += sign * e
    return counts, const


def abelian_sides(con: Union[AbEq, Coset]) -> list[tuple[GroupTerm, int]]:
    """Signed terms whose abelian images sum to 0 exactly when con holds."""
    if isinstance(con, AbEq):
        return [(con.lhs, 1), (con.rhs, -1)]
    return [(var_term(con.variable), 1), (const_term(con.rep), -1)]


def _form_rows(p: Presentation, terms: list[tuple[GroupTerm, int]],
               base: dict[str, int]) -> list[Row]:
    """Rows stating sum(sign * ab(term)) = 0, one per vertex i, over the
    columns base[x] + i: each variable's signed count is its coefficient,
    and the constant is reduced mod k at a vertex of order k. A row with no
    unknown and constant 0 is left out."""
    counts, const = linear_form(p, terms)
    cols = [(base[x], c) for x, c in counts.items() if c]
    rows = []
    for i, (c, k) in enumerate(zip(const, (p.order[v] for v in p.vertices))):
        if k is not None:
            c %= k
        if cols or c:
            rows.append(({b + i: m for b, m in cols}, -c, k))
    return rows


def constraint_rows(p: Presentation, con: Constraint, base: dict[str, int]) -> list[Row]:
    """The linear rows on the variables' exponent sums that state con, over
    the columns base[x] + i for x's exponent sum at vertex i.

    ab: and coset: give one row per vertex from their linear form. expsum:
    gives one exact row, a repeated (variable, vertex) summed into one
    coefficient, kept when it sums to 0. len: gives none, as lengths are not
    linear in exponent sums. Rows with no unknown and constant 0 are left
    out. The search checks, node by node, the very rows its shadow solves
    (`disjunct_shadow`).
    """
    if isinstance(con, LengthEq):
        return []
    if isinstance(con, ExpSumEq):
        coeffs: dict[int, int] = {}
        for c, x, vertex in con.terms:
            j = base[x] + p.index[vertex]
            coeffs[j] = coeffs.get(j, 0) + c
        return [(coeffs, con.constant, None)] if coeffs or con.constant else []
    return _form_rows(p, abelian_sides(con), base)


def _centralizer_lattice(p: Presentation, term: GroupTerm
                         ) -> Optional[tuple[str, list[tuple[int, ...]]]]:
    """For a commutator [X, w] = 1 with w constant, X and ab of C(w)'s
    generators, whose span confines ab(X); None for any other term.

    Sound strengthening of the shadow, given only when w is not the
    identity and every vertex of its support has infinite order; rows for a
    torsion support would be sound too, but would change verdicts.
    Abelianisation kills the conjugator, so the images come straight from
    the cached description: each cyclic part's exponent sums, then the unit
    vector of each link vertex.
    """
    if len(term.atoms) != 4:
        return None
    a0, a1, a2, a3 = term.atoms
    if (isinstance(a0, VarAtom) and isinstance(a2, VarAtom) and a0.name == a2.name
            and a0.inverse != a2.inverse and isinstance(a1, ConstAtom)
            and isinstance(a3, ConstAtom) and multiply(a1.word.pres, a1.word, a3.word).is_identity()):
        x, w = a0.name, a1.word
    elif (isinstance(a1, VarAtom) and isinstance(a3, VarAtom) and a1.name == a3.name
            and a1.inverse != a3.inverse and isinstance(a0, ConstAtom)
            and isinstance(a2, ConstAtom) and multiply(a0.word.pres, a0.word, a2.word).is_identity()):
        x, w = a1.name, a0.word
    else:
        return None
    if w.is_identity() or any(p.order[v] is not None for v, _ in w.syllables):
        return None
    desc = centralizer_generators(p, w)
    # the support has infinite order only, so these sums need no reduction
    images = [b.exponent_sums() for b in desc.cyclic_parts]
    images += [tuple(int(u == v) for v in p.vertices)
               for u in sorted(desc.link_vertices, key=p.index.__getitem__)]
    return x, images


def disjunct_shadow(p: Presentation, d: Disjunct, variables: tuple[str, ...]
                    ) -> tuple[list[Row], int, list[tuple[int, int]], int, list[LengthEq]]:
    """Necessary linear conditions on the ab coordinates of a disjunct's
    solutions, as integer rows for `abelian.solve_rows`.

    Column s*|V| + i is the exponent sum at vertex i of the variable at
    position s of `variables`. An equation term = 1 gives the rows of
    ab(term) = 0, then, for a commutator [X, w] = 1, its centralizer lattice
    rows: ab(X) = sum(lam_j * ab(g_j)) over C(w)'s generators g_j, each
    multiplier lam_j a column after the variables'. Each constraint gives
    its `constraint_rows`, stated over columns, after every equation's. Rows
    with no unknown and constant 0 are left out. Returns the rows, the
    number of columns, the (equation, j) of each multiplier column in order,
    the index of the first constraint row, and the len: constraints, which
    give no row.
    """
    n = len(p.vertices)
    base = {x: s * n for s, x in enumerate(variables)}
    rows: list[Row] = []
    multipliers: list[tuple[int, int]] = []
    for eq, term in enumerate(d.equations):
        rows += _form_rows(p, [(term, 1)], base)
        lattice = _centralizer_lattice(p, term)
        if lattice is not None:
            x, images = lattice
            first = len(variables) * n + len(multipliers)
            multipliers.extend((eq, j) for j in range(len(images)))
            for i, v in enumerate(p.vertices):
                coeffs = {base[x] + i: 1}
                for j, image in enumerate(images):
                    if image[i]:
                        coeffs[first + j] = -image[i]
                rows.append((coeffs, 0, p.order[v]))
    constraints_from = len(rows)
    for con in d.constraints:
        rows += constraint_rows(p, con, base)
    lengths = [con for con in d.constraints if isinstance(con, LengthEq)]
    return rows, len(variables) * n + len(multipliers), multipliers, constraints_from, lengths


def abelian_shadow(inst: Instance) -> list[LinearSystem]:
    """One named linear system per disjunct, the rows of `disjunct_shadow`
    with column names: X.v is the exponent sum of X at v, and eq<i>.lam<j>
    the multiplier of the j-th generator of equation i's centralizer. An
    UNSAT shadow refutes its disjunct."""
    p = inst.presentation
    names = tuple(f"{x}.{v}" for x in inst.variables for v in p.vertices)
    systems = []
    for d in inst.disjuncts:
        rows, _, multipliers, _, _ = disjunct_shadow(p, d, inst.variables)
        lams = tuple(f"eq{i}.lam{j}" for i, j in multipliers)
        systems.append(LinearSystem(names + lams, tuple(rows)))
    return systems


# ---------------------------------------------------------------------------
# textual format


def format_term(term: GroupTerm) -> str:
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


def _format_constraint(con: Constraint) -> str:
    if isinstance(con, AbEq):
        return f"ab: {format_term(con.lhs)} = {format_term(con.rhs)}"
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
            lines.append(f"  eq {format_term(term)} = 1")
        for con in d.constraints:
            lines.append("  " + _format_constraint(con))
        lines.append("}")
    return "\n".join(lines) + "\n"


class _Parser:
    def __init__(self, base_dir: Optional[str], presentation: Optional[Presentation]):
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

    def block(self, lines: Iterator[tuple[int, str]], opened: int,
              kind: str) -> Iterator[tuple[int, str]]:
        """The numbered lines of the block opened at line `opened`, taken from
        the file's own iterator up to the closing ``}``."""
        for numbered in lines:
            if numbered[1] == "}":
                return
            yield numbered
        self.fail(f"unterminated {kind} block", opened)

    def parse(self, text: str) -> Instance:
        lines = content_lines(text)
        has_section = False
        for ln, line in lines:
            if line.startswith("group ") or line == "graph {":
                if has_section:
                    self.fail("a second group/graph section", ln)
                has_section = True
                self.constants = {}  # constants parsed so far belong to the old presentation
            if line.startswith("group "):
                self.graph_ref = line[len("group "):].strip()
                path = os.path.join(self.base_dir, self.graph_ref)
                try:
                    with open(path, encoding="utf-8") as fh:
                        self.pres = Presentation.from_text(fh.read())
                except (OSError, UnicodeDecodeError) as exc:
                    self.fail(f"cannot read graph file {path!r}: {exc}", ln)
            elif line == "graph {":
                self.pres = Presentation.from_lines(self.block(lines, ln, "graph"))
            elif line.split()[0] == "vars":
                self.variables.extend(line.split()[1:])
                self.var_atoms = {v: (VarAtom(v), VarAtom(v, True)) for v in self.variables}
            elif line.startswith("disjunct"):
                if line[len("disjunct"):].strip() != "{":
                    self.fail("expected 'disjunct {'", ln)
                if self.pres is None:
                    self.fail("group/graph section must precede disjuncts", ln)
                self.disjuncts.append(self.parse_disjunct(self.block(lines, ln, "disjunct"), ln))
            else:
                self.fail(f"unrecognized line {line!r}", ln)
        if self.pres is None:
            raise ParseError("no group/graph section and no presentation supplied")
        return Instance(self.pres, tuple(self.variables), tuple(self.disjuncts), self.graph_ref)

    # -- statement level -----------------------------------------------------

    def parse_disjunct(self, lines: Iterator[tuple[int, str]], opened: int) -> Disjunct:
        """The statements of the disjunct block opened at line `opened`, one
        or more to a line, separated by ``;``."""
        eqs: list[GroupTerm] = []
        cons: list[Constraint] = []
        for ln, text in lines:
            for stmt in text.split(";"):
                stmt = stmt.strip()
                if not stmt:
                    continue
                if stmt.startswith("eq "):
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
        if not eqs:
            self.fail("disjunct has no equations section", opened)
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
                coeff = parse_int(left, "bad integer multiplier in {!r}", ln, tok)
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
                    exp = parse_int(power[1:], "bad exponent {!r}", ln, power) if power else 1
                    word = parse_word_at(self.pres, " ".join(inner), ln) ** exp
                    cached = self.constants[key] = const_term(word).atoms
                return cached, coeff
            pos += 1
            name, caret, exps = tok.partition("^")
            pair = self.var_atoms.get(name)
            if pair is not None:
                exp = parse_int(exps, "bad exponent in {!r}", ln, tok) if caret else 1
                return (pair[exp < 0],) * _repeat_count(exp), coeff
            cached = self.constants.get(tok)
            if cached is None:
                if caret:  # a bad exponent is reported with its line
                    parse_int(exps, "bad exponent in {!r}", ln, tok)
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
        constant = parse_int(tokens[at + 1], "bad constant {!r}", ln)
        items = tokens[:at]
        if len(items) % 2:
            self.fail(f"{kind} needs coefficient {item} pairs", ln)
        terms = []
        for i in range(0, len(items), 2):
            c = parse_int(items[i], "bad coefficient {!r}", ln)
            m = re.match(pattern, items[i + 1])
            if not m:
                self.fail(f"expected {item}, got {items[i + 1]!r}", ln)
            terms.append((c, *m.groups()))
        return tuple(terms), constant

    def parse_coset(self, text: str, ln: int) -> Coset:
        m = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s+in\s+(.*?)\s*\*\s*G'\s*$", text)
        if not m:
            self.fail(f"expected 'X in <word> * G'', got {text!r}", ln)
        return Coset(m.group(1), parse_word_at(self.pres, m.group(2), ln))


def parse_instance(text: str, base_dir: Optional[str] = None,
                   presentation: Optional[Presentation] = None) -> Instance:
    """Parse the instance grammar; graph files resolve relative to base_dir."""
    return _Parser(base_dir, presentation).parse(text)
