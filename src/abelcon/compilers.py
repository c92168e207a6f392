"""Compilers from integer Diophantine problems to group instances.

The encodings land in two targets. Over a free group of rank >= 2 with
distinguished generators s1, s2, integer n is represented by s1^n: the
domain is cut out by [x, s1] = 1, addition is plain multiplication on the
domain, and multiplication n1*n2 is expressed through witnesses b in <s2>
and c commuting with s1*b, tied together by exponent-sum conditions. In
pure-ab mode every exponent-sum condition is further rewritten into
commutation equations plus abelianisation equalities, so the output uses
only the language of equations with ab constraints.

Over a nonabelian right-angled Artin target the rigid generator pair is
replaced by the diagonal elements h1, h2 of two non-adjacent weak modules
(recursing into a direct factor when the graph is a join), every variable
is relativized to the subgroup where all module coordinates agree, and
zero-exponent-sum conditions become star-cover gadgets: |g|_s = 0 for all
s in S iff ab(g) matches ab of a product of elements commuting with cover
vertices whose stars exhaust the remaining graph.

Every compiled instance carries a decode map (read integers back off
exponent sums) and a witness recipe: a small serializable expression
per group variable that rebuilds a satisfying assignment from any integer
solution of the source.
"""

from __future__ import annotations

import json
import re
from itertools import product as iproduct
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .abelian import abelianize_product, exponent_sum
from .errors import (
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
from .graphs import direct_product_decomposition, nonadjacent_weak_module_pair, star_link
from .instances import (
    AbEq,
    ConstAtom,
    Coset,
    Disjunct,
    ExpSumEq,
    GroupTerm,
    Instance,
    VarAtom,
    _FreshNames,
    abelian_sides,
    commutator_term,
    const_term,
    evaluate,
    is_short,
    linear_form,
    var_term,
)
from .words import (
    NormalWord,
    Presentation,
    content_lines,
    cyclically_reduce,
    format_word,
    induced_subpresentation,
    multiply,
    multiply_all,
    normalize,
    parse_int,
    parse_word,
    product,
)

_VAR_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


# ---------------------------------------------------------------------------
# polynomial systems


class Monomial(NamedTuple):
    coeff: int
    vars: tuple[str, ...]  # with repetition for powers

    def evaluate(self, values: dict[str, int]) -> int:
        out = self.coeff
        for v in self.vars:
            out *= values[v]
        return out


class Polynomial(NamedTuple):
    """Sum of monomials, constrained to equal zero."""
    monomials: tuple[Monomial, ...]

    def evaluate(self, values: dict[str, int]) -> int:
        return sum(m.evaluate(values) for m in self.monomials)


class _H10Fields(NamedTuple):
    polynomials: tuple[Polynomial, ...]


class H10Instance(_H10Fields):
    """A polynomial system, validated when built (`_replace` skips the checks)."""
    __slots__ = ()

    def __new__(cls, polynomials: tuple[Polynomial, ...]):
        self = super().__new__(cls, polynomials)
        if not any(poly.monomials for poly in polynomials):
            raise ParseError("at least one nonzero monomial required")
        for v in self.variables():
            if not _VAR_RE.match(v):
                raise ParseError(f"bad integer variable name {v!r}")
        return self

    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for poly in self.polynomials:
            for m in poly.monomials:
                for v in m.vars:
                    seen.setdefault(v)
        return tuple(seen)

    def holds(self, values: dict[str, int]) -> bool:
        return all(poly.evaluate(values) == 0 for poly in self.polynomials)


def parse_h10(text: str) -> H10Instance:
    """One equation per line in expanded monomial form: ``1*x*y -1*z = 0``."""
    polys = []
    for ln, line in content_lines(text):
        if not line.endswith("= 0"):
            raise ParseError("polynomial line must end with '= 0'", line=ln)
        monomials = []
        for tok in line[:-3].split():
            parts = tok.split("*")
            coeff = parse_int(parts[0], "monomial must start with an integer: {!r}", ln, tok)
            if coeff:
                monomials.append(Monomial(coeff, tuple(parts[1:])))
        polys.append(Polynomial(tuple(monomials)))
    return H10Instance(tuple(polys))


def print_h10(h: H10Instance) -> str:
    lines = []
    for poly in h.polynomials:
        toks = ["*".join([str(m.coeff)] + list(m.vars)) for m in poly.monomials] or ["0"]
        lines.append(" ".join(toks) + " = 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# atomization


class ConstDef(NamedTuple):
    var: str
    value: int


class SumDef(NamedTuple):
    var: str  # var = left + right
    left: str
    right: str


class ProdDef(NamedTuple):
    var: str  # var = left * right
    left: str
    right: str


class EqDef(NamedTuple):
    left: str
    right: str


H10Atom = Union[ConstDef, SumDef, ProdDef, EqDef]


class AtomizedH10(NamedTuple):
    source_vars: tuple[str, ...]
    atoms: tuple[H10Atom, ...]

    def extend_solution(self, values: dict[str, int]) -> dict[str, int]:
        """Evaluate the fresh variables from values of every source variable;
        atoms are ordered, so each sum or product defines a fresh variable
        from known ones. A constant or equality atom that fails raises."""
        out = dict(values)
        for atom in self.atoms:
            if isinstance(atom, ConstDef):
                if atom.var in out:
                    if out[atom.var] != atom.value:
                        raise NotAnIntegerSolution(
                            f"{atom.var} = {out[atom.var]} but must equal {atom.value}")
                else:
                    out[atom.var] = atom.value
            elif isinstance(atom, SumDef):
                out[atom.var] = out[atom.left] + out[atom.right]
            elif isinstance(atom, ProdDef):
                out[atom.var] = out[atom.left] * out[atom.right]
            elif out[atom.left] != out[atom.right]:
                raise NotAnIntegerSolution(f"{atom.left} != {atom.right}")
        return out


def atomize(h: H10Instance) -> AtomizedH10:
    """Decompose polynomials into atoms x = c, x = y + z, x = y * z, x = y.

    Each polynomial is split into its positive and negative parts and both
    sides are chained left to right, so the result is equisatisfiable with
    the source and fresh variables are determined by the source variables.
    """
    atoms: list[H10Atom] = []
    fresh = {kind: _FreshNames((), f"_{kind}") for kind in "psk"}

    def const_var(value: int) -> str:
        v = fresh["k"].next()
        atoms.append(ConstDef(v, value))
        return v

    def monomial_value(m: Monomial) -> str:
        assert m.coeff > 0
        if not m.vars:
            return const_var(m.coeff)
        chain = m.vars[0]
        for v in m.vars[1:]:
            t = fresh["p"].next()
            atoms.append(ProdDef(t, chain, v))
            chain = t
        if m.coeff != 1:
            c = const_var(m.coeff)
            t = fresh["p"].next()
            atoms.append(ProdDef(t, c, chain))
            chain = t
        return chain

    def side_value(monomials: list[Monomial]) -> str:
        vals = [monomial_value(m) for m in monomials]
        acc = vals[0]
        for v in vals[1:]:
            t = fresh["s"].next()
            atoms.append(SumDef(t, acc, v))
            acc = t
        return acc

    for poly in h.polynomials:
        pos = [m for m in poly.monomials if m.coeff > 0]
        neg = [Monomial(-m.coeff, m.vars) for m in poly.monomials if m.coeff < 0]
        if not pos and not neg:
            continue
        if not neg:
            atoms.append(ConstDef(side_value(pos), 0))
        elif not pos:
            atoms.append(ConstDef(side_value(neg), 0))
        elif len(neg) == 1 and not neg[0].vars:
            atoms.append(ConstDef(side_value(pos), neg[0].coeff))
        elif len(pos) == 1 and not pos[0].vars:
            atoms.append(ConstDef(side_value(neg), pos[0].coeff))
        else:
            left = side_value(pos)
            right = side_value(neg)
            atoms.append(EqDef(left, right))
    return AtomizedH10(h.variables(), tuple(atoms))


# ---------------------------------------------------------------------------
# witness recipes: serializable expressions rebuilding group assignments
#
# A word recipe is evaluated as one product. `_factors` flattens it into
# (word, inverted) factors: `ref` and `word` add one; `inv` flips the sign
# and reverses the order of the factors below it; `concat` adds its
# arguments in order; `conj` is h^-1 x h, so it adds the factors of h
# inverted, then those of x, then those of h, whether or not it is itself
# inverted. `pow` and `cyclic_conjugator` build their own word and enter
# as one factor. `ab_cover_split` reads its argument's abelian image off
# the factors' exponent sums and multiplies nothing.


def _int_expr(expr, ints: dict[str, int], groups: dict[str, NormalWord], p: Presentation) -> int:
    op = expr["op"]
    if op == "const":
        value = expr["value"]
        if type(value) is not int:
            raise RecipeError(f"integer constant must be an int, not {type(value).__name__}")
        return value
    if op == "var":
        return ints[expr["name"]]
    if op == "add":
        return sum(_int_expr(a, ints, groups, p) for a in expr["args"])
    if op == "mul":
        out = 1
        for a in expr["args"]:
            out *= _int_expr(a, ints, groups, p)
        return out
    if op == "expsum":
        return exponent_sum(p, groups[expr["group"]], expr["vertex"])
    raise RecipeError(f"unknown integer op {op!r}")


def _factors(expr, inverted: bool, out: list[tuple[NormalWord, bool]], ints, groups,
             p: Presentation) -> None:
    """Append the factors of a word recipe to ``out``: their product, left to
    right, is the recipe's value, or its inverse when ``inverted``."""
    op = expr["op"]
    if op == "inv":
        _factors(expr["arg"], not inverted, out, ints, groups, p)
        return
    if op == "concat":
        args = expr["args"]
        for a in (reversed(args) if inverted else args):
            _factors(a, inverted, out, ints, groups, p)
        return
    if op == "conj":
        h: list[tuple[NormalWord, bool]] = []
        _factors(expr["by"], False, h, ints, groups, p)
        out.extend((w, not inv) for w, inv in reversed(h))
        _factors(expr["arg"], inverted, out, ints, groups, p)
        out.extend(h)
        return
    if op == "word":
        w = parse_word(p, expr["text"])
    elif op == "ref":
        w = groups[expr["name"]]
    elif op == "pow":
        w = _word_expr(expr["base"], ints, groups, p) ** _int_expr(expr["exp"], ints, groups, p)
    elif op == "cyclic_conjugator":
        _, w = cyclically_reduce(p, _word_expr(expr["arg"], ints, groups, p))
    elif op == "ab_cover_split":
        w = normalize(p, _cover_parts(expr, ints, groups, p)[expr["index"]])
    else:
        raise RecipeError(f"unknown word op {op!r}")
    out.append((w, inverted))


def _word_expr(expr, ints, groups, p: Presentation) -> NormalWord:
    """The value of a word recipe, normalised once; a single factor is
    already in normal form."""
    factors: list[tuple[NormalWord, bool]] = []
    _factors(expr, False, factors, ints, groups, p)
    if len(factors) == 1 and not factors[0][1]:
        return factors[0][0]
    return product(p, factors)


def _cover_parts(expr, ints, groups, p: Presentation) -> list[list[tuple[str, int]]]:
    """The argument's abelian image split over the cover, one part per cover
    vertex: each nonzero coordinate goes to the first cover vertex whose star
    holds it. The image, a reduced tuple in vertex order, is read off the
    argument's factors (`abelianize_product`), which are not multiplied."""
    factors: list[tuple[NormalWord, bool]] = []
    _factors(expr["arg"], False, factors, ints, groups, p)
    image = abelianize_product(p, factors)
    exclude = set(expr["exclude"])
    cover = expr["cover"]
    parts: list[list[tuple[str, int]]] = [[] for _ in cover]
    for v, e in zip(p.vertices, image):
        if not e:
            continue
        if v in exclude:
            raise RecipeError(f"cover split argument has nonzero coordinate at {v}")
        for j, u in enumerate(cover):
            if v == u or p.adjacent(v, u):
                parts[j].append((v, e))
                break
        else:
            raise RecipeError(f"vertex {v} not covered")
    return parts


def w_word(w: NormalWord) -> dict:
    return {"op": "word", "text": format_word(w)}


def w_ref(name: str) -> dict:
    return {"op": "ref", "name": name}


def w_pow(base: dict, exp: dict) -> dict:
    return {"op": "pow", "base": base, "exp": exp}


def w_concat(*args: dict) -> dict:
    return {"op": "concat", "args": list(args)}


def w_inv(arg: dict) -> dict:
    return {"op": "inv", "arg": arg}


def w_conj(arg: dict, by: dict) -> dict:
    return {"op": "conj", "arg": arg, "by": by}


def w_cyclic_conjugator(arg: dict) -> dict:
    return {"op": "cyclic_conjugator", "arg": arg}


def w_cover_split(arg: dict, exclude: Iterable[str], cover: Iterable[str], index: int) -> dict:
    return {"op": "ab_cover_split", "arg": arg, "exclude": sorted(exclude),
            "cover": list(cover), "index": index}


def i_const(c: int) -> dict:
    return {"op": "const", "value": c}


def i_var(name: str) -> dict:
    return {"op": "var", "name": name}


def i_add(*args: dict) -> dict:
    return {"op": "add", "args": list(args)}


def i_mul(*args: dict) -> dict:
    return {"op": "mul", "args": list(args)}


def _term_wexpr(term: GroupTerm) -> dict:
    parts = []
    for a in term.atoms:
        if isinstance(a, VarAtom):
            parts.append(w_inv(w_ref(a.name)) if a.inverse else w_ref(a.name))
        else:
            parts.append(w_word(a.word))
    return w_concat(*parts)


# ---------------------------------------------------------------------------
# compiled reductions


class CompiledReduction(NamedTuple):
    instance: Instance
    decode: dict[str, tuple[str, str]]  # integer var -> (group var, reference vertex)
    recipes: tuple[tuple[str, dict], ...]  # (group var, word expression) in order
    atomized: AtomizedH10
    source: H10Instance
    mode: str

    def sidecar_json(self) -> str:
        doc = {
            "format": "h10-reduction-sidecar-v2",
            "mode": self.mode,
            "h10": print_h10(self.source),
            "decode": {k: list(v) for k, v in self.decode.items()},
            "recipes": [[name, expr] for name, expr in self.recipes],
        }
        return json.dumps(doc)

    @classmethod
    def from_sidecar_json(cls, text: str, instance: Instance) -> "CompiledReduction":
        """Read a v1 or v2 sidecar, atomizing its h10 system (a v1 file's stored
        atomization is ignored). Malformed JSON, a missing field, or a decode
        or recipe entry that names no instance variable raises ParseError."""
        try:
            doc = json.loads(text)
            if doc.get("format") not in ("h10-reduction-sidecar-v1", "h10-reduction-sidecar-v2"):
                raise ParseError("unrecognized sidecar format")
            source = parse_h10(doc["h10"])
            atomized = atomize(source)
            decode = {k: (v[0], v[1]) for k, v in doc["decode"].items()}
            if set(decode) != set(atomized.source_vars):
                raise ParseError("sidecar decode must name exactly the source variables")
            recipes = tuple((name, expr) for name, expr in doc["recipes"])
            variables = set(instance.variables)
            for name in [gvar for gvar, _ in decode.values()] + [name for name, _ in recipes]:
                if name not in variables:
                    raise ParseError(f"sidecar names {name!r}, which is not an instance variable")
            for _, ref in decode.values():
                instance.presentation.check_vertex(ref)
            return cls(instance=instance, decode=decode, recipes=recipes, atomized=atomized,
                       source=source, mode=doc["mode"])
        except (ValueError, KeyError, IndexError, TypeError, AttributeError,
                RecursionError) as exc:
            raise ParseError(f"malformed sidecar: {exc!r}") from exc


def _recipe_values(recipes, ints: dict[str, int], p: Presentation) -> dict[str, NormalWord]:
    """The value of each recipe in order, each one seeing those before it.

    The compiler gives every cover vertex of a zero gadget its own cover
    split of one argument, so a run of splits with equal argument, exclude
    and cover computes their parts once; a recipe that gives a name a new
    value ends the run, as a later argument may read that name.
    """
    groups: dict[str, NormalWord] = {}
    split = parts = None  # the last cover split's (arg, exclude, cover) and its parts
    for name, expr in recipes:
        try:
            if name in groups:
                split = None
            if expr["op"] == "ab_cover_split":
                key = (expr.get("arg"), expr.get("exclude"), expr.get("cover"))
                if key != split:
                    parts, split = _cover_parts(expr, ints, groups, p), key
                groups[name] = normalize(p, parts[expr["index"]])
            else:
                groups[name] = _word_expr(expr, ints, groups, p)
        except (KeyError, TypeError, IndexError, ValueError, AttributeError,
                RecursionError) as exc:
            raise RecipeError(f"recipe for {name!r} cannot be evaluated: {exc!r}") from exc
    return groups


# The last assignment `witness_h10` returned, with its instance and its items
# when it was checked: `decode_solution` does not check that one again.
_checked: tuple = (None, None, ())


def witness_h10(cr: CompiledReduction, int_solution: dict[str, int]) -> dict[str, NormalWord]:
    """Build a satisfying assignment of the compiled instance from an integer solution.

    A recipe that cannot be evaluated, or recipes whose assignment fails the
    instance, raise RecipeError: the sidecar they came from is damaged.
    """
    global _checked
    missing = [v for v in cr.atomized.source_vars if v not in int_solution]
    if missing:
        raise NotAnIntegerSolution(f"missing integer values for {missing}")
    unknown = [v for v in int_solution if v not in cr.atomized.source_vars]
    if unknown:
        raise NotAnIntegerSolution(f"{unknown[0]!r} is not a variable of the source system")
    if not cr.source.holds(int_solution):
        raise NotAnIntegerSolution("values do not solve the source polynomial system")
    groups = _recipe_values(cr.recipes, cr.atomized.extend_solution(int_solution),
                            cr.instance.presentation)
    if not evaluate(cr.instance, groups).satisfied:
        raise RecipeError("witness recipes build a non-solution: a damaged sidecar or a compiler bug")
    _checked = (cr.instance, groups, tuple(groups.items()))
    return groups


def decode_solution(cr: CompiledReduction, asg: dict[str, NormalWord]) -> dict[str, int]:
    """Read integers off exponent sums; verify they solve the source system.

    The assignment is checked against the compiled instance first, unless it
    is the very dict the last `witness_h10` call returned and checked, for
    this very instance object, with the same items still in it. Any other
    assignment, such as one read from a file, a search witness, a copy or a
    dict changed since, is checked.
    """
    inst, checked, items = _checked
    is_checked = asg is checked and cr.instance is inst and tuple(asg.items()) == items
    if not is_checked and not evaluate(cr.instance, asg).satisfied:
        raise NotASolution("assignment does not satisfy the compiled instance")
    p = cr.instance.presentation
    decoded = {x: exponent_sum(p, asg[gvar], ref) for x, (gvar, ref) in cr.decode.items()}
    if not cr.source.holds(decoded):
        raise DecodeInconsistency(f"decoded values {decoded} fail the source system")
    return decoded


# ---------------------------------------------------------------------------
# the compile driver


class _Emitter:
    """Builds one compiled reduction over the atoms of ``h``: variables with
    their recipes, equations and constraints, in emission order.

    The gadgets both targets share are stated here once:

    - ``ensure``: A_x, the group variable of integer variable x, made on its
      first use by the target's ``domain(A_x, x)`` action;
    - ``cyclic``: a variable x confined to <g> by [x, g] = 1, with recipe g^exp;
    - ``finish``: ensure every source variable, then build the one-disjunct
      instance, the decode map and the CompiledReduction.

    Each compiler states its own gadgets on these: the free target's K
    gadget, the RAAG target's star-cover zero gadget and relativization.
    """

    def __init__(self, h: H10Instance, p: Presentation, domain: Callable[[str, str], None]):
        self.h = h
        self.p = p
        self.domain = domain
        self.atomized = atomize(h)
        self.avar: dict[str, str] = {}
        self.variables: list[str] = []
        self.equations: list[GroupTerm] = []
        self.constraints: list = []
        self.recipes: list[tuple[str, dict]] = []
        self.counter = 0

    def fresh(self, role: str) -> str:
        name = f"_{role}{self.counter}"
        self.counter += 1
        return name

    def add_var(self, name: str, recipe: dict) -> str:
        self.variables.append(name)
        self.recipes.append((name, recipe))
        return name

    def cyclic(self, name: str, g: NormalWord, exp: dict) -> str:
        self.add_var(name, w_pow(w_word(g), exp))
        self.equations.append(commutator_term(name, g))
        return name

    def ensure(self, intvar: str) -> str:
        if intvar not in self.avar:
            self.avar[intvar] = f"A_{intvar}"
            self.domain(self.avar[intvar], intvar)
        return self.avar[intvar]

    def finish(self, ref: str, mode: str) -> CompiledReduction:
        source_vars = self.atomized.source_vars
        for v in source_vars:
            self.ensure(v)
        # the domain action closes over this emitter: dropping it breaks the cycle,
        # so reference counting, not the cycle collector, frees a compile's garbage
        del self.domain
        inst = Instance(self.p, tuple(self.variables),
                        (Disjunct(tuple(self.equations), tuple(self.constraints)),))
        decode = {v: (self.avar[v], ref) for v in source_vars}
        return CompiledReduction(inst, decode, tuple(self.recipes), self.atomized, self.h, mode)


# ---------------------------------------------------------------------------
# free-group compiler


def compile_h10_free(h: H10Instance, target: Presentation,
                     mode: str = "pure-ab") -> CompiledReduction:
    """Encode an integer polynomial system over a free group of rank >= 2,
    with s1 and s2 its first two vertices.

    ``native-expsum`` keeps linear exponent-sum constraints in the output;
    ``pure-ab`` rewrites them into commutation equations plus abelianisation
    equalities, so the instance only uses ab constraints.
    """
    if mode not in ("pure-ab", "native-expsum"):
        raise ValueError(f"unknown mode {mode!r}")
    if target.edges or not target.is_raag():
        raise RankTooSmall("target must be a free presentation (no edges, all orders infinite)")
    if len(target.vertices) < 2:
        raise RankTooSmall("free target needs rank >= 2")
    s1, s2 = target.vertices[:2]
    p = target
    ws1 = parse_word(p, s1)
    ws2 = parse_word(p, s2)
    ws1s2 = multiply(p, ws1, ws2)
    # the domain: A_x = s1^x, confined to <s1>
    em = _Emitter(h, p, lambda ax, x: em.cyclic(ax, ws1, i_var(x)))

    def k_gadget(zero_term: GroupTerm, other: NormalWord, exp: dict) -> None:
        """ab(zero_term) = ab(u) with u = other^exp confined to <other>, so
        zero_term has zero exponent sum at the generator that is not ``other``."""
        u = em.cyclic(em.fresh("u"), other, exp)
        em.constraints.append(AbEq(zero_term, var_term(u)))

    def expsum_or_gadget(items: list[tuple[int, str, str]], zero_term: GroupTerm,
                         exp: dict) -> None:
        """One |.|_s1-condition: native mode emits the linear row, pure-ab a K
        gadget in <s2>. ``zero_term`` must have zero exponent sum at s1 iff
        the condition holds, and s2^exp must witness its abelian image."""
        if mode == "native-expsum":
            em.constraints.append(ExpSumEq(tuple(items), 0))
        else:
            k_gadget(zero_term, ws2, exp)

    for atom in em.atomized.atoms:
        if isinstance(atom, ConstDef):
            ax = em.ensure(atom.var)
            em.equations.append(var_term(ax) * const_term(ws1 ** (-atom.value)))
        elif isinstance(atom, EqDef):
            al = em.ensure(atom.left)
            ar = em.ensure(atom.right)
            em.equations.append(GroupTerm((VarAtom(al), VarAtom(ar, True))))
        elif isinstance(atom, SumDef):
            ay = em.ensure(atom.left)
            az = em.ensure(atom.right)
            ax = em.ensure(atom.var)
            zero = GroupTerm((VarAtom(ay), VarAtom(az), VarAtom(ax, True)))
            expsum_or_gadget([(1, ay, s1), (1, az, s1), (-1, ax, s1)], zero, i_const(0))
        elif isinstance(atom, ProdDef):
            t1, t2, t3 = atom.left, atom.right, atom.var
            a1 = em.ensure(t1)
            b = em.cyclic(em.fresh("b"), ws2, i_var(t1))
            # |a1|_s1 = |b|_s2; both sides are domain-pinned, one diagonal witness
            if mode == "native-expsum":
                em.constraints.append(ExpSumEq(((1, a1, s1), (-1, b, s2)), 0))
            else:
                w = em.cyclic(em.fresh("w"), ws1s2, i_var(t1))
                em.constraints.append(AbEq(GroupTerm((VarAtom(a1), VarAtom(b))), var_term(w)))
            a2 = em.ensure(t2)
            c = em.add_var(em.fresh("c"),
                           w_pow(w_concat(w_word(ws1), w_ref(b)), i_var(t2)))
            # [c, s1 b] = 1 with b a variable
            em.equations.append(GroupTerm((
                VarAtom(c), ConstAtom(ws1), VarAtom(b),
                VarAtom(c, True), VarAtom(b, True), ConstAtom(ws1.inverse()))))
            # |a2|_s1 = |c|_s1
            expsum_or_gadget(
                [(1, a2, s1), (-1, c, s1)], GroupTerm((VarAtom(a2), VarAtom(c, True))),
                i_mul(i_const(-1), i_var(t1), i_var(t2)))
            a3 = em.ensure(t3)
            # |a3|_s1 = |c|_s2 through a diagonal witness w2
            if mode == "native-expsum":
                em.constraints.append(ExpSumEq(((1, a3, s1), (-1, c, s2)), 0))
            else:
                w2 = em.cyclic(em.fresh("w"), ws1s2, i_var(t3))
                k_gadget(GroupTerm((VarAtom(a3), VarAtom(w2, True))), ws2,
                         i_mul(i_const(-1), i_var(t3)))
                k_gadget(GroupTerm((VarAtom(c), VarAtom(w2, True))), ws1,
                         i_add(i_var(t2), i_mul(i_const(-1), i_var(t3))))
    return em.finish(s1, mode)


# ---------------------------------------------------------------------------
# right-angled Artin compiler


def _compile_factor(p: Presentation) -> Presentation:
    """The graph if it is join-indecomposable, else its first join component
    that is not complete. A join component's complement graph is connected,
    so it does not decompose again; the caller has refused a complete graph."""
    comps = direct_product_decomposition(p)
    if len(comps) == 1:
        return p
    subs = (induced_subpresentation(p, comp) for comp in comps)
    return next(s for s in subs if len(s.edges) < len(s.vertices) * (len(s.vertices) - 1) // 2)


def compile_h10_raag(h: H10Instance, target: Presentation) -> CompiledReduction:
    """Encode an integer polynomial system over a nonabelian right-angled Artin group.

    Pipeline: recurse into a nonabelian join factor; take two non-adjacent
    weak modules S1, S2 of that factor and their diagonal products h1, h2;
    relativize every variable to the diagonal subgroup (equal exponent sums
    inside each module); express integer arithmetic on the h1 coordinate,
    with multiplication through the centralizer-of-h1*b gadget modulo the
    kernel of both module coordinates.
    """
    if not target.is_raag():
        raise InvalidPresentation("target must be a right-angled Artin presentation")
    nv = len(target.vertices)
    if len(target.edges) == nv * (nv - 1) // 2:
        raise AbelianTarget("complete graph: the target group is abelian")

    factor = _compile_factor(target)
    pair = nonadjacent_weak_module_pair(factor)
    assert pair is not None, "join-indecomposable nonabelian graph must have a non-adjacent pair"
    mod1, mod2 = pair
    S1, S2 = mod1.vertices, mod2.vertices
    p = target
    h1 = normalize(p, [(v, 1) for v in S1])
    h2 = normalize(p, [(v, 1) for v in S2])
    h1h2 = multiply(p, h1, h2)
    ref = S1[0]
    _, link1 = star_link(factor, set(S1))
    _, link2 = star_link(factor, set(S2))
    cover1 = [v for v in factor.vertices if v not in S1 and v not in link1]
    cover2 = [v for v in factor.vertices if v not in S2 and v not in link2]
    assert cover1 and cover2, "non-adjacent modules guarantee nonempty star covers"

    def domain(ax: str, x: str) -> None:
        em.add_var(ax, w_pow(w_word(h1), i_var(x)))
        relativize(ax)

    em = _Emitter(h, p, domain)
    # the constant atoms of [z, u] for each cover vertex u, built once
    cover_atoms: dict[str, tuple[ConstAtom, ConstAtom]] = {}
    for u in dict.fromkeys(cover1 + cover2):
        w = parse_word(p, u)
        cover_atoms[u] = ConstAtom(w), ConstAtom(w.inverse())
    # relativize's diagonal word per module, built once; a single vertex is
    # trivially diagonal and needs none
    diagonals = [(module, cover, multiply(p, hm, parse_word(p, other[0])))
                 for module, cover, hm, other in ((S1, cover1, h1, S2), (S2, cover2, h2, S1))
                 if len(module) > 1]

    def zero_gadget(term: GroupTerm, module: tuple[str, ...], cover: list[str]) -> None:
        """|term|_s = 0 for all s in the module, via the star cover of its complement."""
        zs = []
        arg = _term_wexpr(term)
        for j, u in enumerate(cover):
            z = em.add_var(em.fresh("z"), w_cover_split(arg, module, cover, j))
            u_atom, u_inverse = cover_atoms[u]
            em.equations.append(GroupTerm((VarAtom(z), u_atom, VarAtom(z, True), u_inverse)))
            zs.append(z)
        em.constraints.append(AbEq(term, GroupTerm(tuple(VarAtom(z) for z in zs))))

    def relativize(name: str) -> None:
        """Confine a variable to the diagonal subgroup of both modules."""
        for module, cover, w in diagonals:
            y = em.cyclic(em.fresh("y"), w,
                          {"op": "expsum", "group": name, "vertex": module[0]})
            zero_gadget(GroupTerm((VarAtom(name), VarAtom(y, True))), module, cover)

    for atom in em.atomized.atoms:
        if isinstance(atom, ConstDef):
            ax = em.ensure(atom.var)
            zero_gadget(var_term(ax) * const_term(h1 ** (-atom.value)), S1, cover1)
        elif isinstance(atom, EqDef):
            al = em.ensure(atom.left)
            ar = em.ensure(atom.right)
            zero_gadget(GroupTerm((VarAtom(al), VarAtom(ar, True))), S1, cover1)
        elif isinstance(atom, SumDef):
            ay = em.ensure(atom.left)
            az = em.ensure(atom.right)
            ax = em.ensure(atom.var)
            zero_gadget(GroupTerm((VarAtom(ay), VarAtom(az), VarAtom(ax, True))), S1, cover1)
        elif isinstance(atom, ProdDef):
            t1, t2, t3 = atom.left, atom.right, atom.var
            a1 = em.ensure(t1)
            b = em.add_var(em.fresh("b"), w_pow(w_word(h2), i_var(t1)))
            relativize(b)
            zero_gadget(var_term(b), S1, cover1)  # b in the kernel of the h1 coordinate
            # |a1|_h1 = |b|_h2 through a diagonal witness
            w = em.cyclic(em.fresh("w"), h1h2, i_var(t1))
            zero_gadget(GroupTerm((VarAtom(a1), VarAtom(w, True))), S1, cover1)
            zero_gadget(GroupTerm((VarAtom(b), VarAtom(w, True))), S2, cover2)
            a2 = em.ensure(t2)
            # c = c1 c2 with c1 centralizing h1 b and c2 in both kernels
            hb = w_cyclic_conjugator(w_concat(w_word(h1), w_ref(b)))
            c1 = em.add_var(em.fresh("c"),
                            w_conj(w_pow(w_concat(w_word(h1), w_ref(b)), i_var(t2)), hb))
            relativize(c1)
            em.equations.append(GroupTerm((
                VarAtom(c1), ConstAtom(h1), VarAtom(b),
                VarAtom(c1, True), VarAtom(b, True), ConstAtom(h1.inverse()))))
            c2 = em.add_var(em.fresh("c"), w_word(p.identity()))
            zero_gadget(var_term(c2), S1, cover1)
            zero_gadget(var_term(c2), S2, cover2)
            c = em.add_var(em.fresh("c"), w_concat(w_ref(c1), w_ref(c2)))
            relativize(c)
            em.equations.append(GroupTerm((VarAtom(c), VarAtom(c2, True), VarAtom(c1, True))))
            # |a2|_h1 = |c|_h1
            zero_gadget(GroupTerm((VarAtom(a2), VarAtom(c, True))), S1, cover1)
            a3 = em.ensure(t3)
            # |a3|_h1 = |c|_h2 through a second diagonal witness
            w2 = em.cyclic(em.fresh("w"), h1h2, i_var(t3))
            zero_gadget(GroupTerm((VarAtom(a3), VarAtom(w2, True))), S1, cover1)
            zero_gadget(GroupTerm((VarAtom(c), VarAtom(w2, True))), S2, cover2)
    return em.finish(ref, "raag")


# ---------------------------------------------------------------------------
# finite abelianisation: ab constraints to commutator-subgroup cosets


def reduce_finite_ab(inst: Instance) -> Instance:
    """Rewrite every ab constraint as a coset-of-G' constraint.

    Requires every vertex order to be finite. Each ab(lhs) = ab(rhs) becomes
    W(x) = alpha with W the variable part; a fresh variable Z = W(x) (reused
    when W is a single variable) then carries Coset(Z, representative).
    """
    p = inst.presentation
    if not p.has_finite_abelianisation():
        raise InfiniteAbelianisation("reduction requires every vertex order finite")
    fresh = _FreshNames(inst.variables, "_z")
    new_disjuncts = []
    for d in inst.disjuncts:
        eqs = list(d.equations)
        cons = []
        for con in d.constraints:
            if not isinstance(con, AbEq):
                cons.append(con)
                continue
            combined = con.lhs * con.rhs.inverse()
            var_atoms = [a for a in combined.atoms if isinstance(a, VarAtom)]
            _, const = linear_form(p, abelian_sides(con))
            rep = normalize(p, [(v, -c % p.order[v]) for v, c in zip(p.vertices, const)])
            if len(var_atoms) == 1:
                a = var_atoms[0]
                cons.append(Coset(a.name, rep.inverse() if a.inverse else rep))
                continue
            z = fresh.next()
            eqs.append(GroupTerm(tuple(var_atoms) + (VarAtom(z, True),)))
            cons.append(Coset(z, rep))
        new_disjuncts.append(Disjunct(tuple(eqs), tuple(cons)))
    return Instance(p, inst.variables + tuple(fresh.names), tuple(new_disjuncts), inst.graph_ref)


# ---------------------------------------------------------------------------
# generic positive-existential interpretation rewriting


PLACEHOLDER = "$"


# A formula template: a disjunction of systems of equations, each system a
# tuple of terms; VarAtoms named "$0".."$k-1" are placeholders
Template = tuple[tuple[GroupTerm, ...], ...]


class Interpretation(NamedTuple):
    """Interpret a target group inside a source group by equations.

    The domain formula has one argument; multiplication means
    arg0 * arg1 = arg2; equality means arg0 = arg1. Constants of the target
    are translated by mapping each target vertex to a source word.
    """
    source: Presentation
    target: Presentation
    domain: Template
    multiplication: Template
    equality: Template
    vertex_map: tuple[tuple[str, NormalWord], ...]  # target vertex -> source word

    def map_constant(self, w: NormalWord) -> NormalWord:
        table = dict(self.vertex_map)
        return multiply_all(self.source, [table[v] ** e for v, e in w.syllables])


def integers_into_free_interpretation(source: Presentation, s: str,
                                      target: Presentation) -> Interpretation:
    """The infinite cyclic subgroup <s> of a free group as a copy of (Z, +)."""
    source.check_vertex(s)
    ws = parse_word(source, s)
    dom = ((commutator_term("$0", ws),),)
    mult = ((GroupTerm((VarAtom("$0"), VarAtom("$1"), VarAtom("$2", True))),),)
    eq = ((GroupTerm((VarAtom("$0"), VarAtom("$1", True))),),)
    return Interpretation(source, target, dom, mult, eq, ((target.vertices[0], ws),))


def _substitute(template: Template,
                args: list[Optional[VarAtom | ConstAtom]]) -> list[tuple[GroupTerm, ...]]:
    """Instantiate the template on argument atoms (None means the identity)."""
    out = []
    for system in template:
        eqs = []
        for term in system:
            atoms = []
            for a in term.atoms:
                if isinstance(a, VarAtom) and a.name.startswith(PLACEHOLDER):
                    arg = args[int(a.name[1:])]
                    if arg is not None:
                        atoms.append(arg.inverted() if a.inverse else arg)
                else:
                    atoms.append(a)
            eqs.append(GroupTerm(tuple(atoms)))
        out.append(tuple(eqs))
    return out


def rewrite_under_interpretation(interp: Interpretation, inst: Instance) -> Instance:
    """Translate a flattened instance over the target into one over the source.

    Every variable receives the domain gadget; each short equation becomes
    the corresponding defining formula. Disjunctions multiply out, so the
    result is again a plain disjunction of systems.
    """
    for d in inst.disjuncts:
        for term in d.equations:
            if not is_short(term):
                raise NotFlattened("rewrite needs short-form equations; call flatten first")
        if d.constraints:
            raise NotFlattened("constraint rewriting is not defined for this interpretation")
    if inst.presentation != interp.target:
        raise InvalidPresentation("instance is not over the interpretation's target")

    def map_atom(a) -> Optional[VarAtom | ConstAtom]:
        if isinstance(a, VarAtom):
            return a
        mapped = interp.map_constant(a.word)
        return ConstAtom(mapped) if not mapped.is_identity() else None

    new_disjuncts = []
    for d in inst.disjuncts:
        items: list[list[tuple[GroupTerm, ...]]] = []
        for v in inst.variables:
            items.append(_substitute(interp.domain, [VarAtom(v)]))
        for term in d.equations:
            atoms = [map_atom(a) for a in term.atoms]
            atoms = [a for a in atoms if a is not None]
            if not atoms:
                continue
            if len(atoms) == 1:
                items.append(_substitute(interp.equality, [atoms[0], None]))
            elif len(atoms) == 2:
                items.append(_substitute(interp.equality, [atoms[0], atoms[1].inverted()]))
            else:
                items.append(_substitute(interp.multiplication,
                                         [atoms[0], atoms[1], atoms[2].inverted()]))
        for choice in iproduct(*items):
            new_disjuncts.append(Disjunct(tuple(eq for ceqs in choice for eq in ceqs), ()))
    return Instance(interp.source, inst.variables, tuple(new_disjuncts))
