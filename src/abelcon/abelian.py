"""Abelianisation map, exponent-sum homomorphisms, and exact linear systems.

The abelianisation of a graph product of cyclic groups is the direct product
of the vertex groups: one Z coordinate per infinite-order vertex and one
Z/k coordinate per finite-order vertex. A vertex induces a well-defined
exponent-sum homomorphism to Z exactly when its order is infinite (its image
then generates a Z direct factor); we treat the remaining coordinates as the
fixed complement. The paper's predicates on these maps (|g|_s = |h|_t,
membership in K_S, ab(u) = ab(v)) are instance constraints, stated once as
linear rows by `instances.constraint_rows`.

Linear systems mix exact equations with congruences. `solve_linear_system`
decides solvability over Z by sparse unimodular elimination, row by row
(Bradley, Math. Comp. 25, 1971): a congruence is an exact row with a slack
unknown, each step fixes, solves for or changes one unknown and substitutes
it only into the rows that hold it, so blocks of rows that share no unknown
never meet. The steps are undone into an exact witness, which is checked
against the original system.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .errors import NotAbelianPrimitive, ParseError
from .words import NormalWord, Presentation, _check, format_int, parse_int


class AbelVector:
    """Image of a group element in the abelianisation.

    Stored as one integer per vertex in declaration order; coordinates at
    finite-order vertices are kept reduced into [0, k).
    """

    __slots__ = ("pres", "coords")

    def __init__(self, pres: Presentation, coords: Iterable[int]):
        reduced = []
        for v, c in zip(pres.vertices, coords):
            k = pres.order[v]
            reduced.append(c if k is None else c % k)
        self.pres = pres
        self.coords = tuple(reduced)
        if len(self.coords) != len(pres.vertices):
            raise ValueError("coordinate count does not match the presentation")

    def __getitem__(self, vertex: str) -> int:
        return self.coords[self.pres.index[vertex]]

    def __add__(self, other: "AbelVector") -> "AbelVector":
        return AbelVector(self.pres, [a + b for a, b in zip(self.coords, other.coords)])

    def __eq__(self, other):
        return (isinstance(other, AbelVector) and self.pres == other.pres
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.pres, self.coords))

    def __repr__(self):
        inner = ", ".join(f"{v}:{c}" for v, c in zip(self.pres.vertices, self.coords))
        return f"AbelVector({inner})"


def abelianize(p: Presentation, a: NormalWord) -> AbelVector:
    """Sum of syllable exponents per vertex, reduced at finite-order vertices."""
    _check(p, a)
    return AbelVector(p, a.exponent_sums())


def abelianize_product(p: Presentation, factors: Iterable[tuple[NormalWord, bool]]) -> AbelVector:
    """ab of the product of the factors, a factor (w, True) standing for
    w^-1 as in `words.product`: abelianisation is a homomorphism, so this is
    the signed sum of the factors' exponent sums, reduced once. No word is
    multiplied."""
    sums = [0] * len(p.vertices)
    for w, inverted in factors:
        _check(p, w)
        sign = -1 if inverted else 1
        sums = [s + sign * e for s, e in zip(sums, w.exponent_sums())]
    return AbelVector(p, sums)


def is_abelian_primitive(p: Presentation, v: str) -> bool:
    """In a graph product of cyclic groups a vertex generates a Z factor iff it has infinite order."""
    p.check_vertex(v)
    return p.order[v] is None


def _require_primitive(p: Presentation, v: str) -> None:
    if not is_abelian_primitive(p, v):
        raise NotAbelianPrimitive(f"vertex {v!r} has finite order {p.order[v]}")


def exponent_sum(p: Presentation, a: NormalWord, v: str) -> int:
    """The Z coordinate of ab(a) at an infinite-order vertex; additive in a."""
    _check(p, a)
    _require_primitive(p, v)
    return a.exponent_sums()[p.index[v]]


# ---------------------------------------------------------------------------
# integer linear systems


class LinearEquation(NamedTuple):
    """sum(coeffs[x] * x) = constant, exactly or modulo a fixed modulus."""
    coeffs: tuple[tuple[str, int], ...]
    constant: int
    modulus: Optional[int] = None

    def holds(self, values: dict[str, int]) -> bool:
        total = sum(c * values[var] for var, c in self.coeffs)
        if self.modulus is None:
            return total == self.constant
        return (total - self.constant) % self.modulus == 0


class LinearSystem(NamedTuple):
    equations: tuple[LinearEquation, ...]

    def variables(self) -> list[str]:
        seen: dict[str, None] = {}
        for eq in self.equations:
            for var, _ in eq.coeffs:
                seen.setdefault(var)
        return list(seen)

    def holds(self, values: dict[str, int]) -> bool:
        return all(eq.holds(values) for eq in self.equations)


class SolvabilityResult(NamedTuple):
    status: str  # "SAT" | "UNSAT"
    witness: Optional[dict[str, int]] = None

    def __bool__(self):
        return self.status == "SAT"


def parse_linear_system(text: str) -> LinearSystem:
    """One equation per line: ``3 x -1 y = 5`` optionally followed by ``mod 4``."""
    eqs = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        modulus = None
        if len(tokens) >= 2 and tokens[-2] == "mod":
            modulus = parse_int(tokens[-1], f"bad modulus {tokens[-1]!r}", ln)
            if modulus < 2:
                raise ParseError("modulus must be >= 2", line=ln)
            tokens = tokens[:-2]
        if "=" not in tokens:
            raise ParseError("missing '=' in equation", line=ln)
        eq_at = tokens.index("=")
        lhs, rhs = tokens[:eq_at], tokens[eq_at + 1:]
        if len(rhs) != 1:
            raise ParseError("right-hand side must be a single integer", line=ln)
        constant = parse_int(rhs[0], f"bad constant {rhs[0]!r}", ln)
        if len(lhs) % 2:
            raise ParseError("left-hand side must be coefficient/variable pairs", line=ln)
        coeffs = []
        for i in range(0, len(lhs), 2):
            coeffs.append((lhs[i + 1], parse_int(lhs[i], f"bad coefficient {lhs[i]!r}", ln)))
        eqs.append(LinearEquation(tuple(coeffs), constant, modulus))
    return LinearSystem(tuple(eqs))


def format_linear_system(sys: LinearSystem) -> str:
    lines = []
    for eq in sys.equations:
        parts = [f"{format_int(c)} {v}" for v, c in eq.coeffs] or ["0 _"]
        line = " ".join(parts) + f" = {format_int(eq.constant)}"
        if eq.modulus is not None:
            line += f" mod {eq.modulus}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def solve_linear_system(sys: LinearSystem) -> SolvabilityResult:
    """Decide exact solvability over Z; a SAT result carries a verified witness.

    Sparse unimodular elimination, one row at a time in order. A congruence
    sum(a*x) = c mod k is the exact row sum(a*x) + k*s = c with a slack
    unknown s. While a row is not empty, its pivot is the unknown of least
    |coefficient| a, ties going to the unknown held by the fewest rows:
    - the only unknown left is fixed to c/a, or there is no solution when a
      does not divide c;
    - a pivot with a = +-1 is solved from its row;
    - any other pivot p takes the unimodular change x_p = y - sum((b // a)*x)
      over the row's other unknowns x with coefficients b, for a fresh y.
      The other coefficients drop to b mod a, so the pivot of the next step
      is smaller.
    Each step substitutes its expression for the pivot in every row that
    holds it, so rows sharing no unknown are never touched together. A row
    left empty with a constant other than 0 has no solution. The steps are
    undone in reverse with every unknown that stayed free set to 0, and the
    witness is checked against the original system.
    """
    variables = sys.variables()
    var_index = {v: i for i, v in enumerate(variables)}
    cols: list[set[int]] = [set() for _ in variables]  # unknown -> rows holding it
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    for eq in sys.equations:
        row: dict[int, int] = {}
        for var, c in eq.coeffs:
            j = var_index[var]
            row[j] = row.get(j, 0) + c
        row = {j: c for j, c in row.items() if c}
        if eq.modulus is not None:
            row[len(cols)] = eq.modulus
            cols.append(set())
        for j in row:
            cols[j].add(len(rows))
        rows.append(row)
        rhs.append(eq.constant)
    steps: list[tuple[int, int, int, dict[int, int]]] = []  # x_p = a*(c - sum(e*x))
    for r in range(len(rows)):
        row = rows[r]
        while row:
            if len(row) == 1:  # a*x_p = c: divide the row by a
                (p, a), = row.items()
                if rhs[r] % a:
                    return SolvabilityResult("UNSAT")
                rhs[r] //= a
                a = 1
            else:
                p = None
                for j, b in row.items():
                    if (p is None or abs(b) < abs(a)
                            or abs(b) == abs(a) and len(cols[j]) < len(cols[p])):
                        p, a = j, b
            if a in (1, -1):  # solve the row for x_p and retire it
                for j in row:
                    cols[j].discard(r)
                del row[p]
                rest, row = row, {}
                c, rhs[r] = rhs[r], 0
            else:  # x_p = y - sum((b // a)*x) for a fresh unknown y
                rest = {i: b // a for i, b in row.items() if i != p}
                rest[len(cols)] = -1
                cols.append(set())
                c, a = 0, 1
            steps.append((p, a, c, rest))
            for s in cols[p]:
                other = rows[s]
                f = other.pop(p) * a
                rhs[s] -= f * c
                for i, e in rest.items():
                    v = other.get(i, 0) - f * e
                    if v:
                        other[i] = v
                        cols[i].add(s)
                    else:
                        del other[i]
                        cols[i].discard(s)
        if rhs[r]:
            return SolvabilityResult("UNSAT")
    values = [0] * len(cols)
    for p, a, c, rest in reversed(steps):
        if rest:
            c -= sum(e * values[i] for i, e in rest.items())
        values[p] = a * c
    witness = {v: values[var_index[v]] for v in variables}
    if not sys.holds(witness):
        raise AssertionError("elimination produced a bad witness")
    return SolvabilityResult("SAT", witness)
