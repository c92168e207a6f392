"""Abelianisation map, exponent-sum homomorphisms, and exact linear systems.

The abelianisation of a graph product of cyclic groups is the direct product
of the vertex groups: one Z coordinate per infinite-order vertex and one
Z/k coordinate per finite-order vertex. A vertex induces a well-defined
exponent-sum homomorphism to Z exactly when its order is infinite (its image
then generates a Z direct factor); we treat the remaining coordinates as the
fixed complement. An image in the abelianisation is a plain tuple of ints,
one per vertex in declaration order, reduced into [0, k) at a vertex of
order k. The paper's predicates on these maps (|g|_s = |h|_t,
membership in K_S, ab(u) = ab(v)) are instance constraints, stated once as
linear rows by `instances.constraint_rows`.

Linear systems mix exact equations with congruences. `solve_rows` decides
solvability over Z of integer rows over column indices by sparse
unimodular elimination, row by row (Bradley, Math. Comp. 25, 1971): a
congruence is an exact row with a slack unknown, each step fixes, solves
for or changes one unknown and substitutes it only into the rows that hold
it, so blocks of rows that share no unknown never meet. The steps are
undone into an exact witness, which is checked against the rows. The
search's abelian shadow comes as such rows (`instances.disjunct_shadow`).
A `LinearSystem`, as parsed, printed and listed by
`instances.abelian_shadow`, is the same rows with a name for each column:
`solve_linear_system` solves the rows and names the witness's values.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import NotAbelianPrimitive, ParseError
from .words import NormalWord, Presentation, _check, content_lines, format_int, parse_int


def _reduced(p: Presentation, sums: Iterable[int]) -> tuple[int, ...]:
    orders = map(p.order.__getitem__, p.vertices)
    return tuple(c if k is None else c % k for c, k in zip(sums, orders))


def abelianize(p: Presentation, a: NormalWord) -> tuple[int, ...]:
    """ab(a): the sum of a's syllable exponents at each vertex, in declaration
    order, reduced into [0, k) at a vertex of order k."""
    _check(p, a)
    return _reduced(p, a.exponent_sums())


def abelianize_product(p: Presentation, factors: Iterable[tuple[NormalWord, bool]]) -> tuple[int, ...]:
    """ab of the product of the factors, a factor (w, True) standing for
    w^-1 as in `words.product`: abelianisation is a homomorphism, so this is
    the signed sum of the factors' syllable exponents, reduced once. No word
    is multiplied."""
    sums = [0] * len(p.vertices)
    for w, inverted in factors:
        _check(p, w)
        sign = -1 if inverted else 1
        for v, e in w.syllables:
            sums[p.index[v]] += sign * e
    return _reduced(p, sums)


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


# sum(coeffs[j] * x_j) over column indices j equals the constant: exactly
# when the modulus is None, mod the modulus otherwise
Row = tuple[dict[int, int], int, Optional[int]]


class LinearSystem(NamedTuple):
    """Integer rows over columns, column j named names[j]."""
    names: tuple[str, ...]
    rows: tuple[Row, ...]


class SolvabilityResult(NamedTuple):
    status: str  # "SAT" | "UNSAT"
    witness: Optional[dict[str, int]] = None

    def __bool__(self):
        return self.status == "SAT"


def parse_linear_system(text: str) -> LinearSystem:
    """One equation per line: ``3 x -1 y = 5`` optionally followed by ``mod 4``.
    Names are numbered in the order they are first read, and a name repeated
    in an equation sums into one coefficient."""
    column: dict[str, int] = {}
    rows: list[Row] = []
    for ln, line in content_lines(text):
        tokens = line.split()
        modulus = None
        if len(tokens) >= 2 and tokens[-2] == "mod":
            modulus = parse_int(tokens[-1], "bad modulus {!r}", ln)
            if modulus < 2:
                raise ParseError("modulus must be >= 2", line=ln)
            tokens = tokens[:-2]
        if "=" not in tokens:
            raise ParseError("missing '=' in equation", line=ln)
        eq_at = tokens.index("=")
        lhs, rhs = tokens[:eq_at], tokens[eq_at + 1:]
        if len(rhs) != 1:
            raise ParseError("right-hand side must be a single integer", line=ln)
        constant = parse_int(rhs[0], "bad constant {!r}", ln)
        if len(lhs) % 2:
            raise ParseError("left-hand side must be coefficient/variable pairs", line=ln)
        coeffs: dict[int, int] = {}
        for i in range(0, len(lhs), 2):
            j = column.setdefault(lhs[i + 1], len(column))
            coeffs[j] = coeffs.get(j, 0) + parse_int(lhs[i], "bad coefficient {!r}", ln)
        rows.append((coeffs, constant, modulus))
    return LinearSystem(tuple(column), tuple(rows))


def format_linear_system(sys: LinearSystem) -> str:
    lines = []
    for coeffs, constant, modulus in sys.rows:
        parts = [f"{format_int(c)} {sys.names[j]}" for j, c in coeffs.items()] or ["0 _"]
        line = " ".join(parts) + f" = {format_int(constant)}"
        if modulus is not None:
            line += f" mod {modulus}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def solve_rows(rows: Sequence[Row], columns: int) -> Optional[list[int]]:
    """A witness of the rows over Z, one value per column 0..columns-1, or
    None when they have no solution. The rows are not changed.

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
    undone in reverse (`_back_substitute`), and the witness is checked
    against the rows: AssertionError when it fails them.
    """
    cols: list[set[int]] = [set() for _ in range(columns)]  # unknown -> rows holding it
    work: list[dict[int, int]] = []
    rhs: list[int] = []
    for coeffs, const, modulus in rows:
        row = {j: c for j, c in coeffs.items() if c}
        if modulus is not None:
            row[len(cols)] = modulus
            cols.append(set())
        for j in row:
            cols[j].add(len(work))
        work.append(row)
        rhs.append(const)
    steps: list[tuple[int, int, int, dict[int, int]]] = []  # x_p = a*(c - sum(e*x))
    for r, row in enumerate(work):
        while row:
            if len(row) == 1:  # a*x_p = c: divide the row by a
                (p, a), = row.items()
                if rhs[r] % a:
                    return None
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
                other = work[s]
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
            return None
    values = _back_substitute(steps, len(cols))
    for coeffs, const, modulus in rows:
        t = sum(c * values[j] for j, c in coeffs.items()) - const
        if t if modulus is None else t % modulus:
            raise AssertionError("elimination produced a bad witness")
    return values[:columns]


def _back_substitute(steps: list[tuple[int, int, int, dict[int, int]]],
                     columns: int) -> list[int]:
    """The values the elimination steps give, undone in reverse, with every
    unknown that stayed free set to 0."""
    values = [0] * columns
    for p, a, c, rest in reversed(steps):
        if rest:
            c -= sum(e * values[i] for i, e in rest.items())
        values[p] = a * c
    return values


def solve_linear_system(sys: LinearSystem) -> SolvabilityResult:
    """Decide exact solvability over Z; a SAT result carries a verified
    witness, one value per name."""
    values = solve_rows(sys.rows, len(sys.names))
    if values is None:
        return SolvabilityResult("UNSAT")
    return SolvabilityResult("SAT", dict(zip(sys.names, values)))
