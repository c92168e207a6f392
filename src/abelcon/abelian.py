"""Abelianisation map, exponent-sum homomorphisms, and exact linear systems.

The abelianisation of a graph product of cyclic groups is the direct product
of the vertex groups: one Z coordinate per infinite-order vertex and one
Z/k coordinate per finite-order vertex. A vertex induces a well-defined
exponent-sum homomorphism to Z exactly when its order is infinite (its image
then generates a Z direct factor); we treat the remaining coordinates as the
fixed complement. The paper's predicates on these maps (|g|_s = |h|_t,
membership in K_S, ab(u) = ab(v)) are instance constraints, stated once as
linear rows by `instances.constraint_rows`.

Linear systems mix exact equations with congruences; solvability over Z is
decided by diagonalizing the integer matrix with unimodular row and column
operations (congruences get slack columns), so witnesses are exact. A
presolve runs first, in time linear in the nonzeros: it drops all-zero rows,
fixes each unknown pinned by a one-unknown row and substitutes it, and
removes each unknown with coefficient +-1 in a single row together with
that row. Every step keeps solvability over Z exactly, so only the rows
left, often none, go to the cubic diagonalization; the eliminated unknowns
are back-substituted and the witness is checked against the original system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

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


@dataclass(frozen=True)
class LinearEquation:
    """sum(coeffs[x] * x) = constant, exactly or modulo a fixed modulus."""
    coeffs: tuple[tuple[str, int], ...]
    constant: int
    modulus: Optional[int] = None

    def holds(self, values: dict[str, int]) -> bool:
        total = sum(c * values[var] for var, c in self.coeffs)
        if self.modulus is None:
            return total == self.constant
        return (total - self.constant) % self.modulus == 0


@dataclass(frozen=True)
class LinearSystem:
    equations: tuple[LinearEquation, ...]

    def variables(self) -> list[str]:
        seen: dict[str, None] = {}
        for eq in self.equations:
            for var, _ in eq.coeffs:
                seen.setdefault(var)
        return list(seen)

    def holds(self, values: dict[str, int]) -> bool:
        return all(eq.holds(values) for eq in self.equations)


@dataclass(frozen=True)
class SolvabilityResult:
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


def _diagonalize(matrix: list[list[int]], rhs: list[int]):
    """Return (D, c, V) with D = U @ M @ V diagonal, c = U @ rhs and U, V
    unimodular; the row operations act on rhs as they go, so U is never built."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    D = [row[:] for row in matrix]
    c = list(rhs)
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        c[i], c[j] = c[j], c[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # dst += q * src
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        c[dst] += q * c[src]

    def add_col(src, dst, q):
        for row in D:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        # pivot: smallest nonzero magnitude in the remaining block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, m):
            if D[i][t]:
                q = -(D[i][t] // D[t][t])
                add_row(t, i, q)
                if D[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if D[t][j]:
                q = -(D[t][j] // D[t][t])
                add_col(t, j, q)
                if D[t][j]:
                    dirty = True
        if dirty:
            continue  # remainder left behind; pick a smaller pivot
        t += 1
    return D, c, V


def _diagonal_solution(matrix: list[list[int]], rhs: list[int]) -> Optional[list[int]]:
    """An integer solution of matrix @ y = rhs by diagonalization, or None
    when there is none. Every row has the same number of columns, at least one."""
    n = len(matrix[0])
    D, c, V = _diagonalize(matrix, rhs)
    z = [0] * n
    for i in range(len(matrix)):
        d = D[i][i] if i < n else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d:
                return None
            z[i] = c[i] // d
    return [sum(V[i][j] * z[j] for j in range(n)) for i in range(n)]


def _presolve(rows: list[dict[int, int]], rhs: list[int], n: int):
    """Eliminate what needs no diagonalization, in time linear in the nonzeros.

    rows[r] maps unknown -> nonzero coefficient; rows and rhs are updated in
    place. Until the worklists are empty: an all-zero row is dropped (None,
    i.e. no solution, when its constant is not 0); a one-unknown row a*x = c
    fixes x = c/a (None when a does not divide c) and x is substituted into
    the other rows; an unknown with coefficient +-1 in exactly one row takes
    that row with it, as any values of the row's other unknowns leave it
    solvable for x. Returns the remaining rows' indices and the eliminations
    in order, each (x, None, value) for a fixed x or (x, row, None) for an x
    to solve from its row once the row's other unknowns are known.
    """
    cols: list[set[int]] = [set() for _ in range(n)]
    for r, row in enumerate(rows):
        for j in row:
            cols[j].add(r)
    alive = [True] * len(rows)
    steps: list[tuple[int, Optional[int], Optional[int]]] = []
    row_work = list(range(len(rows)))
    col_work = list(range(n))
    while row_work or col_work:
        if row_work:
            r = row_work.pop()
            row = rows[r]
            if not alive[r] or len(row) > 1:
                continue
            alive[r] = False
            if not row:
                if rhs[r]:
                    return None
                continue
            (j, a), = row.items()
            if rhs[r] % a:
                return None
            x = rhs[r] // a
            steps.append((j, None, x))
            cols[j].discard(r)
            for s in cols[j]:
                rhs[s] -= rows[s].pop(j) * x
                row_work.append(s)
            cols[j].clear()
        else:
            j = col_work.pop()
            if len(cols[j]) != 1:
                continue
            r = next(iter(cols[j]))
            if abs(rows[r][j]) != 1:
                continue
            alive[r] = False
            steps.append((j, r, None))
            for i in rows[r]:
                cols[i].discard(r)
                col_work.append(i)
    return [r for r in range(len(rows)) if alive[r]], steps


def solve_linear_system(sys: LinearSystem) -> SolvabilityResult:
    """Decide exact solvability over Z; a SAT result carries a verified witness.

    A congruence gets a slack unknown (sum(a*x) + k*s = c), the system is
    presolved, and only the rows left are diagonalized; the eliminated
    unknowns are then back-substituted in reverse order.
    """
    variables = sys.variables()
    var_index = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    for eq in sys.equations:
        row: dict[int, int] = {}
        for var, c in eq.coeffs:
            j = var_index[var]
            row[j] = row.get(j, 0) + c
        row = {j: c for j, c in row.items() if c}
        if eq.modulus is not None:
            row[n] = eq.modulus
            n += 1
        rows.append(row)
        rhs.append(eq.constant)
    presolved = _presolve(rows, rhs, n)
    if presolved is None:
        return SolvabilityResult("UNSAT")
    core, steps = presolved
    values = [0] * n
    if core:
        unknowns = sorted({j for r in core for j in rows[r]})
        at = {j: i for i, j in enumerate(unknowns)}
        matrix = []
        for r in core:
            full = [0] * len(unknowns)
            for j, c in rows[r].items():
                full[at[j]] = c
            matrix.append(full)
        y = _diagonal_solution(matrix, [rhs[r] for r in core])
        if y is None:
            return SolvabilityResult("UNSAT")
        for j, v in zip(unknowns, y):
            values[j] = v
    for j, r, x in reversed(steps):
        if r is None:
            values[j] = x
        else:  # the coefficient of j is +-1, its own inverse
            row = rows[r]
            rest = sum(c * values[i] for i, c in row.items() if i != j)
            values[j] = (rhs[r] - rest) * row[j]
    witness = {v: values[var_index[v]] for v in variables}
    if not sys.holds(witness):
        raise AssertionError("presolve and diagonalization produced a bad witness")
    return SolvabilityResult("SAT", witness)
