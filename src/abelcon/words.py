"""Exact arithmetic in graph products of cyclic groups.

A presentation is a finite simple graph with a cyclic group attached to each
vertex (infinite, or finite of order k >= 2); adjacent vertex groups commute.
Elements are stored as canonical geodesic sequences of syllables, plain
(vertex, exponent) pairs, so two elements are equal in the group iff their
normal forms are identical tuples.

The canonical form is the lexicographically least geodesic: repeatedly emit
the least vertex (in declaration order) whose syllable can be commuted to the
front of the remaining word. This lexicographic normal form of a trace
(Diekert & Rozenberg, The Book of Traces, 1995) is a lex-least topological
sort of the syllables' dependence graph (Kahn's algorithm, min-heap on vertex
index), O(n·|V| + n log |V|) for n syllables. The graph's sources and sinks
are the syllables that cyclic reduction may move to the front and the back.

Every product of normal words goes through one function, `product`, whose
factors are (word, inverted) pairs: `multiply`, `multiply_all`, powers,
conjugates and the evaluation of instance terms all call it. It copies the
first factor's syllables, pushes every later syllable onto the one reduced
list (an inverted factor reversed and negated) and sorts once. Its factors
are valid already, so it checks only their presentation. `is_trivial`
pushes the same way and skips the sort, as only emptiness is read. `invert`
reverses and negates one word directly and pushes nothing. `normalize` is
the one entry point for raw (vertex, exponent) input and the only place
that checks vertex names and integer exponents.

Cayley balls are built by one-letter extension, with no product at all.
These normal forms are prefix-closed (Hermiller & Meier, Algorithms and
geometry for graph products of groups, J. Algebra 171, 1995): removing the
last letter of an element's last syllable leaves the normal form of its
unique parent, one letter shorter, as removing a sink keeps the lex-least
order. So each element of sphere n+1 is its parent with one letter
appended, and a parent's children come in generator order.
"""

from __future__ import annotations

import operator
import sys
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import product as _iproduct, repeat
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    IdentityElement,
    IntegerTooLong,
    InvalidPresentation,
    ParseError,
    PresentationMismatch,
    UnknownVertex,
)


_TEXT = operator.itemgetter(1)


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of text that holds something once its
    ``#`` comment and the whitespace around it are removed. Every reader of a
    line-based format takes its lines from here. The chain of C iterators
    runs no Python code per line, and a text with no ``#`` splits nothing."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return filter(_TEXT, enumerate(map(str.strip, lines), 1))


class Presentation:
    """Graph product of cyclic groups over a finite simple graph.

    ``vertices`` fixes the canonical total order used for all tie-breaking.
    ``order`` maps each vertex to its cyclic order (``None`` means infinite).
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str]],
                 order: Optional[dict[str, Optional[int]]] = None, lines=None):
        """``lines``, a pair of sequences as `from_lines` passes it, gives the
        file line of each vertex and of each edge: an error then names it."""
        vertex_lines, edge_lines = lines or (repeat(None), repeat(None))
        self.vertices = tuple(vertices)
        self.index: dict[str, int] = {}
        order = dict(order or {})
        self.order: dict[str, Optional[int]] = {}
        for v, ln in zip(self.vertices, vertex_lines):
            if not v or v == "1" or any(ch.isspace() or ch in "^(){};*=|.#@" for ch in v):
                raise InvalidPresentation(f"bad vertex name {v!r}", ln)
            if v in self.index:
                raise InvalidPresentation(f"duplicate vertex {v}", ln)
            k = order.pop(v, None)
            if k is not None and (not isinstance(k, int) or k < 2):
                raise InvalidPresentation(f"vertex order must be an integer >= 2 or None, got {k!r}", ln)
            self.index[v] = len(self.index)
            self.order[v] = k
        if order:
            raise UnknownVertex(f"order given for undeclared vertices {sorted(order)}")
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        canon_edges = set()
        for (u, v), ln in zip(edges, edge_lines):
            if u not in self.index or v not in self.index:
                raise UnknownVertex(f"edge ({u}, {v}) uses undeclared vertex", ln)
            if u == v:
                raise InvalidPresentation(f"loop at vertex {u}", ln)
            adj[u].add(v)
            adj[v].add(u)
            canon_edges.add((min(u, v, key=self.index.__getitem__),
                             max(u, v, key=self.index.__getitem__)))
        self.edges = frozenset(canon_edges)
        self.adj = {v: frozenset(adj[v]) for v in self.vertices}
        self._key = (self.vertices, self.edges, tuple(self.order[v] for v in self.vertices))
        self._hash = hash(self._key)

    # -- constructors ------------------------------------------------------

    @classmethod
    def free(cls, names: Sequence[str]) -> "Presentation":
        return cls(names, [])

    @classmethod
    def raag(cls, names: Sequence[str], edges: Iterable[tuple[str, str]]) -> "Presentation":
        return cls(names, edges)

    @classmethod
    def racg(cls, names: Sequence[str], edges: Iterable[tuple[str, str]]) -> "Presentation":
        return cls(names, edges, {v: 2 for v in names})

    @classmethod
    def from_text(cls, text: str) -> "Presentation":
        """Parse the graph file format: ``vertex <name> <order|inf>`` / ``edge <u> <v>`` lines."""
        return cls.from_lines(content_lines(text))

    @classmethod
    def from_lines(cls, lines: Iterable[tuple[int, str]]) -> "Presentation":
        """The graph file format from numbered `content_lines`, which may be
        a block of a larger file: an error names the line in that file."""
        vertices: list[str] = []
        order: dict[str, Optional[int]] = {}
        edges: list[tuple[str, str]] = []
        vertex_lines: list[int] = []
        edge_lines: list[int] = []
        for ln, line in lines:
            parts = line.split()
            if parts[0] == "vertex" and len(parts) == 3:
                name, k = parts[1], parts[2]
                if k in ("inf", "oo", "∞"):
                    k = None
                else:
                    k = parse_int(k, "bad vertex order {!r}", ln)
                vertices.append(name)
                vertex_lines.append(ln)
                # a second declaration is the error, not the first one's order
                order.setdefault(name, k)
            elif parts[0] == "edge" and len(parts) == 3:
                edges.append((parts[1], parts[2]))
                edge_lines.append(ln)
            else:
                raise ParseError(f"unrecognized graph line {line!r}", line=ln)
        return cls(vertices, edges, order, (vertex_lines, edge_lines))

    def to_text(self) -> str:
        lines = [f"vertex {v} {self.order[v] if self.order[v] is not None else 'inf'}"
                 for v in self.vertices]
        lines += [f"edge {u} {v}" for u, v in sorted(self.edges, key=lambda e: (self.index[e[0]], self.index[e[1]]))]
        return "\n".join(lines) + "\n"

    # -- graph structure ---------------------------------------------------

    def adjacent(self, u: str, v: str) -> bool:
        return v in self.adj[u]

    def star(self, v: str) -> frozenset[str]:
        return self.adj[v] | {v}

    def check_vertex(self, v: str) -> None:
        if v not in self.index:
            raise UnknownVertex(f"unknown vertex {v!r}")

    def is_raag(self) -> bool:
        return all(k is None for k in self.order.values())

    def has_finite_abelianisation(self) -> bool:
        return all(k is not None for k in self.order.values())

    # -- syllable helpers --------------------------------------------------

    def reduce_exponent(self, v: str, e: int) -> int:
        """Reduce e into the symmetric range {-floor(k/2), ..., ceil(k/2)-1} for finite order k."""
        k = self.order[v]
        if k is None:
            return e
        r = e % k
        return r if r <= (k - 1) // 2 else r - k

    def syllable_cost(self, v: str, e: int) -> int:
        k = self.order[v]
        if k is None:
            return abs(e)
        r = e % k
        return min(r, k - r)

    def identity(self) -> "NormalWord":
        # built on each call: a stored empty word would refer back to its
        # presentation, a cycle only the cycle collector frees
        return NormalWord(self, ())

    def __eq__(self, other):
        return self is other or (isinstance(other, Presentation) and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        orders = ",".join(f"{v}:{self.order[v] or 'inf'}" for v in self.vertices)
        return f"Presentation({orders}; {len(self.edges)} edges)"


class NormalWord:
    """Canonical geodesic representative of a group element.

    Never build one directly except through :func:`normalize` and friends;
    equality and hashing are syntactic on the syllable tuple.
    """

    __slots__ = ("pres", "syllables", "_hash", "_sums")

    def __init__(self, pres: Presentation, syllables: tuple[tuple[str, int], ...]):
        self.pres = pres
        self.syllables = syllables
        self._hash = hash((pres._hash, syllables))
        self._sums: Optional[tuple[int, ...]] = None

    def exponent_sums(self) -> tuple[int, ...]:
        """The raw exponent sum at each vertex, in declaration order; computed
        on first use and kept. Unreduced: at a vertex of order k, two words
        with equal abelian images may have sums that differ by multiples of k."""
        sums = self._sums
        if sums is None:
            acc = [0] * len(self.pres.vertices)
            index = self.pres.index
            for v, e in self.syllables:
                acc[index[v]] += e
            self._sums = sums = tuple(acc)
        return sums

    def __eq__(self, other):
        return (isinstance(other, NormalWord) and self.pres == other.pres
                and self.syllables == other.syllables)

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return bool(self.syllables)

    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "NormalWord") -> "NormalWord":
        return multiply(self.pres, self, other)

    def inverse(self) -> "NormalWord":
        return invert(self.pres, self)

    def __pow__(self, n: int) -> "NormalWord":
        """The n-th power, normalised once; a negative n powers the inverse.
        The first power is the word itself, and a one-syllable base v^e has
        the closed form v^(e*n), for any n."""
        if operator.index(n) == 1:
            return self
        if len(self.syllables) == 1:
            (v, e), = self.syllables
            e = self.pres.reduce_exponent(v, e * operator.index(n))
            return NormalWord(self.pres, ((v, e),) if e else ())
        return product(self.pres, repeat((self, n < 0), _repeat_count(n)))

    def conjugate_by(self, h: "NormalWord") -> "NormalWord":
        """Return h^-1 * self * h."""
        return product(self.pres, ((h, True), (self, False), (h, False)))

    def __str__(self):
        return format_word(self)

    def __repr__(self):
        return f"<{format_word(self)}>"


def format_word(w: NormalWord) -> str:
    """Render a word in the ``name`` / ``name^k`` syntax; identity prints as 1.
    An exponent too long to convert to text raises IntegerTooLong."""
    if not w.syllables:
        return "1"
    parts = []
    for v, e in w.syllables:
        if e == 1 or w.pres.order[v] == 2:
            parts.append(v)
        else:
            parts.append(f"{v}^{format_int(e)}")
    return " ".join(parts)


def format_int(n: int) -> str:
    """Decimal text of n; IntegerTooLong when it has more digits than the
    interpreter converts to text (`sys.get_int_max_str_digits`)."""
    try:
        return str(n)
    except ValueError:
        raise IntegerTooLong(f"integer of more than {sys.get_int_max_str_digits()} digits") from None


def _repeat_count(n: int) -> int:
    """|n| as a count of copies to expand; IntegerTooLong above sys.maxsize."""
    if abs(n) > sys.maxsize:
        raise IntegerTooLong(f"count of more than {sys.maxsize} copies")
    return abs(n)


def parse_int(text: str, message: str, line: Optional[int] = None,
              token: Optional[str] = None) -> int:
    """Read an integer as every printer writes one: an optional ``-`` and ASCII
    digits. Anything else (``+``, ``_``, spaces, non-ASCII digits), or more
    digits than the interpreter converts, raises ParseError with the message
    template's ``{!r}`` filled in with the token, by default the text. The
    message is formatted only then."""
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:
            pass
    raise ParseError(message.format(text if token is None else token), line=line)


def parse_word(p: Presentation, text: str) -> NormalWord:
    """Parse whitespace-separated ``name`` / ``name^k`` / ``name^-k`` tokens.

    A run of single-character vertex names without separators (like ``abab``)
    is accepted as shorthand. ``1`` denotes the identity.
    """
    pairs: list[tuple[str, int]] = []
    for tok in text.split():
        if tok == "1":
            continue
        name, caret, exp = tok.partition("^")
        e = parse_int(exp, "bad exponent in token {!r}", token=tok) if caret else 1
        if name in p.index:
            pairs.append((name, e))
        elif name and all(ch in p.index for ch in name):
            if e != 1:
                # a one-letter run is a vertex name, taken above; (abab)^k
                # must be written with parentheses at instance level
                raise ParseError(f"exponent on multi-letter run {tok!r}")
            pairs.extend((ch, 1) for ch in name)
        else:
            raise UnknownVertex(f"unknown vertex in token {tok!r}")
    return normalize(p, pairs)


def parse_word_at(p: Presentation, text: str, line: int) -> NormalWord:
    """`parse_word` for a word read from a file: its errors, which carry no
    line, are raised again as ParseError naming the line."""
    try:
        return parse_word(p, text)
    except (ParseError, UnknownVertex) as exc:
        raise ParseError(str(exc), line=line) from None


# ---------------------------------------------------------------------------
# normalization


def _push(p: Presentation, syllables: list[tuple[str, int]], v: str, e: int) -> None:
    """Right-multiply the reduced syllable list by v^e, keeping it reduced."""
    e = p.reduce_exponent(v, e)
    if e == 0:
        return
    j = len(syllables) - 1
    while j >= 0:
        sv = syllables[j][0]
        if sv == v:
            merged = p.reduce_exponent(v, syllables[j][1] + e)
            if merged == 0:
                del syllables[j]
            else:
                syllables[j] = (v, merged)
            return
        if not p.adjacent(sv, v):
            break
        j -= 1
    syllables.append((v, e))


def _dependence(p: Presentation, syllables: Sequence) -> tuple[list[list[int]], list[int]]:
    """Successor lists and predecessor counts of the dependence graph.

    Syllable j precedes a later i when their vertices do not commute (nor does
    a vertex with itself). Edges come only from the last earlier occurrence of
    each vertex, as one vertex's occurrences are chained: O(n·|V|).
    """
    succ: list[list[int]] = []
    waiting: list[int] = []
    last: dict[str, int] = {}
    adj = p.adj
    for i, (v, _) in enumerate(syllables):
        link = adj[v]
        w = 0
        for u, j in last.items():
            if u not in link:
                succ[j].append(i)
                w += 1
        succ.append([])
        waiting.append(w)
        last[v] = i
    return succ, waiting


def _canonical_order(p: Presentation,
                     syllables: list[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """Sort a reduced syllable list into its lexicographically least shuffle:
    repeatedly emit the least vertex whose syllable can be commuted to the front.

    Kahn's algorithm on the dependence graph, with a min-heap of available
    syllables. Two of them never share a vertex, so the vertex index orders
    the heap; an entry is index * n + position. O(n·|V| + n log |V|).
    """
    n = len(syllables)
    if n < 2:
        return tuple(syllables)
    index = p.index
    if n == 2:
        (u, _), (v, _) = syllables
        if index[v] < index[u] and v in p.adj[u]:
            return syllables[1], syllables[0]
        return tuple(syllables)
    succ, waiting = _dependence(p, syllables)
    heap = []
    for i, w in enumerate(waiting):
        if not w:
            heap.append(index[syllables[i][0]] * n + i)
    heapify(heap)
    out = []
    while heap:
        i = heappop(heap) % n
        out.append(syllables[i])
        for k in succ[i]:
            w = waiting[k] - 1
            waiting[k] = w
            if not w:
                heappush(heap, index[syllables[k][0]] * n + k)
    return tuple(out)


def normalize(p: Presentation, word: Iterable[tuple[str, int]]) -> NormalWord:
    """Canonical form of a raw word given as (vertex, exponent) pairs."""
    syllables: list[tuple[str, int]] = []
    for v, e in word:
        if v not in p.index:
            raise UnknownVertex(f"unknown vertex {v!r}")
        if not isinstance(e, int):
            raise ParseError(f"exponent must be an integer, got {e!r}")
        _push(p, syllables, v, e)
    return NormalWord(p, _canonical_order(p, syllables))


def _check(p: Presentation, *words: NormalWord) -> None:
    for w in words:
        if w.pres is not p and w.pres != p:
            raise PresentationMismatch("word built over a different presentation")


def _pushed(p: Presentation, factors: Iterable[tuple[NormalWord, bool]]) -> list[tuple[str, int]]:
    """The reduced syllable list of the product of the factors, left to
    right, not yet sorted; a factor (w, True) stands for w^-1.

    The first factor's syllables are copied, an inverted one's reversed and
    negated, as either is already reduced. Every later syllable is pushed
    onto the one reduced list, an inverted factor's reversed and negated.
    """
    syllables: list[tuple[str, int]] = []
    first = True
    for w, inverted in factors:
        _check(p, w)
        if first and inverted:
            syllables = [(v, p.reduce_exponent(v, -e)) for v, e in reversed(w.syllables)]
        elif first:
            syllables = list(w.syllables)
        elif inverted:
            for v, e in reversed(w.syllables):
                _push(p, syllables, v, -e)
        else:
            for v, e in w.syllables:
                _push(p, syllables, v, e)
        first = False
    return syllables


def product(p: Presentation, factors: Iterable[tuple[NormalWord, bool]]) -> NormalWord:
    """Canonical form of the product of the factors, left to right; a factor
    (w, True) stands for w^-1. Their reduced list (`_pushed`) is sorted
    once. The normal form is unique, so this equals the left fold of
    `multiply`."""
    return NormalWord(p, _canonical_order(p, _pushed(p, factors)))


def is_trivial(p: Presentation, factors: Iterable[tuple[NormalWord, bool]]) -> bool:
    """Whether the product of the factors is the identity, with no sort: a
    reduced word of a graph product is trivial iff it is empty (Green's
    normal form theorem), and the sort in `product` only permutes the list."""
    return not _pushed(p, factors)


def multiply(p: Presentation, a: NormalWord, b: NormalWord) -> NormalWord:
    """Canonical form of the product a*b."""
    return product(p, ((a, False), (b, False)))


def multiply_all(p: Presentation, words: Iterable[NormalWord]) -> NormalWord:
    """Canonical form of the product of the words, left to right, sorted once."""
    return product(p, ((w, False) for w in words))


def invert(p: Presentation, a: NormalWord) -> NormalWord:
    """Canonical form of the inverse."""
    return product(p, ((a, True),))


def geodesic_length(p: Presentation, a: NormalWord) -> int:
    """Minimal number of generator/inverse letters spelling the element."""
    _check(p, a)
    return sum(p.syllable_cost(v, e) for v, e in a.syllables)


def support(p: Presentation, a: NormalWord) -> frozenset[str]:
    """Vertices occurring in any geodesic for the element."""
    _check(p, a)
    return frozenset(v for v, _ in a.syllables)


# ---------------------------------------------------------------------------
# Cayley balls (length-then-lex ordered BFS)

BALL_CACHE_SIZE = 128


def generator_words(p: Presentation) -> list[NormalWord]:
    """All length-one group elements, deduplicated, in ball order: by vertex, v before v^-1."""
    gens = []
    seen = set()
    for v in p.vertices:
        for e in (1, -1):
            g = normalize(p, [(v, e)])
            if g.syllables and g not in seen:
                seen.add(g)
                gens.append(g)
    return gens


@lru_cache(maxsize=BALL_CACHE_SIZE)
def ball(p: Presentation, radius: int) -> dict[NormalWord, int]:
    """All elements of geodesic length <= radius, in length-then-lex order.

    Built by one-letter extension, with no product, set or sort: normal
    forms are prefix-closed (Hermiller & Meier, Algorithms and geometry for
    graph products of groups, J. Algebra 171, 1995), as removing the last
    letter of the last syllable leaves the normal form of a unique parent
    one shorter. So sphere n+1 is, in order, each w of sphere n in order
    times each generator g (in `generator_words` order) whose letter stays
    last: g extends w's last syllable in the same sign while the exponent
    stays in `reduce_exponent`'s range, or g's syllable appends because
    every syllable after w's last one not commuting with g has a smaller
    vertex index.

    The dict maps each element to its index in that order and iterates in
    it, so its keys are the member set and sorting a subset by the dict's
    ``__getitem__`` restores ball order; `shortlex_key` restores it without
    the ball. It is cached and shared by every caller, also across equal
    presentations: never mutate it. The cache keeps the BALL_CACHE_SIZE
    most recently used balls. Only `search` builds balls, and only where a
    depth has no pass set, for a scan, or as a centralizer's link ball. A
    whole benchmark pool (seeds 1, 3, 7) builds at most 27, none of more
    than 277 elements: on `h10_search` only the four one-element balls of
    an empty link, 25-27 on `shadow_mixed`.
    """
    letters: dict[str, list[tuple[str, int]]] = {}
    for g in generator_words(p):
        letters.setdefault(g.syllables[0][0], []).append(g.syllables[0])
    out = {p.identity(): 0}
    sphere = [p.identity()]
    for _ in range(radius):
        grown = []
        for w in sphere:
            sy = w.syllables
            for v, gs in letters.items():
                if sy and sy[-1][0] == v:
                    e = sy[-1][1]
                    for _, d in gs:
                        f = e + d
                        if e * d > 0 and p.reduce_exponent(v, f) == f:
                            grown.append(NormalWord(p, sy[:-1] + ((v, f),)))
                elif _stays_last(p, sy, v):
                    grown.extend(NormalWord(p, sy + (g,)) for g in gs)
        for w in grown:
            out[w] = len(out)
        sphere = grown
    return out


def shortlex_key(w: NormalWord) -> tuple[int, str]:
    """Sort key of ball order: geodesic length, then the spelled letters in
    lex order, a letter ranked by (vertex index, positive before inverse).
    A syllable v^e of the normal form is spelled as |e| letters of e's sign,
    as `ball` extends it: an order-2 letter is stored as v^-1 and v^(k/2)
    at order k as v^-(k/2), so both spell inverse letters. Within a sphere,
    `ball`'s order is the lex order of the spellings, since each element is
    its parent's spelling with one letter appended and a parent's children
    come in `generator_words` order. Built per call, for words of a ball."""
    index = w.pres.index
    letters = "".join([chr(2 * index[v] + (e < 0)) * abs(e) for v, e in w.syllables])
    return len(letters), letters


def _stays_last(p: Presentation, syllables: tuple[tuple[str, int], ...], v: str) -> bool:
    """True iff a new syllable on v, appended to the normal form, stays last:
    every syllable after the last one not commuting with v has a smaller
    vertex index. The scan never stops at a syllable on v (which the new one
    would merge into): the caller extends a last one, and an earlier one is
    followed by a syllable that commutes with v and, as the order is
    lex-least, has a larger index."""
    link, top = p.adj[v], p.index[v]
    for u, _ in reversed(syllables):
        if u not in link:
            return True
        if p.index[u] > top:
            return False
    return True


# ---------------------------------------------------------------------------
# cyclic reduction


def _cyclic_step(p: Presentation, w: NormalWord):
    """The least shortening conjugation (new_word, step_conjugator), or None.

    A shortening pair is an initial syllable v^e and a final syllable v^f (a
    source and a sink of the dependence graph) whose merge costs less than
    the two. Two conjugators remove it: v^e moves the initial syllable to the
    back, v^-f the final one to the front. The step is the least of all these
    conjugators in ball order, which on a syllable v^x compares (length, vertex
    index, x < 0); -f is reduced first, as v^k at order 2k is stored as v^-k.
    """
    sy = w.syllables
    succ, waiting = _dependence(p, sy)
    final = {sy[j][0]: j for j, s in enumerate(succ) if not s}
    steps = []
    for i, (v, e) in enumerate(sy):
        j = final.get(v, i)
        f = sy[j][1]
        if not waiting[i] and j != i and (
                p.syllable_cost(v, e + f) < p.syllable_cost(v, e) + p.syllable_cost(v, f)):
            for x in (e, p.reduce_exponent(v, -f)):
                steps.append((p.syllable_cost(v, x), p.index[v], x < 0, v, x))
    if not steps:
        return None
    *_, v, x = min(steps)
    step = NormalWord(p, ((v, x),))
    return w.conjugate_by(step), step


def cyclically_reduce(p: Presentation, g: NormalWord) -> tuple[NormalWord, NormalWord]:
    """Return (core, h) with h^-1 g h = core cyclically reduced.

    h is the product of `_cyclic_step`'s least steps, and it is the first
    conjugator in ball order whose conjugate has minimal length: reaching
    that length moves one syllable of each shortening pair across the word,
    pairs on different vertices commute, and ball order compares the least
    step first. This makes downstream output reproducible. There is at most
    one step per syllable; `tests/oracle.py` keeps the ball scan it replaces.
    """
    _check(p, g)
    core = g
    steps = []
    while (step := _cyclic_step(p, core)) is not None:
        core, conj = step
        steps.append(conj)
    return core, multiply_all(p, steps)


# ---------------------------------------------------------------------------
# centralizers: one maximal root per non-commutation component of the core


def _noncommutation_components(p: Presentation, vertices: frozenset[str]) -> list[frozenset[str]]:
    """Connected components of the non-commutation graph induced on the set,
    in order of their least vertex: each is grown from the least vertex left."""
    remaining = set(vertices)
    comps = []
    while remaining:
        seed = min(remaining, key=p.index.__getitem__)
        comp = {seed}
        stack = [seed]
        remaining.discard(seed)
        while stack:
            u = stack.pop()
            for v in list(remaining):
                if not p.adjacent(u, v):
                    comp.add(v)
                    remaining.discard(v)
                    stack.append(v)
        comps.append(frozenset(comp))
    return comps


def induced_subpresentation(p: Presentation, vertices) -> Presentation:
    """Presentation on a vertex subset with the induced edges and orders."""
    keep = set(vertices)
    names = [v for v in p.vertices if v in keep]
    edges = [(u, v) for u, v in p.edges if u in keep and v in keep]
    return Presentation(names, edges, {v: p.order[v] for v in names})


def _extract_root(p: Presentation, w: NormalWord) -> tuple[NormalWord, int]:
    """Maximal n with w = u^n, for a cyclically reduced w whose support is one
    non-commutation component.

    The copies of u in u^n do not cancel, so each vertex's letters in w are
    those of the n copies one after another, and u is the subword made of
    the first 1/n of each vertex's letters; n divides the gcd of the letter
    counts. Over two or more vertices n is also at most the syllable count:
    for v, x in the support that do not commute, v-letters of copies i and
    i+1 merge only if v is first and last in u, and then they keep the
    x-letters of the copies apart, so v or x has n syllables or more. One
    sign can be lost: at a vertex of order 2k, the syllables of two copies
    that merge into v^k are stored as v^-k (`reduce_exponent`), so the
    letters a syllable of half order gives up to u when it is split may have
    either sign. Both are tried, the positive one first, as in ball order.

    The first n that passes from the top is maximal. A single syllable v^e
    gives u = v^±1 and n = |e| directly; u generates the vertex group. Over
    two or more vertices, the centralizer of w in the subgroup its support
    generates is infinite cyclic (Barkauskas, Centralizers in graph products
    of groups, J. Algebra 312, 2007), so every root of w there is a power of
    one generator and u is unique. Over right-angled Artin groups this also
    follows from bi-orderability (Duchamp-Krob 1992).
    """
    if len(w.syllables) == 1:  # v^e, read off; v^-k at order 2k is v^k
        v, e = w.syllables[0]
        return normalize(p, [(v, 1 if e > 0 or p.order[v] == -2 * e else -1)]), abs(e)
    counts: dict[str, int] = {}
    for v, e in w.syllables:
        counts[v] = counts.get(v, 0) + abs(e)
    common = gcd(*counts.values())
    for n in range(min(common, len(w.syllables)), 1, -1):
        if common % n:
            continue
        left = {v: c // n for v, c in counts.items()}
        prefix = []
        split = []  # positions of a split syllable of half order
        for v, e in w.syllables:
            k = min(abs(e), left[v])
            if k:
                if k < abs(e) and p.order[v] == 2 * abs(e):
                    split.append(len(prefix))
                prefix.append((v, k if e > 0 else -k))
                left[v] -= k
        for signs in _iproduct((1, -1), repeat=len(split)):
            signed = list(prefix)
            for i, sign in zip(split, signs):
                v, k = prefix[i]
                signed[i] = (v, sign * abs(k))
            u = normalize(p, signed)
            if u ** n == w:
                return u, n
    return w, 1


CENTRALIZER_CACHE_SIZE = 256


class CentralizerDesc(NamedTuple):
    """Conjugated description of a centralizer.

    The centralizer is ``h (prod_i <cyclic_parts[i]> x <link_vertices>) h^-1``
    where h is ``conjugator`` (so g = h core h^-1 with core cyclically reduced).
    ``cyclic_parts[i]`` is the maximal root of the core's syllables on its i-th
    non-commutation component, ``exponents[i]`` the power of it they make. A
    cyclic part on one vertex is v^±1, so it generates the whole vertex group,
    finite or not.
    """
    conjugator: NormalWord
    cyclic_parts: tuple[NormalWord, ...]
    exponents: tuple[int, ...]
    link_vertices: frozenset[str]


@lru_cache(maxsize=CENTRALIZER_CACHE_SIZE)
def centralizer_generators(p: Presentation, g: NormalWord) -> CentralizerDesc:
    """Describe C(g) from the maximal roots of its cyclically reduced conjugate.

    For a cyclically reduced core, C(core) is the subgroup of the link (the
    vertices adjacent to every support vertex) times one factor per
    non-commutation component of the support: a single vertex contributes
    its whole vertex group, and a larger component the cyclic group of its
    root (Barkauskas, Centralizers in graph products of groups, J. Algebra
    312, 2007). This holds in every graph product of cyclic groups, finite
    vertex orders included. The roots are read off the core that
    `cyclically_reduce` returns. C(g) is that conjugated back by h. Cached per
    (presentation, word), so the shadow's lattice rows and the search's pass
    sets share one description; the CENTRALIZER_CACHE_SIZE most recently
    used are kept.
    """
    _check(p, g)
    if g.is_identity():
        raise IdentityElement("centralizer description needs g != 1")
    core, h = cyclically_reduce(p, g)
    supp = support(p, core)
    roots, exps = zip(*[_extract_root(p, normalize(p, [s for s in core.syllables if s[0] in comp]))
                        for comp in _noncommutation_components(p, supp)])
    link = frozenset.intersection(*[p.adj[v] for v in supp])
    return CentralizerDesc(h, roots, exps, link)
