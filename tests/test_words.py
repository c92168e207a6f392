import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from abelcon.errors import (
    IdentityElement,
    ParseError,
    PresentationMismatch,
    UnknownVertex,
)
import abelcon.words as words_mod
from abelcon.words import (
    BALL_CACHE_SIZE,
    Presentation,
    ball,
    centralizer_generators,
    content_lines,
    cyclically_reduce,
    format_word,
    geodesic_length,
    invert,
    is_trivial,
    multiply,
    multiply_all,
    normalize,
    parse_int,
    parse_word,
    shortlex_key,
    support,
)

from abelcon.instances import ConstAtom, GroupTerm, VarAtom

from .oracle import (
    Piling,
    all_raw_words,
    ball_by_products,
    bfs_ball_normal_forms,
    centralizer_generating_words,
    in_described_centralizer,
    is_in_centralizer,
    isolate_variable,
    least_conjugator,
    oracle_normal_form,
    sort_key,
    sphere_root,
)


def W(p, text):
    return parse_word(p, text)


# ---------------------------------------------------------------------------
# normalize


def test_normalize_commuting_cancellation(gamma1):
    assert format_word(W(gamma1, "a b a^-1")) == "b"


def test_normalize_non_adjacent_irreducible(gamma1):
    assert format_word(W(gamma1, "a c")) == "a c"


def test_normalize_involution(pentagon):
    assert W(pentagon, "a a").is_identity()


def test_normalize_unknown_vertex(gamma1):
    with pytest.raises(UnknownVertex):
        normalize(gamma1, [("q", 1)])


@pytest.mark.parametrize("exponent", [1.0, "1"])
def test_normalize_rejects_a_non_integer_exponent(gamma1, exponent):
    with pytest.raises(ParseError):
        normalize(gamma1, [("a", exponent)])


def test_content_lines_drop_comments_and_blank_lines_and_keep_numbers():
    text = "# header\n  vertex a inf  # first\n\n\t\nedge a b\n#\n  }  \n"
    assert list(content_lines(text)) == [(2, "vertex a inf"), (5, "edge a b"), (7, "}")]
    assert list(content_lines(text.replace("#", ""))) == [
        (1, "header"), (2, "vertex a inf   first"), (5, "edge a b"), (7, "}")]
    assert list(content_lines("")) == [] and list(content_lines("# only\n")) == []


def test_parse_word_rejects_a_caret_without_exponent(f2):
    for text in ("a^", "a b^ a", "a^1_0", "a^+2"):
        with pytest.raises(ParseError):
            parse_word(f2, text)


def test_normalize_idempotent_samples(gamma1, pentagon, f2):
    rng = random.Random(7)
    for p in (gamma1, pentagon, f2):
        for _ in range(200):
            raw = [(rng.choice(p.vertices), rng.choice([-3, -2, -1, 1, 2, 3]))
                   for _ in range(rng.randrange(0, 9))]
            w = normalize(p, raw)
            assert normalize(p, [(v, e) for v, e in w.syllables]) == w


@st.composite
def raw_words(draw):
    verts = "abcd"
    n = draw(st.integers(0, 8))
    return [(draw(st.sampled_from(verts)), draw(st.integers(-3, 3).filter(bool)))
            for _ in range(n)]


@given(raw_words(), raw_words(), raw_words())
@settings(max_examples=120, deadline=None)
def test_multiply_associative(u, v, w):
    p = Presentation.raag("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    x, y, z = normalize(p, u), normalize(p, v), normalize(p, w)
    assert multiply(p, multiply(p, x, y), z) == multiply(p, x, multiply(p, y, z))
    e = p.identity()
    assert multiply(p, x, e) == x and multiply(p, e, x) == x


def test_multiply_examples(fxy, gamma1, z2):
    assert multiply(fxy, W(fxy, "x"), W(fxy, "x^-1")).is_identity()
    assert format_word(multiply(gamma1, W(gamma1, "a b"), W(gamma1, "a"))) == "a^2 b"
    assert format_word(multiply(z2, W(z2, "a b"), W(z2, "a b"))) == "a^2 b^2"


def test_multiply_mismatch(gamma1, f2):
    with pytest.raises(PresentationMismatch):
        multiply(gamma1, W(gamma1, "a"), W(f2, "a"))


MIXED = Presentation("abcd", [("a", "b"), ("b", "c"), ("c", "d")],
                     {"a": 3, "b": 4, "c": None, "d": None})


def _fold(p, words):
    """The pairwise definition of a product: one multiply per factor."""
    out = p.identity()
    for w in words:
        out = multiply(p, out, w)
    return out


def _random_factors(rng, p, pool):
    """0-5 factors: random words (exponents past the vertex orders), the
    identity, and the inverse of everything before it (full cancellation)."""
    factors = []
    for _ in range(rng.randint(0, 5)):
        roll = rng.random()
        if roll < 0.15:
            factors.append(p.identity())
        elif roll < 0.3 and factors:
            factors.append(_fold(p, factors).inverse())
        elif roll < 0.4 and pool:
            factors.append(rng.choice(pool))
        else:
            letters = [(rng.choice(p.vertices), rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]))
                       for _ in range(rng.randint(1, 4))]
            factors.append(normalize(p, letters))
        pool.append(factors[-1])
    return factors


@pytest.mark.parametrize("name", ["f2", "gamma1", "pentagon", "mixed"])
def test_products_normalise_once_like_the_pairwise_fold(request, name):
    p = MIXED if name == "mixed" else request.getfixturevalue(name)
    rng = random.Random(41)
    pool = []
    for _ in range(150):
        factors = _random_factors(rng, p, pool)
        product = multiply_all(p, factors)
        assert product == _fold(p, factors)
        raw = [pair for w in factors for pair in w.syllables]
        assert product.syllables == oracle_normal_form(p, raw)
        w = product if product else normalize(p, [(p.vertices[0], 1)])
        for n in range(-4, 5):
            base = w if n >= 0 else w.inverse()
            assert w ** n == _fold(p, [base] * abs(n))
        assert (w ** 0).is_identity()
        h = rng.choice(pool)
        assert w.conjugate_by(h) == _fold(p, [h.inverse(), w, h])

        x_atoms = [VarAtom("X"), VarAtom("X", True)]
        atoms = [rng.choice(x_atoms + [ConstAtom(f)]) for f in factors]
        values = [a.word if isinstance(a, ConstAtom) else h.inverse() if a.inverse else h
                  for a in atoms]
        assert GroupTerm(tuple(atoms)).evaluate(p, {"X": h}) == _fold(p, values)

        k = rng.randint(0, len(factors))
        consts = tuple(ConstAtom(f) for f in factors)
        for x in x_atoms:
            term = GroupTerm(consts[:k] + (x,) + consts[k:])
            val = isolate_variable(p, term, k, {})
            want = multiply(p, _fold(p, factors[:k]).inverse(), _fold(p, factors[k:]).inverse())
            assert val == (want.inverse() if x.inverse else want)
            assert term.evaluate(p, {"X": val}).is_identity()


# each product path: (build from x, y and a term over X and Y, its raw word)
PRODUCT_PATHS = {
    "multiply": (lambda p, x, y, t: multiply(p, x, y),
                 lambda x, y, c: [*x.syllables, *y.syllables]),
    "multiply_all": (lambda p, x, y, t: multiply_all(p, [x, y, x]),
                     lambda x, y, c: [*x.syllables, *y.syllables, *x.syllables]),
    "power": (lambda p, x, y, t: x ** 3, lambda x, y, c: list(x.syllables) * 3),
    "negative_power": (lambda p, x, y, t: x ** -3, lambda x, y, c: _inverse_raw(x.syllables) * 3),
    "conjugate_by": (lambda p, x, y, t: x.conjugate_by(y),
                     lambda x, y, c: [*_inverse_raw(y.syllables), *x.syllables, *y.syllables]),
    "evaluate": (lambda p, x, y, t: t.evaluate(p, {"X": x, "Y": y}),
                 lambda x, y, c: [*_inverse_raw(x.syllables), *c.syllables, *y.syllables,
                                  *x.syllables, *_inverse_raw(y.syllables)]),
}


@pytest.mark.parametrize("path", PRODUCT_PATHS)
def test_every_product_path_sorts_once_and_never_normalizes(gamma1, monkeypatch, path):
    """Products of normal words go through `product`: one sort, and no trip
    through `normalize`'s raw-input checks, whichever entry point builds them."""
    build, raw = PRODUCT_PATHS[path]
    x, y, c = W(gamma1, "a b^2 c"), W(gamma1, "d^-1 a"), W(gamma1, "b c")
    term = GroupTerm((VarAtom("X", True), ConstAtom(c), VarAtom("Y"),
                      VarAtom("X"), VarAtom("Y", True)))
    want = oracle_normal_form(gamma1, raw(x, y, c))
    calls = []
    real = words_mod._canonical_order

    def spy(p, syllables):
        calls.append(len(syllables))
        return real(p, syllables)

    def refuse(p, word):
        raise AssertionError("normalize called on a product of normal words")

    monkeypatch.setattr(words_mod, "_canonical_order", spy)
    normalize_fn = words_mod.normalize
    for name, mod in list(sys.modules.items()):
        if name.startswith("abelcon") and getattr(mod, "normalize", None) is normalize_fn:
            monkeypatch.setattr(mod, "normalize", refuse)
    assert build(gamma1, x, y, term).syllables == want
    assert len(calls) == 1


def test_product_of_words_over_another_presentation_is_refused(gamma1, f2):
    with pytest.raises(PresentationMismatch):
        multiply_all(gamma1, [W(gamma1, "a"), W(f2, "a"), W(gamma1, "b")])
    with pytest.raises(PresentationMismatch):
        W(gamma1, "a").conjugate_by(W(f2, "a"))
    with pytest.raises(PresentationMismatch):
        GroupTerm((VarAtom("X", True),)).evaluate(gamma1, {"X": W(f2, "a")})


def _random_signed_factors(rng, p):
    """0-6 (word, inverted) factors: random words, the identity, and now and
    then the inverse of everything so far, so that the product cancels."""
    factors = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if roll < 0.1:
            factors.append((p.identity(), rng.random() < 0.5))
        elif roll < 0.3 and factors:
            factors.extend((w, not inv) for w, inv in reversed(factors[:]))
        else:
            letters = [(rng.choice(p.vertices), rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]))
                       for _ in range(rng.randint(1, 4))]
            factors.append((normalize(p, letters), rng.random() < 0.5))
    return factors


@pytest.mark.parametrize("name", ["f2", "pentagon", "mixed", "gamma1"])
def test_is_trivial_matches_the_product_and_the_oracle(request, name):
    """The unsorted identity test against the sorted product and the piling,
    on signed factor lists, empty ones and ones whose product cancels."""
    p = MIXED if name == "mixed" else request.getfixturevalue(name)
    rng = random.Random(43)
    seen = set()
    for _ in range(300):
        factors = _random_signed_factors(rng, p)
        raw = [pair for w, inv in factors
               for pair in (_inverse_raw(w.syllables) if inv else w.syllables)]
        trivial = is_trivial(p, factors)
        assert trivial == words_mod.product(p, factors).is_identity()
        assert trivial == (oracle_normal_form(p, raw) == ())
        seen.add((len(factors) == 0, trivial))
    assert seen == {(True, True), (False, True), (False, False)}


def test_invert(fxy, c2_free_square):
    w = W(fxy, "x y")
    assert format_word(invert(fxy, w)) == "y^-1 x^-1"
    assert multiply(fxy, w, invert(fxy, w)).is_identity()
    e = fxy.identity()
    assert invert(fxy, e) == e
    ab = W(c2_free_square, "a b")
    assert format_word(invert(c2_free_square, ab)) == "b a"
    assert multiply(c2_free_square, ab, invert(c2_free_square, ab)).is_identity()


# ---------------------------------------------------------------------------
# equality vs the piling oracle, exhaustively on short words


@pytest.mark.parametrize("pres_name,maxlen", [("gamma1", 4), ("pentagon", 4), ("f2", 4)])
def test_canonicity_matches_oracle(request, pres_name, maxlen):
    p = request.getfixturevalue(pres_name)
    by_normalize = {}
    by_oracle = {}
    for raw in all_raw_words(p, maxlen):
        nf = normalize(p, list(raw)).syllables
        onf = oracle_normal_form(p, list(raw))
        by_normalize.setdefault(nf, set()).add(onf)
        by_oracle.setdefault(onf, set()).add(nf)
    assert all(len(s) == 1 for s in by_normalize.values())
    assert all(len(s) == 1 for s in by_oracle.values())


# ---------------------------------------------------------------------------
# long words vs the piling oracle, sampled


LONG_WORD_PRESENTATIONS = ["f2", "gamma1", "pentagon", "mixed", "random9-0", "random9-1", "random9-2"]


def _long_word_presentation(request, name):
    """A fixture's graph, MIXED, or a seeded random graph product on 9
    vertices with orders drawn from {inf, 2, 3, 4}."""
    if name == "mixed":
        return MIXED
    if name.startswith("random9-"):
        rng = random.Random(int(name.rpartition("-")[2]))
        names = "abcdefghi"
        edges = [(u, v) for i, u in enumerate(names) for v in names[i + 1:] if rng.random() < 0.5]
        return Presentation(names, edges, {v: rng.choice([None, 2, 3, 4]) for v in names})
    return request.getfixturevalue(name)


def _raw_word(rng, p, lo, hi):
    return [(rng.choice(p.vertices), rng.choice((1, -1))) for _ in range(rng.randint(lo, hi))]


def _inverse_raw(raw):
    return [(v, -e) for v, e in reversed(raw)]


@pytest.mark.parametrize("name", LONG_WORD_PRESENTATIONS)
def test_long_words_match_the_oracle(request, name):
    p = _long_word_presentation(request, name)
    rng, other = random.Random(97), random.Random(98)
    for _ in range(4):
        raw = _raw_word(rng, p, 100, 400)
        inv_raw = _inverse_raw(raw)
        w = normalize(p, raw)
        assert w.syllables == oracle_normal_form(p, raw)
        assert invert(p, w).syllables == oracle_normal_form(p, inv_raw)
        for n in range(-3, 4):
            assert (w ** n).syllables == oracle_normal_form(p, (raw if n >= 0 else inv_raw) * abs(n))
        h_raw = _raw_word(other, p, 100, 400)
        h = normalize(p, h_raw)
        assert w.conjugate_by(h).syllables == oracle_normal_form(p, _inverse_raw(h_raw) + raw + h_raw)
        term = GroupTerm((VarAtom("X", True), ConstAtom(h), VarAtom("X"), VarAtom("Y", True)))
        assert (term.evaluate(p, {"X": w, "Y": h}).syllables
                == oracle_normal_form(p, inv_raw + h_raw + raw + _inverse_raw(h_raw)))


@pytest.mark.parametrize("name", LONG_WORD_PRESENTATIONS)
def test_cyclically_reduce_long_words(request, name):
    p = _long_word_presentation(request, name)
    rng = random.Random(89)
    conjugators = []
    for _ in range(4):
        x = _raw_word(rng, p, 1, 12)
        g = normalize(p, x + _raw_word(rng, p, 100, 400) + _inverse_raw(x))
        core, h = cyclically_reduce(p, g)
        assert cyclically_reduce(p, core) == (core, p.identity())
        assert core == g.conjugate_by(h)
        h_raw = list(h.syllables)
        assert core.syllables == oracle_normal_form(p, _inverse_raw(h_raw) + list(g.syllables) + h_raw)
        conjugators.append(h)
    assert any(conjugators)


# ---------------------------------------------------------------------------
# lengths and support


def test_geodesic_length_examples(z2, gamma1):
    assert geodesic_length(z2, W(z2, "a b a^-1")) == 1
    assert geodesic_length(z2, z2.identity()) == 0
    assert geodesic_length(gamma1, W(gamma1, "a c")) == 2


def test_geodesic_length_is_bfs_distance(gamma1, pentagon, c2_free_square):
    for p, radius in ((gamma1, 5), (pentagon, 5), (c2_free_square, 6)):
        dist = bfs_ball_normal_forms(p, radius)
        for nf, d in dist.items():
            assert geodesic_length(p, normalize(p, list(nf))) == d


def test_finite_order_syllable_cost():
    p = Presentation(["v"], [], {"v": 5})
    assert geodesic_length(p, normalize(p, [("v", 3)])) == 2  # v^3 = v^-2
    assert geodesic_length(p, normalize(p, [("v", 2)])) == 2


def test_support(gamma1):
    assert support(gamma1, W(gamma1, "a c")) == {"a", "c"}
    assert support(gamma1, W(gamma1, "a b a^-1")) == {"b"}
    assert support(gamma1, gamma1.identity()) == frozenset()


def test_ball_sizes(f2, z2, c2_free_square, gamma1):
    assert len(ball(f2, 1)) == 5
    assert [format_word(w) for w in ball(f2, 1)] == ["1", "a", "a^-1", "b", "b^-1"]
    assert len(ball(z2, 1)) == 5
    assert len(ball(c2_free_square, 2)) == 5
    assert {format_word(w) for w in ball(c2_free_square, 2)} == {"1", "a", "b", "a b", "b a"}
    for r in range(6):  # radii 0 through 5
        assert len(ball(f2, r)) == 2 * 3 ** r - 1
    for p in (gamma1, f2):
        sizes = [len(ball(p, r)) for r in range(5)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_ball_order_is_sort_key_order(f2, gamma1, pentagon):
    mixed = Presentation("abc", [("a", "b"), ("b", "c")], {"a": 3, "b": 4, "c": None})
    for p in (f2, gamma1, pentagon, mixed):
        for r in range(4):
            keys = [sort_key(w) for w in ball(p, r)]
            assert all(a < b for a, b in zip(keys, keys[1:])), (p.vertices, r)


def test_ball_maps_each_element_to_its_position(f2, gamma1, pentagon):
    for p in (f2, gamma1, pentagon):
        for r in range(4):
            b = ball(p, r)
            assert [b[w] for w in b] == list(range(len(b))), (p.vertices, r)


def test_ball_is_cached_per_equal_presentation():
    p = Presentation("abc", [("a", "b")], {"a": 3, "b": None, "c": 2})
    twin = Presentation("abc", [("a", "b")], {"a": 3, "b": None, "c": 2})
    assert twin is not p and twin == p
    assert ball(p, 2) is ball(p, 2) is ball(twin, 2)


def test_ball_cache_is_bounded():
    z = Presentation.free("z")
    assert ball.cache_info().maxsize == BALL_CACHE_SIZE
    for r in range(BALL_CACHE_SIZE + 5):
        assert len(ball(z, r)) == 2 * r + 1
    assert ball.cache_info().currsize <= BALL_CACHE_SIZE
    assert len(ball(z, 0)) == 1  # evicted, and rebuilt the same


# balls by one-letter extension against the product construction; Z/4 and
# Z/6 store a^2 and b^3 as a^-2 and b^-3, so those extend the inverse letter
BALL_GRAPHS = {
    "mixed2": Presentation("abcd", [("a", "b"), ("b", "c"), ("c", "d")],
                           {"a": 3, "b": 4, "c": None, "d": 2}),
    "path5": Presentation.raag("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]),
    "z4z6z": Presentation("abc", [("a", "b")], {"a": 4, "b": 6, "c": None}),
}


@pytest.mark.parametrize("name, radius", [
    ("f2", 8), ("pentagon", 6), ("mixed2", 6), ("path5", 6), ("z4z6z", 7),
    ("random9-0", 4), ("random9-1", 4), ("random9-2", 4)])
def test_ball_matches_the_product_construction(request, name, radius):
    p = BALL_GRAPHS.get(name) or _long_word_presentation(request, name)
    built = ball.__wrapped__(p, radius)  # uncached: the largest has 209 149 elements
    assert list(built) == ball_by_products(p, radius)
    assert list(built.values()) == list(range(len(built)))


def test_ball_holds_half_order_syllables_as_negative_letters():
    p = BALL_GRAPHS["z4z6z"]
    b = ball(p, 4)
    for v, k in (("a", 2), ("b", 3)):
        w = normalize(p, [(v, k)])
        assert w.syllables == ((v, -k),) and w in b and geodesic_length(p, w) == k
    assert normalize(p, [("a", 1), ("b", 3)]) in b


# the ball-order key: F2, the pentagon, MIXED, a Z/4-Z/6-Z path and the path RAAG
KEY_GRAPHS = {"mixed": MIXED,
              "z4-z6-z-path": Presentation("uvw", [("u", "v"), ("v", "w")],
                                           {"u": 4, "v": 6, "w": None})}


@pytest.mark.parametrize("name", ["f2", "pentagon", "mixed", "z4-z6-z-path", "gamma1"])
def test_shortlex_key_sorts_each_ball_back_into_its_order(request, name):
    p = KEY_GRAPHS.get(name) or request.getfixturevalue(name)
    rng = random.Random(name)
    for r in range(5):
        members = list(ball(p, r))
        assert sorted(rng.sample(members, len(members)), key=shortlex_key) == members, r
        keys = [shortlex_key(w) for w in members]
        assert all(a < b for a, b in zip(keys, keys[1:])), r


@pytest.mark.parametrize("name", ["f2", "pentagon", "mixed", "z4-z6-z-path", "gamma1"])
def test_geodesic_length_decides_ball_membership(request, name):
    p = KEY_GRAPHS.get(name) or request.getfixturevalue(name)
    for r in range(4):
        assert {w for w in ball(p, r + 1) if geodesic_length(p, w) <= r} == ball(p, r).keys(), r


# ---------------------------------------------------------------------------
# cyclic reduction


def test_cyclically_reduce_one_step(fxy):
    core, h = cyclically_reduce(fxy, W(fxy, "x y x^-1"))
    assert format_word(core) == "y"
    assert format_word(h) == "x"
    assert multiply(fxy, multiply(fxy, invert(fxy, h), W(fxy, "x y x^-1")), h) == core


def test_cyclically_reduce_already_reduced(fxy):
    w = W(fxy, "x y")
    core, h = cyclically_reduce(fxy, w)
    assert core == w and h.is_identity()


def test_cyclically_reduce_through_commuting_screen(gamma1):
    g = W(gamma1, "b a c a^-1 b^-1")
    core, h = cyclically_reduce(gamma1, g)
    assert format_word(core) == "c"
    assert g.conjugate_by(h) == core


def test_cyclic_core_minimal_over_conjugates(gamma1, pentagon):
    for p in (gamma1, pentagon):
        for g in ball(p, 3):
            core, h = cyclically_reduce(p, g)
            assert g.conjugate_by(h) == core
            assert cyclically_reduce(p, core) == (core, p.identity())
            for x in ball(p, 2):
                assert geodesic_length(p, core) <= geodesic_length(p, g.conjugate_by(x))


Z5 = Presentation("abc", [("a", "b")], {"a": 5, "b": None, "c": None})


@pytest.mark.parametrize("name", ["gamma1", "pentagon", "mixed", "f2", "z5"])
def test_cyclically_reduce_matches_the_ball_scan(request, name):
    p = {"mixed": MIXED, "z5": Z5}.get(name) or request.getfixturevalue(name)
    moved = 0
    for g in ball(p, 5):
        core, h = cyclically_reduce(p, g)
        assert (core, h) == least_conjugator(p, g), format_word(g)
        moved += bool(h)
    assert moved > 100


def test_cyclic_reduction_and_centralizers_build_no_ball():
    f3 = Presentation.free("abc")
    x = W(f3, "a b " * 6)
    ball.cache_clear()
    core, h = cyclically_reduce(f3, multiply_all(f3, [x, W(f3, "c"), x.inverse()]))
    assert (format_word(core), h) == ("c", x)
    f2 = Presentation.free("ab")
    primitive = centralizer_generators(f2, W(f2, "a b^39"))
    assert [format_word(r) for r in primitive.cyclic_parts] == ["a b^39"]
    assert primitive.exponents == (1,) and primitive.conjugator.is_identity()
    power = centralizer_generators(f2, W(f2, "a b a^-1 b^-1") ** 7)
    assert [format_word(r) for r in power.cyclic_parts] == ["a b a^-1 b^-1"]
    assert power.exponents == (7,) and not power.link_vertices
    assert ball.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# blocks: the (root, exponent) pairs of a centralizer description


def blocks(p, core):
    """The (root, exponent) pairs that `centralizer_generators` reads off a
    cyclically reduced core, which it must not conjugate; none for 1."""
    if core.is_identity():
        return []
    desc = centralizer_generators(p, core)
    assert desc.conjugator.is_identity(), format_word(core)
    return list(zip(desc.cyclic_parts, desc.exponents))


def test_blocks_commuting_vertices(gamma1):
    assert [(format_word(r), n) for r, n in blocks(gamma1, W(gamma1, "a^2 b^3"))] == [("a", 2), ("b", 3)]


def test_blocks_primitive_free(fxy):
    assert [(format_word(r), n) for r, n in blocks(fxy, W(fxy, "x y"))] == [("x y", 1)]


def test_blocks_root_extraction(gamma1):
    assert [(format_word(r), n) for r, n in blocks(gamma1, W(gamma1, "a c a c"))] == [("a c", 2)]


@pytest.mark.parametrize("name", ["f2", "gamma1", "gamma2"])
def test_block_roots_match_the_sphere_scan(request, name):
    p = request.getfixturevalue(name)
    rng = random.Random(53)
    for _ in range(40):
        u, _ = cyclically_reduce(p, normalize(p, _raw_word(rng, p, 1, 4)))
        if u.is_identity():
            continue
        k = rng.randint(2, 4)
        dec = blocks(p, u ** k)
        assert all(n % k == 0 for _, n in dec)
        for root, n in dec:
            assert (root, n) == sphere_root(p, root ** n), format_word(u)


@pytest.mark.parametrize("name", ["gamma1", "f2", "gamma2"])
def test_block_product_equals_the_input(request, name):
    p = request.getfixturevalue(name)
    if name == "gamma1":
        elements = list(ball(p, 4))
    else:
        rng = random.Random(61)
        elements = [normalize(p, _raw_word(rng, p, 1, 12)) for _ in range(300)]
    for g in elements:
        core, _ = cyclically_reduce(p, g)
        assert multiply_all(p, [r ** n for r, n in blocks(p, core)]) == core, format_word(g)


# the benchmark's mixed graph: Z/3, Z/4, Z, Z
PQRT = Presentation("pqrt", [("p", "r"), ("q", "t"), ("r", "t")],
                    {"p": 3, "q": 4, "r": None, "t": None})
Z6_Z3 = Presentation("vp", [], {"v": 6, "p": 3})
Z4_Z6_Z = Presentation("uvw", [("u", "w")], {"u": 4, "v": 6, "w": None})


@pytest.mark.parametrize("name", ["pentagon", "mixed", "z4-z6-z"])
def test_blocks_on_finite_order_support_match_the_sphere_scan(request, name):
    p = {"mixed": MIXED, "z4-z6-z": Z4_Z6_Z}.get(name) or request.getfixturevalue(name)
    torsion = 0
    for g in ball(p, 4):
        core, _ = cyclically_reduce(p, g)
        dec = blocks(p, core)
        assert multiply_all(p, [r ** n for r, n in dec]) == core, format_word(g)
        for root, n in dec:
            assert (root, n) == sphere_root(p, root ** n), format_word(g)
        torsion += any(p.order[v] is not None for v in support(p, core))
    assert torsion > 50


@pytest.mark.parametrize("p, text, root", [(PQRT, "q p q", "q p q"), (Z6_Z3, "v p v^2", "v p v^2")],
                         ids=["mixed", "z6-z3"])
def test_root_of_a_square_split_at_half_order(p, text, root):
    # (q p q)^2 = q p q^-2 p q: the merged q^2 is stored as q^-2, so the
    # letters the root takes from it have the other sign
    w = W(p, text) ** 2
    assert [(format_word(r), n) for r, n in blocks(p, w)] == [(root, 2)]
    assert (W(p, root), 2) == sphere_root(p, w)


# ---------------------------------------------------------------------------
# centralizers


def test_centralizer_vertex(gamma1):
    desc = centralizer_generators(gamma1, W(gamma1, "a"))
    assert [format_word(w) for w in desc.cyclic_parts] == ["a"]
    assert desc.link_vertices == {"b"}
    assert desc.conjugator.is_identity()


def test_centralizer_ad(gamma1):
    desc = centralizer_generators(gamma1, W(gamma1, "a d"))
    assert [format_word(w) for w in desc.cyclic_parts] == ["a d"]
    assert desc.link_vertices == frozenset()


def test_centralizer_square(fxy):
    desc = centralizer_generators(fxy, W(fxy, "x^2"))
    assert [format_word(w) for w in desc.cyclic_parts] == ["x"]
    assert desc.exponents == (2,)
    assert desc.link_vertices == frozenset()


def test_centralizer_rejects_identity_and_describes_torsion(gamma1, pentagon):
    with pytest.raises(IdentityElement):
        centralizer_generators(gamma1, gamma1.identity())
    a = parse_word(pentagon, "a")
    desc = centralizer_generators(pentagon, a)  # C(a) = <a> x <b, e>
    assert [format_word(w) for w in desc.cyclic_parts] == ["a"]
    assert desc.link_vertices == {"b", "e"}
    for x in ball(pentagon, 3):
        assert in_described_centralizer(pentagon, desc, x) == is_in_centralizer(pentagon, a, x), format_word(x)


def test_is_in_centralizer(gamma1):
    a, b, c = W(gamma1, "a"), W(gamma1, "b"), W(gamma1, "c")
    assert is_in_centralizer(gamma1, a, b)
    assert not is_in_centralizer(gamma1, a, c)
    g = W(gamma1, "a b c")
    assert is_in_centralizer(gamma1, g, g)


def _expressible_by_short_products(p, desc, x):
    """Reconstruct x as h (prod roots^m_i * link word) h^-1 with small exponents."""
    y = x.conjugate_by(desc.conjugator)
    budget = geodesic_length(p, y)
    vectors = [()]
    for b in desc.cyclic_parts:
        lb = geodesic_length(p, b)
        vectors = [v + (m,) for v in vectors for m in range(-budget // lb, budget // lb + 1)]
    for vec in vectors:
        prod = p.identity()
        for b, m in zip(desc.cyclic_parts, vec):
            prod = multiply(p, prod, b ** m)
        rest = multiply(p, invert(p, prod), y)
        if support(p, rest) <= desc.link_vertices:
            return True
    return False


def test_centralizer_description_matches_commutator_test(gamma1, pentagon):
    for p in (gamma1, pentagon, MIXED):
        elements = ball(p, 3)
        for g in elements:
            if g.is_identity():
                continue
            desc = centralizer_generators(p, g)
            for x in centralizer_generating_words(p, desc):
                assert is_in_centralizer(p, g, x)
            for x in elements:
                assert in_described_centralizer(p, desc, x) == is_in_centralizer(p, g, x), (
                    format_word(g), format_word(x))


def test_centralizer_membership_reconstructed_from_generators(gamma1):
    rng = random.Random(11)
    elements = list(ball(gamma1, 3))
    sample = rng.sample(elements, 40)
    for g in sample:
        if g.is_identity():
            continue
        desc = centralizer_generators(gamma1, g)
        for x in rng.sample(elements, 30):
            if is_in_centralizer(gamma1, g, x):
                assert _expressible_by_short_products(gamma1, desc, x)


class _CountedTemplate(str):
    """A message template that counts how often it is formatted."""
    formatted = 0

    def format(self, *args):
        _CountedTemplate.formatted += 1
        return str.format(self, *args)


def test_parse_int_formats_its_message_only_when_it_raises():
    template = _CountedTemplate("bad exponent in {!r}")
    assert [parse_int(t, template, 4, "x^" + t) for t in ("0", "-17", "8" * 40)] == [0, -17, int("8" * 40)]
    assert _CountedTemplate.formatted == 0
    with pytest.raises(ParseError) as err:
        parse_int("+3", template, 4, "x^+3")
    assert str(err.value) == "bad exponent in 'x^+3' (line 4)" and err.value.line == 4
    with pytest.raises(ParseError) as err:
        parse_int("٣", template)  # a non-ASCII digit; the token defaults to the text
    assert str(err.value) == "bad exponent in '٣'" and err.value.line is None
    assert _CountedTemplate.formatted == 2
