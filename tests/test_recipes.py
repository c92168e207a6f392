"""Witness recipes: the flattened evaluator against the nested reference.

`compilers._word_expr` flattens a recipe into one list of (word, inverted)
factors and normalises it once; `tests/oracle.py::nested_word_expr`
normalises every node on its own. Both must build equal words, on the
recipes the compilers write and on random recipe trees, and must refuse the
same cover splits. `compilers._recipe_values`, which `witness_h10` runs,
splits the image of a run of equal cover splits once; its values must equal
the nested reference's, recipe by recipe.
"""

import random

import pytest

from abelcon import compilers, words
from abelcon.compilers import (
    CompiledReduction,
    _int_expr,
    _recipe_values,
    _word_expr,
    compile_h10_raag,
    i_add,
    i_const,
    i_mul,
    i_var,
    parse_h10,
    w_concat,
    w_conj,
    w_cover_split,
    w_cyclic_conjugator,
    w_inv,
    w_pow,
    w_ref,
    w_word,
    witness_h10,
)
from abelcon.errors import RecipeError
from abelcon.words import Presentation, format_word, normalize

from .oracle import nested_word_expr
from .test_instances import _perfbench_workloads

SYSTEMS = [
    ("1*x*y -1*z = 0", {"x": 2, "y": 3, "z": 6}),
    ("1*x 1*y -5 = 0", {"x": -2, "y": 7}),
    ("1*x*x -1*y = 0\n1*y -9 = 0", {"x": -3, "y": 9}),
]

RAAGS = {
    "path4": Presentation.raag("abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
    "c5": Presentation.raag("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]),
    "join": Presentation.raag("abcde", [("a", "c"), ("b", "c"), ("c", "d"), ("d", "e"),
                                        ("a", "e"), ("b", "e")]),
    "modules21": Presentation.raag("abcd", [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")]),
}


def _both(expr, ints, groups, p):
    """(flattened, nested) values of one recipe; a RecipeError stands for itself."""
    out = []
    for evaluate in (_word_expr, nested_word_expr):
        try:
            out.append(evaluate(expr, ints, groups, p))
        except RecipeError as exc:
            out.append(("RecipeError", str(exc)))
    return out


@pytest.mark.parametrize("graph", sorted(RAAGS))
@pytest.mark.parametrize("system", range(len(SYSTEMS)))
def test_compiled_recipes_match_the_nested_reference(graph, system):
    p = RAAGS[graph]
    text, solution = SYSTEMS[system]
    cr = compile_h10_raag(parse_h10(text), p)
    ints = cr.atomized.extend_solution(solution)
    groups = {}
    for name, expr in cr.recipes:
        flat, nested = _both(expr, ints, groups, p)
        assert flat == nested, (name, expr)
        groups[name] = flat


# a RAAG, and a graph product with vertices of order 3 and 4
RANDOM_GRAPHS = {
    "path4": RAAGS["path4"],
    "mixed": Presentation("pqrt", [("p", "r"), ("q", "t"), ("r", "t")], {"p": 3, "q": 4}),
}


def _random_word(rng, p, length):
    return normalize(p, [(rng.choice(p.vertices), rng.choice([-2, -1, 1, 2]))
                         for _ in range(length)])


def _random_tree(rng, p, names, depth):
    """A random word recipe over the variables ``names``: every node kind,
    powers with zero, negative and multi-syllable bases included."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            return w_ref(rng.choice(names))
        return w_word(_random_word(rng, p, rng.randint(0, 4)))
    kind = rng.choice(["inv", "concat", "conj", "pow", "cyclic", "split"])

    def sub():
        return _random_tree(rng, p, names, depth - 1)

    if kind == "inv":
        return w_inv(sub())
    if kind == "concat":
        return w_concat(*(sub() for _ in range(rng.randint(0, 3))))
    if kind == "conj":
        return w_conj(sub(), sub())
    if kind == "pow":
        base = w_word(_random_word(rng, p, rng.randint(2, 4))) if rng.random() < 0.5 else sub()
        exp = rng.choice([i_const(rng.randint(-3, 3)), i_const(0),
                          i_add(i_var("n"), i_const(-2)), i_mul(i_const(-1), i_var("n"))])
        return w_pow(base, exp)
    if kind == "cyclic":
        return w_cyclic_conjugator(sub())
    arg = w_inv(sub()) if rng.random() < 0.5 else sub()
    cover = rng.sample(p.vertices, rng.randint(1, len(p.vertices)))
    exclude = rng.sample(p.vertices, rng.randint(0, 1))
    return w_cover_split(arg, exclude, cover, rng.randrange(len(cover)))


@pytest.mark.parametrize("graph", sorted(RANDOM_GRAPHS))
@pytest.mark.parametrize("seed", range(4))
def test_random_recipe_trees_match_the_nested_reference(graph, seed):
    p = RANDOM_GRAPHS[graph]
    rng = random.Random(seed)
    groups = {name: _random_word(rng, p, rng.randint(0, 6)) for name in ("X", "Y", "Z")}
    ints = {"n": rng.randint(-3, 3)}
    kinds = set()
    for _ in range(60):
        expr = _random_tree(rng, p, sorted(groups), 4)
        flat, nested = _both(expr, ints, groups, p)
        assert flat == nested, expr
        kinds.add(type(flat).__name__)
    assert kinds == {"NormalWord", "tuple"}  # both words and refused splits were drawn


def test_cover_splits_of_inverted_arguments_and_finite_orders():
    p = RANDOM_GRAPHS["mixed"]
    groups = {"X": normalize(p, [("p", 2), ("q", 1), ("r", 3)]),
              "Y": normalize(p, [("p", 1), ("t", -1), ("q", 3)])}
    # X X Y^-1 has abelian image p^3 q^-1 r^6 t: p is 0 mod 3, q is 3 mod 4
    arg = w_concat(w_ref("X"), w_ref("X"), w_inv(w_ref("Y")))
    parts = [_word_expr(w_cover_split(arg, [], ["r", "q"], j), {}, groups, p) for j in range(2)]
    assert [format_word(w) for w in parts] == ["r^6 t", "q^-1"]
    assert parts == [nested_word_expr(w_cover_split(arg, [], ["r", "q"], j), {}, groups, p)
                     for j in range(2)]
    inverted = w_inv(arg)
    assert (_word_expr(w_cover_split(inverted, [], ["r", "q"], 0), {}, groups, p)
            == nested_word_expr(w_cover_split(inverted, [], ["r", "q"], 0), {}, groups, p)
            == parts[0].inverse())
    # an excluded vertex with a nonzero coordinate refuses on both sides
    split = w_cover_split(arg, ["t"], ["r", "q"], 0)
    for evaluate in (_word_expr, nested_word_expr):
        with pytest.raises(RecipeError, match="nonzero coordinate at t"):
            evaluate(split, {}, groups, p)
    # a coordinate that is 0 mod its order is not refused
    assert _word_expr(w_cover_split(arg, ["p"], ["r", "q"], 1), {}, groups, p) == parts[1]


@pytest.fixture
def product_calls(monkeypatch):
    """Count `words.product` calls, whichever module makes them."""
    calls = []
    real = words.product

    def counted(p, factors):
        calls.append(1)
        return real(p, factors)

    monkeypatch.setattr(words, "product", counted)
    monkeypatch.setattr(compilers, "product", counted)
    return calls


def test_a_nested_recipe_is_one_product(product_calls):
    p = RAAGS["path4"]
    groups = {"X": normalize(p, [("a", 1), ("c", -2)]), "Y": normalize(p, [("d", 1), ("b", 1)])}
    expr = w_concat(w_ref("X"), w_inv(w_concat(w_ref("Y"), w_conj(w_inv(w_ref("X")), w_ref("Y")))),
                    w_conj(w_concat(w_ref("X"), w_ref("Y")), w_inv(w_ref("X"))))
    value = _word_expr(expr, {}, groups, p)
    assert len(product_calls) == 1
    assert value == nested_word_expr(expr, {}, groups, p)


def test_a_cover_split_multiplies_nothing(product_calls):
    p = RAAGS["path4"]
    groups = {"X": normalize(p, [("a", 1), ("c", -2)]), "Y": normalize(p, [("d", 1), ("b", 1)])}
    arg = w_concat(w_ref("X"), w_inv(w_concat(w_ref("Y"), w_ref("X"))), w_ref("Y"), w_ref("Y"))
    value = _word_expr(w_cover_split(arg, [], ["a", "d"], 1), {}, groups, p)
    assert product_calls == []
    assert format_word(value) == "d"


@pytest.mark.parametrize("value", ["2", 2.5, True, None, [2]])
def test_an_integer_constant_must_be_an_int(value):
    p = RAAGS["path4"]
    expr = i_mul(i_const(value), i_const(10 ** 12))
    with pytest.raises(RecipeError, match="integer constant must be an int"):
        _int_expr(expr, {}, {}, p)
    assert _int_expr(i_mul(i_const(-3), i_const(10 ** 12)), {}, {}, p) == -3 * 10 ** 12


def _nested_values(recipes, ints, p):
    """Each recipe's value by the nested reference, in order."""
    groups = {}
    for name, expr in recipes:
        groups[name] = nested_word_expr(expr, ints, groups, p)
    return groups


@pytest.fixture
def abelianize_calls(monkeypatch):
    """Count the cover splits' `abelianize_product` calls."""
    calls = []
    real = compilers.abelianize_product

    def counted(p, factors):
        calls.append(1)
        return real(p, factors)

    monkeypatch.setattr(compilers, "abelianize_product", counted)
    return calls


@pytest.mark.parametrize("graph", sorted(RAAGS))
@pytest.mark.parametrize("system", range(len(SYSTEMS)))
def test_a_zero_gadget_abelianizes_its_argument_once(graph, system, abelianize_calls):
    p = RAAGS[graph]
    text, solution = SYSTEMS[system]
    cr = compile_h10_raag(parse_h10(text), p)
    splits = [expr for _, expr in cr.recipes if expr["op"] == "ab_cover_split"]
    gadgets = {id(expr["arg"]) for expr in splits}  # one shared argument per zero gadget
    want = _nested_values(cr.recipes, cr.atomized.extend_solution(solution), p)
    back = CompiledReduction.from_sidecar_json(cr.sidecar_json(), cr.instance)
    for reduction in (cr, back):  # shared arguments, then equal ones read from JSON
        abelianize_calls.clear()
        assert witness_h10(reduction, solution) == want
        assert len(abelianize_calls) == len(gadgets)


def test_witnesses_match_the_nested_reference_on_the_benchmark_pool(abelianize_calls):
    pool = _perfbench_workloads().WORKLOADS["raag_roundtrip"].generate(7)
    pres = {g: Presentation.from_text(t) for g, t in pool.graphs.items()}
    assert len(pool.requests) == 150
    gadgets = splits = 0
    for req in pool.requests:
        p = pres[req.graph]
        cr = compile_h10_raag(parse_h10(req.text), p)
        want = _nested_values(cr.recipes, cr.atomized.extend_solution(req.planted), p)
        assert witness_h10(cr, req.planted) == want, req.text
        args = [expr["arg"] for _, expr in cr.recipes if expr["op"] == "ab_cover_split"]
        gadgets += len({id(arg) for arg in args})
        splits += len(args)
    assert len(abelianize_calls) == gadgets < splits


def test_a_run_of_cover_splits_ends_where_its_argument_may_change():
    p = RAAGS["path4"]
    arg = w_ref("X")
    a, d2 = normalize(p, [("a", 1)]), normalize(p, [("d", 2)])
    head = (("X", w_word(a)), ("Z0", w_cover_split(arg, [], ["a", "d"], 0)))
    # X gets a new value between two equal splits: the second reads X = d^2
    recipes = head + (("X", w_word(d2)), ("Z1", w_cover_split(arg, [], ["a", "d"], 1)))
    values = _recipe_values(recipes, {}, p)
    assert values == _nested_values(recipes, {}, p)
    assert (values["Z0"], values["Z1"]) == (a, d2)
    # a damaged split after an intact one refuses as it does on its own
    damaged = {"exclude": ("Z1", w_cover_split(arg, ["a"], ["a", "d"], 1)),
               "index": ("Z1", w_cover_split(arg, [], ["a", "d"], 2)),
               "op": ("Z1", dict(w_cover_split(arg, [], ["a", "d"], 1), op="ab_cover_splat"))}
    for kind, recipe in damaged.items():
        with pytest.raises(RecipeError) as flat:
            _recipe_values(head + (recipe,), {}, p)
        with pytest.raises(RecipeError) as alone:
            _recipe_values(head[:1] + (recipe,), {}, p)
        assert str(flat.value) == str(alone.value), kind
