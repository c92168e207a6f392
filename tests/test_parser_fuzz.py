"""Token-soup fuzzing of every text parser, and damaged-sidecar fuzzing of the
sidecar reader: malformed input may only raise AbelconError (which the CLI
turns into exit 3), never another exception."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from abelcon.abelian import parse_linear_system
from abelcon.compilers import (
    CompiledReduction,
    compile_h10_free,
    compile_h10_raag,
    parse_h10,
    witness_h10,
)
from abelcon.errors import AbelconError, ParseError
from abelcon.instances import parse_instance
from abelcon.words import Presentation, parse_word

F2_HEADER = "graph {\n  vertex a inf\n  vertex b inf\n}\n"
MIXED = Presentation("abcd", [("a", "b"), ("b", "c"), ("c", "d")],
                     {"a": 3, "b": 4, "c": None, "d": None})

# pieces of every grammar, with small exponents and multipliers only, and no
# "group" line, which would read a file
TOKENS = [
    "graph", "{", "}", "vertex", "edge", "a", "b", "c", "d", "ab", "q", "inf", "oo",
    "vars", "X", "Y", "disjunct", "eq", "=", "= 1", "1", "0", "2", "-1", "+3",
    "ab:", "expsum:", "len:", "coset:", "in", "*", "G'", "*G'", "(", ")", "( a b )",
    "^", "^2", "^-1", "^x", "a^", "a^2", "b^-1", "X^", "X^-2", "Y^3", "2*", "-2*", "3*X",
    "2*(", "|X|", "|X|_a", "|Y|_b", "|Z|_a", "|X|_", ";", "#", "mod", "mod 4",
    "x", "y", "z", "1*x*y", "-1*z", "2*x", "*x", "1*", "= 0",
]
soups = st.lists(
    st.tuples(st.sampled_from(TOKENS), st.sampled_from([" ", " ", "\n", ""])),
    max_size=24,
).map(lambda parts: "".join(tok + sep for tok, sep in parts))

PARSERS = {
    "instance-body": lambda text: parse_instance(
        F2_HEADER + "vars X Y\ndisjunct {\n  eq X = 1\n" + text + "\n}\n"),
    "instance": lambda text: parse_instance(text, presentation=MIXED),
    "instance-headerless": parse_instance,
    "word": lambda text: parse_word(MIXED, text),
    "graph": Presentation.from_text,
    "h10": parse_h10,
    "linear-system": parse_linear_system,
}


@pytest.mark.parametrize("parser", sorted(PARSERS))
@settings(derandomize=True, deadline=None, max_examples=150)
@given(text=soups)
@example(text="ab: X 2* = = 3*X")
def test_parsers_raise_only_abelcon_errors(parser, text):
    try:
        PARSERS[parser](text)
    except AbelconError:
        pass


# integers as no printer writes them, at every integer a parser reads
LOOSE_INTEGERS = [
    ("graph", "vertex a 1_0\n"),
    ("graph", "vertex a +3\n"),
    ("word", "a^1_0"),
    ("h10", "1_0*x -2 = 0\n"),
    ("h10", "+1*x -2 = 0\n"),
    ("linear-system", "1_0 x = 2\n"),
    ("linear-system", "1 x = +2\n"),
    ("linear-system", "1 x = 2 mod 1_0\n"),
    ("instance-body", "eq X^1_0 = 1"),
    ("instance-body", "eq ( a b )^+2 = 1"),
    ("instance-body", "eq 2_0*X = 1"),
    ("instance-body", "expsum: 1_0 |X|_a = 1"),
    ("instance-body", "len: 1 |X| = \u0663"),
    # more digits than int() converts
    ("word", "a^" + "9" * 5000),
    ("h10", "9" * 5000 + "*x -2 = 0\n"),
]


@pytest.mark.parametrize("parser,text", LOOSE_INTEGERS)
def test_integers_are_an_optional_minus_and_ascii_digits(parser, text):
    with pytest.raises(ParseError):
        PARSERS[parser](text)


def _compiled(compile_, h10, graph, solution):
    cr = compile_(parse_h10(h10), Presentation.from_text(graph))
    return cr.sidecar_json(), cr.instance, solution


SIDECARS = {
    "free": _compiled(compile_h10_free, "1*x*y -1*z = 0\n", "vertex a inf\nvertex b inf\n",
                      {"x": 2, "y": 3, "z": 6}),
    "raag": _compiled(compile_h10_raag, "1*x*y -1*z = 0\n",
                      "vertex a inf\nvertex b inf\nvertex c inf\nvertex d inf\n"
                      "edge a b\nedge b c\nedge c d\n", {"x": 1, "y": 2, "z": 2}),
}
JSON_VALUES = [None, True, 0, 2, -1, 2.5, "", "x", "a", "nope", [], ["x", "a"], {}, {"op": "const"}]


def _paths(node, path=()):
    """The path of every value below the document root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@pytest.mark.parametrize("case", sorted(SIDECARS))
@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_damaged_sidecars_raise_only_abelcon_errors(case, data):
    """Delete a key, or give a value another JSON type, anywhere in a valid
    sidecar; reading it and building the witness may only raise AbelconError."""
    text, inst, solution = SIDECARS[case]
    doc = json.loads(text)
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(
            [v for v in JSON_VALUES if type(v) is not type(old)]))
    try:
        witness_h10(CompiledReduction.from_sidecar_json(json.dumps(doc), inst), solution)
    except AbelconError:
        pass
