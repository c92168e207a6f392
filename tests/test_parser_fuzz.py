"""Token-soup fuzzing of every text parser: malformed input may only raise
AbelconError (which the CLI turns into exit 3), never another exception."""

import pytest
from hypothesis import example, given, settings, strategies as st

from abelcon.abelian import parse_linear_system
from abelcon.compilers import parse_h10
from abelcon.errors import AbelconError
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
