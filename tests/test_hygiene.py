"""Static checks on the package source that need no linter.

Every name a module imports must be used in that module. ``__init__.py``
is exempt: its imports are the package's re-exports. Every module-level
private function must be referenced somewhere in the package, and every
public module-level function or class outside ``__init__.py`` somewhere in
the package outside its own definition, but for the ``LIBRARY_API`` names
kept for callers of the library. So must every public method of a package
class, as an attribute, but for dunders and overrides of a base class from
outside the package. A product of more than two factors goes
through ``multiply_all`` or ``product``, which normalise once, never
through a pairwise fold of ``multiply``. Every cache
is bounded: an ``lru_cache`` with an explicit integer ``maxsize``. Only
``search.py`` builds a Cayley ball: the word algebra constructs its answers
directly. Only ``words.py`` constructs a ``NormalWord``: everything else
gets its words from ``normalize`` and the other operations there. ``search.py`` names no constraint class and neither ``linear_form``
nor ``abelian_sides``: ``instances.disjunct_shadow`` is its one view of a
constraint. Nor does it name ``abelian_shadow``, ``shadow_unknown`` or
``LinearSystem``: its shadow is integer rows over columns, and no unknown
is named. The witness re-check
``instances._constraint_holds`` names none of ``constraint_rows``,
``linear_form``, ``abelian_sides``, ``disjunct_shadow``, ``product`` or
``evaluate``: it checks on the values themselves. ``search.py`` names no function that ``tests/oracle.py``
defines, so ``naive_search`` and ``isolate_variable`` stay an independent
reference for the walk. Every error class in ``errors.py`` but the base ``AbelconError``
is raised somewhere in the package. The only dataclass is
``search.SearchReport`` (its comment says why): every other record is a
``NamedTuple``, as a dataclass compiles generated methods on each import.
Only ``words.content_lines`` names the comment marker ``"#"``: every reader
of a line-based format takes its lines, comments removed, from there. The
search path (``errors``, ``words``, ``abelian``, ``instances``, ``search``)
imports nothing from ``compilers``, ``graphs`` or ``json``, which the package
loads on first use: a process that only parses and searches never compiles
them.
"""

import ast
import builtins
import importlib
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "abelcon"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``from __future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.AST):
    """The annotation expressions: of arguments, of returns and of ``AnnAssign``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names loaded anywhere, and names inside string annotations. Other
    string constants are data, not references."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    expr = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _referenced_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _attribute_names(tree: ast.Module) -> set[str]:
    """Attribute names and names imported from other modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_unreferenced_private_functions():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    used = set()
    for tree in trees.values():
        used |= _referenced_names(tree) | _attribute_names(tree)
    dead = [f"{name}:{node.lineno} {node.name}"
            for name, tree in sorted(trees.items()) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in used]
    assert not dead, f"private functions nothing in the package references: {dead}"


# public names no module calls, kept on purpose for callers of the library
LIBRARY_API = {
    "vertex_leq": "the paper's star preorder on vertices",
    "parse_linear_system": "the reader of the text format_linear_system writes",
    "integers_into_free_interpretation": "the paper's copy of (Z, +) in a free group by equations",
    "rewrite_under_interpretation": "the paper's interpretability by equations",
    "Presentation.free": "the free group, the base case of every graph product",
    "Presentation.raag": "right-angled Artin groups, the paper's main family",
    "Presentation.racg": "right-angled Coxeter groups, every vertex of order 2",
}


def _external_bases(tree: ast.Module, cls: ast.ClassDef) -> list:
    """The base classes of ``cls`` that come from outside the package: the
    builtins and what the module's absolute imports bind."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name if alias.asname else alias.name.split(".")[0]
                bound[alias.asname or name] = importlib.import_module(name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__":
            module = importlib.import_module(node.module)
            bound.update({a.asname or a.name: getattr(module, a.name) for a in node.names})
    scope = {**vars(builtins), **bound}
    bases = []
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id in scope:
            bases.append(scope[base.id])
        elif isinstance(base, ast.Attribute) and getattr(base.value, "id", None) in scope:
            bases.append(getattr(scope[base.value.id], base.attr))
    return bases


def _attribute_counts(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _unreferenced_public_names(trees: dict[str, ast.Module]) -> list[str]:
    """``module:line name`` of each public module-level function or class
    that no top-level statement of any module but its own definition names,
    and ``module:line Class.method`` of each public method of a class that
    no attribute outside the method's own definition names. Dunders and
    overrides of a base class from outside the package are not listed."""
    refs = {id(node): _referenced_names(node) | _attribute_names(node)
            for tree in trees.values() for node in tree.body}
    attrs = sum((_attribute_counts(tree) for tree in trees.values()), Counter())
    out = []
    for name, tree in sorted(trees.items()):
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not any(node.name in names for key, names in refs.items()
                                if key != id(node))):
                out.append(f"{name}:{node.lineno} {node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            bases = _external_bases(tree, node)
            for method in node.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not method.name.startswith("_")
                        and attrs[method.name] == _attribute_counts(method)[method.name]
                        and not any(hasattr(base, method.name) for base in bases)):
                    out.append(f"{name}:{method.lineno} {node.name}.{method.name}")
    return out


def test_the_public_name_check_flags_a_planted_unused_function():
    trees = {"a.py": ast.parse("def used():\n    return 1\n\n\ndef unused():\n    return unused()\n"),
             "b.py": ast.parse("from .a import used\n\nX = used()\n")}
    assert _unreferenced_public_names(trees) == ["a.py:5 unused"]


def test_the_public_name_check_reads_strings_only_as_annotations():
    planted = """
def f(x: "Annotated") -> "Optional[Returned]":
    return "named_only_in_a_string"


MODE: "Assigned" = "raag"
"""
    trees = {"a.py": ast.parse("def Annotated():\n    pass\n\n\ndef Returned():\n    pass\n\n\n"
                               "def Assigned():\n    pass\n\n\ndef named_only_in_a_string():\n"
                               "    pass\n\n\ndef raag():\n    pass\n"),
             "b.py": ast.parse(planted)}
    assert _unreferenced_public_names(trees) == [
        "a.py:13 named_only_in_a_string", "a.py:17 raag", "b.py:2 f"]


def test_the_public_name_check_flags_a_planted_unused_method():
    planted = """
import argparse


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)

    def __repr__(self):
        return "Parser()"

    def used(self):
        return 1

    def unused(self):
        return self.unused()


PARSER = Parser().used()
"""
    assert _unreferenced_public_names({"a.py": ast.parse(planted)}) == ["a.py:15 Parser.unused"]


def test_every_public_name_is_used_in_the_package():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    found = {entry.rpartition(" ")[2]: entry for entry in _unreferenced_public_names(trees)}
    dead = sorted(entry for name, entry in found.items() if name not in LIBRARY_API)
    assert not dead, f"public names nothing in the package uses (delete, or list in LIBRARY_API): {dead}"
    stale = sorted(set(LIBRARY_API) - set(found))
    assert not stale, f"LIBRARY_API names that are gone or now used in the package: {stale}"


def _is_multiply(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "multiply")


def _multiply_folds(tree: ast.Module) -> list[int]:
    """Lines of a multiply(...) taking another multiply(...) as an argument,
    and of a loop body rebinding a name to multiply(p, name, ...)."""
    lines = [node.lineno for node in ast.walk(tree)
             if _is_multiply(node) and any(_is_multiply(a) for a in node.args)]
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if (isinstance(node, ast.Assign) and _is_multiply(node.value)
                    and len(node.value.args) > 1 and isinstance(node.value.args[1], ast.Name)
                    and any(isinstance(t, ast.Name) and t.id == node.value.args[1].id
                            for t in node.targets)):
                lines.append(node.lineno)
    return sorted(set(lines))


def test_the_fold_check_sees_both_shapes():
    folds = """
def power(p, base, n):
    out = base
    for _ in range(n - 1):
        out = multiply(p, out, base)
    return out

def conjugate(p, h, x, hinv):
    return multiply(p, multiply(p, h, x), hinv)
"""
    assert _multiply_folds(ast.parse(folds)) == [5, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_pairwise_multiply_folds(path):
    folds = _multiply_folds(ast.parse(path.read_text(encoding="utf-8")))
    assert not folds, f"{path.name}: fold products through multiply_all, lines {folds}"


def _unbounded_caches(tree: ast.Module) -> list[int]:
    """Lines of a cache other than an lru_cache with an explicit integer
    maxsize (a literal or a module-level integer constant): functools.cache,
    a bare, argument-less or ``maxsize=None`` lru_cache, and a module-level
    dict or list whose name contains CACHE."""
    ints = {t.id for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant) and type(node.value.value) is int
            for t in node.targets if isinstance(t, ast.Name)}

    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    def bounded(call: ast.Call) -> bool:
        sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
        return len(sizes) == 1 and (
            isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int
            or isinstance(sizes[0], ast.Name) and sizes[0].id in ints)

    ok = {id(node.func) for node in ast.walk(tree)
          if isinstance(node, ast.Call) and name(node.func) == "lru_cache" and bounded(node)}
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in ok
             and name(node) in ("cache", "lru_cache")]
    lines += [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and node.module == "functools" and any(a.name == "cache" for a in node.names)]
    containers = (ast.Dict, ast.List, ast.DictComp, ast.ListComp)
    lines += [node.lineno for node in tree.body
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              and (isinstance(node.value, containers) or isinstance(node.value, ast.Call)
                   and name(node.value.func) in ("dict", "list", "defaultdict", "OrderedDict"))
              and any(isinstance(t, ast.Name) and "CACHE" in t.id.upper()
                      for t in getattr(node, "targets", [getattr(node, "target", None)]))]
    return sorted(set(lines))


def test_the_cache_check_sees_every_unbounded_shape():
    caches = """
import functools
from functools import cache, lru_cache
SIZE = 8
_BALL_CACHE: dict[tuple, list] = {}
_SEEN_CACHE = list()
CACHE_SIZE = 128

@functools.cache
def a(x): return x

@lru_cache(maxsize=None)
def b(x): return x

@lru_cache
def c(x): return x

@lru_cache(maxsize=SIZE)
def d(x): return x

@functools.lru_cache(16)
def e(x): return x
"""
    assert _unbounded_caches(ast.parse(caches)) == [3, 5, 6, 9, 12, 15]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_is_a_bounded_lru_cache(path):
    caches = _unbounded_caches(ast.parse(path.read_text(encoding="utf-8")))
    assert not caches, f"{path.name}: use lru_cache with an integer maxsize, lines {caches}"


def _ball_calls(tree: ast.Module, filename: str) -> list[int]:
    """Lines calling ``words.ball``: by its own name inside words.py, by any
    name it is imported under, or as an attribute ``<module>.ball``."""
    names = {"ball"} if filename == "words.py" else set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").rpartition(".")[2] in ("words", "abelcon")):
            names |= {a.asname or a.name for a in node.names if a.name == "ball"}
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id in names
        or isinstance(node.func, ast.Attribute) and node.func.attr == "ball"))


def test_the_ball_check_sees_every_spelling():
    calls = """
from .words import ball as cayley_ball
from . import words

def scan(p, g):
    for x in cayley_ball(p, 2):
        pass
    return words.ball(p, 3), sorted(g, key=len)
"""
    assert _ball_calls(ast.parse(calls), "compilers.py") == [6, 8]
    assert _ball_calls(ast.parse("def ball(p, r):\n    return ball(p, r - 1)\n"), "words.py") == [2]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "search.py"],
                         ids=lambda p: p.name)
def test_only_search_builds_cayley_balls(path):
    calls = _ball_calls(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert not calls, f"{path.name}: builds a Cayley ball outside search.py, lines {calls}"


def _normal_word_calls(tree: ast.Module) -> list[int]:
    """Lines calling the ``NormalWord`` constructor: by its own name, by any
    name it is imported under, or as an attribute ``<module>.NormalWord``."""
    names = {"NormalWord"} | {a.asname for node in ast.walk(tree)
                              if isinstance(node, ast.ImportFrom)
                              for a in node.names if a.name == "NormalWord" and a.asname}
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id in names
        or isinstance(node.func, ast.Attribute) and node.func.attr == "NormalWord"))


def test_the_normal_word_check_sees_every_spelling():
    calls = """
from .words import NormalWord as NW, normalize
from . import words


def build(p, sy) -> "NormalWord":
    a = NW(p, sy)
    b = words.NormalWord(p, ())
    return normalize(p, sy), isinstance(a, words.NormalWord), NormalWord(p, sy), b
"""
    assert _normal_word_calls(ast.parse(calls)) == [7, 8, 9]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "words.py"],
                         ids=lambda p: p.name)
def test_only_words_constructs_a_normal_word(path):
    calls = _normal_word_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert not calls, f"{path.name}: constructs a NormalWord outside words.py, lines {calls}"


# what search.py leaves to instances.disjunct_shadow, its one view of a constraint
CONSTRAINT_NAMES = {"AbEq", "Coset", "ExpSumEq", "LengthEq", "linear_form", "abelian_sides"}


def _lines_naming(tree: ast.Module, names: set[str]) -> list[int]:
    """Lines naming one of names: as a name, an attribute, an imported name
    under any alias, or inside a string annotation."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found = {node.id}
        elif isinstance(node, ast.Attribute):
            found = {node.attr}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found = {a.name.rpartition(".")[2] for a in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            found = {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
        else:
            continue
        if found & names:
            lines.add(node.lineno)
    return sorted(lines)


def test_the_constraint_name_check_sees_every_spelling():
    code = """
from .instances import AbEq as Eq, disjunct_shadow
from . import instances
from abelcon.instances import linear_form

def check(con: "Coset", p):
    if isinstance(con, instances.ExpSumEq):
        return abelian_sides(con)
    return disjunct_shadow(p, con), "a LengthEq in prose"
"""
    assert _lines_naming(ast.parse(code), CONSTRAINT_NAMES) == [2, 4, 6, 7, 8]


def test_search_names_no_constraint_class():
    path = SRC / "search.py"
    lines = _lines_naming(ast.parse(path.read_text(encoding="utf-8")), CONSTRAINT_NAMES)
    assert not lines, f"search.py: read constraints from instances.disjunct_shadow, lines {lines}"


# the named shadow, kept for printing: the walk solves its shadow as
# integer rows (`instances.disjunct_shadow`, `abelian.solve_rows`)
NAMED_SHADOW_NAMES = {"abelian_shadow", "shadow_unknown", "LinearSystem"}


def test_the_named_shadow_check_sees_every_spelling():
    code = """
from .instances import abelian_shadow as shadows, disjunct_shadow
from .abelian import solve_rows

def solvable(inst: "LinearSystem", p):
    names = [instances.shadow_unknown(x, v) for x in inst.variables for v in p.vertices]
    return solve_rows(*disjunct_shadow(p, inst.disjuncts[0], inst.variables)[:2]), "an abelian_shadow in prose"
"""
    assert _lines_naming(ast.parse(code), NAMED_SHADOW_NAMES) == [2, 5, 6]


def test_search_builds_no_named_shadow():
    path = SRC / "search.py"
    lines = _lines_naming(ast.parse(path.read_text(encoding="utf-8")), NAMED_SHADOW_NAMES)
    assert not lines, f"search.py: solve the shadow's integer rows, names no unknown, lines {lines}"


# what the witness re-check leaves to the shadow and the walk, and the
# products of words it no longer builds (`GroupTerm.evaluate` is one)
WITNESS_CHECK_NAMES = {"constraint_rows", "linear_form", "abelian_sides", "disjunct_shadow",
                       "product", "evaluate"}


def _lines_naming_in_function(tree: ast.Module, function: str, names: set[str]) -> list[int]:
    """Lines of the module-level function that name one of names, or a name
    the module imports one of them under."""
    aliases = {a.asname for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
               for a in node.names if a.asname and a.name.rpartition(".")[2] in names}
    body = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == function]
    assert body, f"no module-level function {function}"
    return _lines_naming(body[0], names | aliases)


def test_the_witness_check_rule_sees_every_spelling():
    code = """
from .words import product as prod
from . import instances


def _constraint_holds(p, con, asg):
    if con:
        return prod(p, [])
    if asg:
        return instances.disjunct_shadow(p, con, asg)
    if p:
        return con.lhs.evaluate(p, asg)
    return linear_form(p, [])


def elsewhere(p):
    return product(p, constraint_rows(p, None))
"""
    assert _lines_naming_in_function(ast.parse(code), "_constraint_holds",
                                     WITNESS_CHECK_NAMES) == [8, 10, 12, 13]


def test_the_witness_check_shares_nothing_with_the_walk():
    path = SRC / "instances.py"
    lines = _lines_naming_in_function(ast.parse(path.read_text(encoding="utf-8")),
                                      "_constraint_holds", WITNESS_CHECK_NAMES)
    assert not lines, f"instances.py: _constraint_holds checks on the values themselves, lines {lines}"


ORACLE = Path(__file__).resolve().parent / "oracle.py"


def _module_functions(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_the_oracle_name_rule_sees_every_spelling():
    oracle = """
def isolate_variable(p, term, k, asg):
    def inner():
        return term
    return inner()


class Reference:
    def method(self):
        return naive_search(self, 0)


async def naive_search(inst, bound):
    return None
"""
    code = """
from .instances import isolate_variable as solve
from tests import oracle


def pass_set(p, term):
    if term:
        return solve(p, term, 0, {})
    if p:
        return oracle.naive_search(p, 1)
    return inner(p), method(p), "naive_search(p, 1)"
"""
    names = _module_functions(ast.parse(oracle))
    assert names == {"isolate_variable", "naive_search"}
    assert _lines_naming(ast.parse(code), names) == [2, 10, 11]


def test_search_names_nothing_the_oracle_defines():
    names = _module_functions(ast.parse(ORACLE.read_text(encoding="utf-8")))
    assert {"isolate_variable", "naive_search"} <= names
    lines = _lines_naming(ast.parse((SRC / "search.py").read_text(encoding="utf-8")), names)
    assert not lines, f"search.py: the walk shares no step with its oracle, lines {lines}"


def _raised_names(tree: ast.Module) -> set[str]:
    """Names a raise statement raises: the class itself or a call of it,
    bare or as ``<module>.Name``, an import alias resolved to its name."""
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names if a.asname}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            names.add(aliases.get(name, name))
    return names


def test_the_raise_check_sees_every_spelling():
    code = """
from .errors import ParseError as PE, UnknownVertex, EmptySet
from . import errors

def f(x):
    if x == 1:
        raise PE("bad") from None
    if x == 2:
        raise UnknownVertex
    if x == 3:
        raise errors.RankTooSmall("small")
    try:
        return EmptySet("only built, never raised")
    except ValueError:
        raise
"""
    assert _raised_names(ast.parse(code)) == {"ParseError", "UnknownVertex", "RankTooSmall"}


def test_every_error_class_is_raised():
    classes = {node.name for node in ast.parse((SRC / "errors.py").read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef)} - {"AbelconError"}
    raised = set()
    for path in SRC.glob("*.py"):
        raised |= _raised_names(ast.parse(path.read_text(encoding="utf-8")))
    assert classes <= raised, f"error classes nothing raises: {sorted(classes - raised)}"


def _dataclass_classes(tree: ast.Module) -> list[str]:
    """Names of the classes decorated as dataclasses: ``@dataclass``, called
    or not, by any name it is imported under, or as ``<module>.dataclass``."""
    names = {"dataclass"} | {a.asname or a.name for node in ast.walk(tree)
                             if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                             for a in node.names if a.name == "dataclass"}

    def is_dataclass(dec) -> bool:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        return (isinstance(dec, ast.Name) and dec.id in names
                or isinstance(dec, ast.Attribute) and dec.attr == "dataclass")
    return [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))]


def test_the_dataclass_check_sees_every_spelling():
    code = """
import dataclasses
import functools
from dataclasses import dataclass as record
from typing import NamedTuple

@dataclasses.dataclass(frozen=True)
class A:
    x: int

@record
class B:
    x: int

class C(NamedTuple):
    x: int

@functools.total_ordering
class D:
    pass
"""
    assert _dataclass_classes(ast.parse(code)) == ["A", "B"]


def test_only_the_search_report_is_a_dataclass():
    found = {f"{path.stem}.{name}" for path in SRC.glob("*.py")
             for name in _dataclass_classes(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {"search.SearchReport"}, f"records are NamedTuples: {sorted(found)}"


def _comment_markers(tree: ast.Module, filename: str) -> list[int]:
    """Lines naming the string ``"#"`` (to split, partition, test or search
    for it) outside the function ``content_lines`` of words.py."""
    inside = {id(n) for node in tree.body if filename == "words.py"
              and isinstance(node, ast.FunctionDef) and node.name == "content_lines"
              for n in ast.walk(node)}
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
                   and node.value == "#" and id(node) not in inside})


def test_the_comment_check_sees_every_spelling():
    code = """
def content_lines(text):
    return text.split("#", 1)[0]


def read(text):
    \"\"\"Lines without their # comments.\"\"\"
    if "#" in text:
        text = text.partition("#")[0]
    return [line for line in text.splitlines() if not line.startswith('#')], "a # b"
"""
    assert _comment_markers(ast.parse(code), "words.py") == [8, 9, 10]
    assert _comment_markers(ast.parse(code), "cli.py") == [3, 8, 9, 10]


def test_only_content_lines_strips_comments():
    found = {f"{path.name}:{line}" for path in SRC.glob("*.py")
             for line in _comment_markers(ast.parse(path.read_text(encoding="utf-8")), path.name)}
    assert not found, f"read lines through words.content_lines: {sorted(found)}"


# what the package loads on first use, and the modules that load with it
LAZY_MODULES = {"compilers", "graphs", "json"}
SEARCH_PATH = ["errors.py", "words.py", "abelian.py", "instances.py", "search.py"]


def _top_level_names(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _lazy_imports(tree: ast.Module, lazy_names: set[str]) -> list[int]:
    """Lines importing one of LAZY_MODULES: as a module, from it, from the
    package as a submodule or as a name it re-exports (one of lazy_names),
    or by ``import_module`` on a string naming it."""
    def names_lazy(dotted: str) -> bool:
        return bool(set(dotted.split(".")) & LAZY_MODULES)

    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found = any(names_lazy(a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            found = names_lazy(node.module or "") or node.module in (None, "abelcon") and any(
                a.name in LAZY_MODULES | lazy_names for a in node.names)
        elif isinstance(node, ast.Call):
            func = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
            found = (func in ("import_module", "__import__") and node.args
                     and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
                     and names_lazy(node.args[0].value))
        else:
            continue
        if found:
            lines.add(node.lineno)
    return sorted(lines)


def test_the_lazy_import_check_sees_every_spelling():
    code = """
import json
import abelcon.compilers as c
from .graphs import weak_modules
from . import compilers, words
from abelcon import parse_h10
from json import dumps
import importlib
from .words import normalize
from . import errors
from abelcon import Presentation


def load(name):
    return importlib.import_module("abelcon.graphs"), __import__(name), "json in prose"
"""
    assert _lazy_imports(ast.parse(code), {"parse_h10"}) == [2, 3, 4, 5, 6, 7, 15]


def test_the_search_path_imports_nothing_loaded_on_first_use():
    lazy_names = set().union(*(_top_level_names(ast.parse((SRC / f"{m}.py").read_text(encoding="utf-8")))
                               for m in ("compilers", "graphs")))
    found = {name: _lazy_imports(ast.parse((SRC / name).read_text(encoding="utf-8")), lazy_names)
             for name in SEARCH_PATH}
    found = {name: lines for name, lines in found.items() if lines}
    assert not found, f"the search path imports what the package loads on first use: {found}"
