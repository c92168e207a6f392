"""Static checks on the package source that need no linter.

Every name a module imports must be used in that module. ``__init__.py``
is exempt: its imports are the package's re-exports. Every module-level
private function must be referenced somewhere in the package.
"""

import ast
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


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
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
