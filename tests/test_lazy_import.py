"""The H10 compilers and the graph tools load on first use.

A process that imports ``abelcon``, parses an instance and searches it
never runs ``compilers.py`` or ``graphs.py`` and never imports ``json``; the
names re-exported from those modules still resolve, in the package and on
the command line. Fresh interpreters watch module execution through an
audit hook: every module body runs through ``exec``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import abelcon

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}

PROBE = """
import os
import sys

executed = set()


def watch(event, args):
    if event == "exec":
        executed.add(os.path.basename(getattr(args[0], "co_filename", "")))


sys.addaudithook(watch)
{body}
print(sorted(executed & {{"compilers.py", "graphs.py"}}), "json" in sys.modules)
"""

PENTAGON_INSTANCE = ("graph {\n"
                     + "".join(f"  vertex {v} 2\n" for v in "abcde")
                     + "".join(f"  edge {u} {v}\n" for u, v in ("ab", "bc", "cd", "de", "ea"))
                     + "}\nvars X Y\ndisjunct {\n  eq X b X^-1 b^-1 = 1\n"
                     "  eq Y Y^-1 = 1\n  ab: X Y = ( a b )\n}\n")


def _probe(body: str, *, cwd=None) -> str:
    """The last stdout line of the probe running body: which of the lazy
    modules ran, and whether json was imported."""
    out = subprocess.run([sys.executable, "-c", PROBE.format(body=body)], cwd=cwd, env=ENV,
                         capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.splitlines()[-1]


def test_parse_and_search_load_no_compiler_graph_tool_or_json():
    body = f"""
import abelcon
inst = abelcon.parse_instance({PENTAGON_INSTANCE!r})
report = abelcon.search(inst, 2)
assert report.verdict == "Witness", report
"""
    assert _probe(body) == "[] False"


def test_the_cli_solve_loads_no_compiler_graph_tool_or_json(tmp_path):
    (tmp_path / "pentagon.inst").write_text(PENTAGON_INSTANCE)
    body = """
import runpy
sys.argv = ["abelcon", "solve", "pentagon.inst", "--bound", "2"]
try:
    runpy.run_module("abelcon", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""
    assert _probe(body, cwd=tmp_path) == "[] False"


def test_a_re_exported_name_loads_its_module_on_first_use():
    body = """
import abelcon
from abelcon import compile_h10_free
free = abelcon.Presentation.free("ab")
raag = abelcon.Presentation.raag("ab", [])
assert compile_h10_free(abelcon.parse_h10("1*x -2 = 0"), free).instance.variables
assert abelcon.compile_h10_raag(abelcon.parse_h10("1*x -2 = 0"), raag).instance.variables
assert abelcon.weak_modules(free)
"""
    assert _probe(body) == "['compilers.py', 'graphs.py'] True"


def test_the_cli_compiles_through_the_lazy_modules(tmp_path):
    (tmp_path / "sum.h10").write_text("1*x 1*y -5 = 0\n")
    (tmp_path / "f2.graph").write_text("vertex a inf\nvertex b inf\n")
    out = subprocess.run(
        [sys.executable, "-m", "abelcon", "compile-h10", "sum.h10", "--target", "f2.graph",
         "--out", "sum.inst", "--sidecar", "sum.json"],
        cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("compiled 1 equations into ")
    assert (tmp_path / "sum.inst").read_text().startswith("graph {")


def test_a_rebinding_walk_over_sys_modules_is_undone_in_the_lazy_modules():
    """A tracer rebinds a function wherever a loaded module holds it, then
    puts the originals back. Its walk over sys.modules loads compilers on
    reaching it, which must happen before words is rebound: compilers would
    otherwise import the wrapper, and keep it once the walk is undone."""
    body = """
import abelcon
from abelcon import words
original = words.multiply
wrapper = lambda *args: original(*args)
undo = []
for module in [m for n, m in list(sys.modules.items()) if n.startswith("abelcon")]:
    for attr, value in list(vars(module).items()):
        if value is original:
            undo.append((module, attr))
            setattr(module, attr, wrapper)
assert sys.modules["abelcon.compilers"].multiply is wrapper
for module, attr in undo:
    setattr(module, attr, original)
assert sys.modules["abelcon.compilers"].multiply is original
"""
    assert _probe(body) == "['compilers.py', 'graphs.py'] True"


def test_a_re_exported_name_reads_its_module_on_every_access(monkeypatch):
    compilers = sys.modules["abelcon.compilers"]
    original = compilers.witness_h10
    monkeypatch.setattr(compilers, "witness_h10", len)
    assert abelcon.witness_h10 is len
    monkeypatch.undo()
    assert abelcon.witness_h10 is original
    assert "witness_h10" not in vars(abelcon)


def test_every_exported_name_is_listed_and_resolves():
    assert set(abelcon.__all__) <= set(dir(abelcon))
    assert all(getattr(abelcon, name) is not None for name in abelcon.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'compile_h10'"):
        abelcon.compile_h10
