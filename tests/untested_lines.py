"""List the statements of ``src/abelcon`` that no test executes.

Run from the repository root:

    python tests/untested_lines.py              # the whole suite
    python tests/untested_lines.py PYTEST_ARG ...  # e.g. one test file

It runs pytest in this process under a ``sys.settrace`` line tracer that
records only frames of files under ``src/abelcon``, then prints one line per
statement never executed, ``path:line: source``, and a count. A statement is
listed when its first line holds bytecode (so docstrings and ``global``
declarations never are) and that line never ran.

The tracer is installed again before each phase of every test. CPython
drops a trace function that raises, as one does when a test exhausts the
recursion limit, and a tracer installed once at start-up stops recording
from that test on. Code run in a child interpreter is not seen. A traced
run is several times slower than a plain one, and tests that count garbage
cycles or time themselves may fail under it: the tool reports lines, not
test results.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "abelcon"


class LineTracer:
    """Records executed (file, line) pairs of the package's files."""

    def __init__(self, files):
        self.hit: dict[str, set[int]] = {str(f): set() for f in files}
        self._by_name: dict[str, set[int] | None] = {}  # co_filename -> its set, if traced

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        lines = self._by_name.get(name, False)
        if lines is False:
            lines = self._by_name[name] = self.hit.get(os.path.realpath(name))
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def install(self) -> None:
        sys.settrace(self._global)
        threading.settrace(self._global)

    def remove(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    # pytest hooks: reinstall before each phase of each test
    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item):
        self.install()


def _code_lines(code) -> set[int]:
    """The lines that hold bytecode in a code object and those nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def untested(path: Path, hit: set[int]) -> list[tuple[int, str]]:
    """The (line, source) of each statement of path whose first line holds
    bytecode and never ran."""
    source = path.read_text(encoding="utf-8")
    executable = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    firsts = sorted({node.lineno for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.stmt)})
    return [(n, text[n - 1].strip()) for n in firsts if n in executable and n not in hit]


def main(argv: list[str]) -> int:
    files = sorted(PACKAGE.glob("*.py"))
    sys.path.insert(0, str(ROOT / "src"))
    tracer = LineTracer(files)
    tracer.install()
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or ["tests"])],
                           plugins=[tracer])
    finally:
        tracer.remove()
    missed = 0
    print("untested statements:")
    for path in files:
        rel = path.relative_to(ROOT)
        rows = untested(path, tracer.hit[str(path)])
        missed += len(rows)
        for n, src in rows:
            print(f"{rel}:{n}: {src}")
    print(f"{missed} untested statements in {len(files)} files (pytest exit {int(code)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
