"""Smoke test of ``tests/untested_lines.py``, run over one small test file:
a statement that file runs is not listed, and one it never reaches is."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _line_of(path: str, text: str) -> int:
    lines = (ROOT / path).read_text(encoding="utf-8").splitlines()
    (n,) = [i for i, line in enumerate(lines, 1) if text in line]
    return n


def test_the_report_lists_an_unreached_statement_and_not_a_reached_one():
    out = subprocess.run([sys.executable, "tests/untested_lines.py", "tests/test_graphs.py"],
                         cwd=ROOT, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    report = out.stdout.split("untested statements:\n", 1)[1].splitlines()
    assert report[-1].endswith("(pytest exit 0)")
    # test_graphs.py decomposes graphs and never parses an instance
    reached = _line_of("src/abelcon/graphs.py", "return _noncommutation_components(p, frozenset(")
    unreached = _line_of("src/abelcon/instances.py", 'self.fail("unbalanced parenthesis", ln)')
    assert any(line.startswith(f"src/abelcon/instances.py:{unreached}: ") for line in report)
    assert not any(line.startswith(f"src/abelcon/graphs.py:{reached}: ") for line in report)
