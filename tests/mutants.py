"""A standing catalogue of named mutants: known-wrong variants of the fast
paths, each with the tests that must fail on it.

Run from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

The tree (``src/``, ``tests/``) is copied once to a temporary directory.
Each mutant is applied there alone: its one old text is replaced, its
killing tests run with pytest against the copy, and the file is put back.
A mutant whose tests all pass survives, and then the command exits 1.
``tests/test_mutants.py`` checks in tier-1 that each old text occurs
exactly once in its file, so a change that moves the code must re-anchor
its mutant, not lose it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str              # relative to the repository root
    old: str               # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids; at least one must fail


MUTANTS = (
    Mutant("shortlex-key-inverse-first", "src/abelcon/words.py",
           "chr(2 * index[v] + (e < 0))", "chr(2 * index[v] + (e > 0))",
           ("tests/test_words.py::test_shortlex_key_sorts_each_ball_back_into_its_order",)),
    Mutant("solved-value-shorter-than-the-bound", "src/abelcon/search.py",
           "(val,) if geodesic_length(p, val) <= self.bound else ()",
           "(val,) if geodesic_length(p, val) < self.bound else ()",
           ("tests/test_search.py::test_search_matches_naive",)),
    Mutant("whole-ball-depth-without-a-fetch", "src/abelcon/search.py",
           "order = whole_ball()", "order = ball or ()",
           ("tests/test_search.py::test_search_matches_naive",
            "tests/test_search.py::test_a_depth_without_a_pass_set_and_a_scan_fetch_the_ball_once")),
    Mutant("centralizer-budget-below-the-bound", "src/abelcon/search.py",
           "    budget = bound\n", "    budget = bound - 1\n",
           ("tests/test_search.py::test_centralizer_pass_set_of_a_long_conjugate_matches_the_commutator_scan",)),
    Mutant("constraint-row-without-mod-k", "src/abelcon/search.py",
           "if t if k is None else t % k:", "if t:",
           ("tests/test_compiled_constraints.py::test_finite_order_sums_that_differ_by_the_order_are_equal",
            "tests/test_search_differential.py::test_search_matches_naive_oracle_on_every_pass_set_path")),
    Mutant("solve-rows-without-divisibility", "src/abelcon/abelian.py",
           "                if rhs[r] % a:\n                    return None\n", "",
           ("tests/test_abelian.py::test_congruences",
            "tests/test_abelian.py::test_agreement_with_box_brute_force")),
    Mutant("inverted-first-factor-unreduced", "src/abelcon/words.py",
           "syllables = [(v, p.reduce_exponent(v, -e)) for v, e in reversed(w.syllables)]",
           "syllables = [(v, -e) for v, e in reversed(w.syllables)]",
           ("tests/test_words.py::test_products_normalise_once_like_the_pairwise_fold",
            "tests/test_words.py::test_long_words_match_the_oracle")),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def run(mutants) -> int:
    """Apply and test each mutant; 1 if any survives or cannot be applied."""
    survived = 0
    with tempfile.TemporaryDirectory(prefix="abelcon-mutants-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        for m in mutants:
            path = tree / m.file
            original = path.read_text(encoding="utf-8")
            if original.count(m.old) != 1:
                print(f"{m.name}: old text occurs {original.count(m.old)} times in {m.file}")
                survived += 1
                continue
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.monotonic()
            try:
                out = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *m.tests],
                    cwd=tree, env=env, capture_output=True, text=True)
            finally:
                path.write_text(original, encoding="utf-8")
            # pytest exits 1 when a test failed; 0 is a survivor, and 2-5 mean
            # the tests did not run as written
            killed = out.returncode == 1
            survived += not killed
            verdict = "killed" if killed else f"SURVIVED (pytest exit {out.returncode})"
            print(f"{m.name}: {verdict} in {time.monotonic() - start:.1f} s")
    return 1 if survived else 0


def main(argv: list[str]) -> int:
    names = set(argv)
    unknown = names - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    return run([m for m in MUTANTS if not names or m.name in names])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
