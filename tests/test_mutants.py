"""The mutant catalogue stays anchored: each old text occurs exactly once
in its file, and each killing test exists. Running the mutants is
``python tests/mutants.py``, which is not part of this suite."""

import pytest

from .mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_changes_one_place_and_names_existing_tests(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1, mutant.name
    assert mutant.new != mutant.old
    assert mutant.tests
    for node in mutant.tests:
        file, _, test = node.partition("::")
        source = (ROOT / file).read_text(encoding="utf-8")
        assert not test or f"def {test}(" in source, node
