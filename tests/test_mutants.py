"""The mutant catalogue (`tests/mutants.py`) stays replayable: each entry's snippet
occurs exactly once in its file, and its test files exist."""

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_entry_applies(mutant):
    assert (ROOT / "src" / "qpisde" / mutant.file).read_text().count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests and "test_golden.py" not in mutant.tests
    assert all((ROOT / "tests" / t).is_file() for t in mutant.tests)
