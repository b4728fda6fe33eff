"""scripts/mutants.py's catalogue still names the code it mutates; no mutant is run here."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


def test_each_old_text_occurs_exactly_once():
    assert len(mutants.MUTANTS) >= 8
    assert len({mutant.name for mutant in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        source = (ROOT / mutant.file).read_text(encoding="utf-8")
        assert source.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name


def test_each_mutant_names_tests_that_exist():
    for mutant in mutants.MUTANTS:
        assert mutant.tests, mutant.name
        for node_id in mutant.tests:
            path, _, name = node_id.partition("::")
            assert name and name.split("::")[-1] in (ROOT / path).read_text(encoding="utf-8")
