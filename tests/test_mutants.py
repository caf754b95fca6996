"""The anchor of the mutation list (``tests/mutants.py``): every entry's
line still occurs exactly once in ``src/``, in the entry's module, so a
change to a mutated line fails here and the list cannot rot silently."""

from mutants import MUTANTS, ROOT, occurrences


def test_every_mutant_line_occurs_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.replacement != m.line, m.name
        assert [module for module, _ in occurrences(ROOT, m.line)] == [m.module], m.name
