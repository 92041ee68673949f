"""The committed mutants still apply: each row's old text occurs exactly once
in src.  Running them is `python tests/mutants.py`."""

from pathlib import Path

from mutants import MUTANTS

SRC = Path(__file__).resolve().parent.parent / "src"


def test_each_mutant_edits_exactly_one_place():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.old != m.new and m.tests, m.name
        assert (SRC / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.name
