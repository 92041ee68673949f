"""The committed mutants still apply: each row's old text occurs exactly once
in src, and each of its tests names a test function of its file.  Running
them is `python tests/mutants.py`."""

import re
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_each_mutant_edits_exactly_one_place():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.old != m.new and m.tests, m.name
        assert (ROOT / "src" / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.name


def test_each_mutant_test_names_a_test_function():
    # a parametrized id counts by its function's name
    defined = {}
    for m in MUTANTS:
        for node in m.tests:
            path, name = node.split("::")
            if path not in defined:
                text = (ROOT / path).read_text(encoding="utf-8")
                defined[path] = set(re.findall(r"^def (test_\w+)\(", text, re.MULTILINE))
            assert name.split("[")[0] in defined[path], (m.name, node)
