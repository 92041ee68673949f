"""The code-line counter (tests/code_lines.py) on an inline sample."""

from code_lines import code_lines, main

SAMPLE = '''"""A module docstring
over two lines."""

import os  # a trailing comment: a code line

# a comment line


class Box:
    """A class docstring."""

    size = 1


def f(x):
    """A function docstring,

    with a blank line inside."""
    text = """a string
that is not a docstring"""
    "a later string statement is code"
    return (x +
            1)
'''


def test_code_lines_skip_blank_comment_and_docstring_lines():
    # import, class, size, def, the two lines of text, the later string,
    # and the two lines of the return
    assert code_lines(SAMPLE) == 9
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_each_file_named_gets_a_row_and_the_total_sums_them(tmp_path, capsys):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text(SAMPLE, encoding="utf-8")
    two.write_text("x = 1\n\n", encoding="utf-8")
    assert main([str(one), str(two)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["9", "23", str(one)], ["1", "2", str(two)], ["10", "25", "total"]]
