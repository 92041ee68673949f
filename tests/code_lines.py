"""Code lines per module: the lines that hold code, not counting blank lines,
comment lines or docstring lines.

    python tests/code_lines.py [FILE ...]

With no files named, every module of ``src/polyco`` is counted.  Prints one
row per file (code lines, all lines, path) and a total row.  A docstring is
the string expression that opens a module, a class or a function body; every
line it spans is left out, and so is a line that holds only a comment.  A line
with code and a trailing comment counts.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    # the lines spanned by each module, class or function docstring
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token of code outside a
    docstring; a token that spans lines, such as a multi-line string,
    counts each of them."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(paths: list[str]) -> int:
    named = [Path(p) for p in paths]
    files = named or sorted((ROOT / "src" / "polyco").glob("*.py"))
    total_code = total_lines = 0
    for path in files:
        source = path.read_text(encoding="utf-8")
        code, count = code_lines(source), len(source.splitlines())
        total_code, total_lines = total_code + code, total_lines + count
        print(f"{code:6d} {count:6d}  {path if named else path.relative_to(ROOT)}")
    print(f"{total_code:6d} {total_lines:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
