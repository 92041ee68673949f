"""The runtime stays stdlib-only: the package imports nothing from outside
the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polyco"


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    imported = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import stays inside the package
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
                imported.add(top)
    assert "dataclasses" in imported  # the walk does see the absolute imports
