"""Every demo script runs to completion against the source tree, and uses
polyco only through the names the package exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    # a fresh temp directory: a demo leaves nothing behind in it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_demos_import_polyco_only_by_exported_names():
    init = ROOT / "src" / "polyco" / "__init__.py"
    exported = {
        alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {"build", "loop_decompose", "check_porter"} <= exported
    seen = 0
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "polyco" for a in node.names), (demo.name, ast.unparse(node))
            elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "polyco":
                assert node.module == "polyco", (demo.name, ast.unparse(node))
                names = {a.name for a in node.names}
                assert names <= exported, (demo.name, names - exported)
                seen += 1
    assert seen >= len(DEMOS) - 1  # every demo but the command-line one imports polyco
