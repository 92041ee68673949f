"""The examples of README.md, run as written."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from polyco.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else len(README)]


def test_library_quick_start():
    # the python block prints the square's listing and a Hilton-Milnor report
    code = re.search(r"```python\n(.*?)```", section("Library quick start"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "wedge-coproduct: 8 entries, 8 factors with multiplicity"
    factors = [line.split("[")[0].strip() for line in lines[1:9]]
    assert sorted(factors) == ["S^1"] * 4 + ["ΩS^3"] * 4
    assert lines[9].startswith("hilton-milnor: Equal (N=24, W=25)")


def test_command_line_examples(tmp_path, monkeypatch, capsys):
    # square.json is the complex of "File formats" and cp.json puts its
    # projective-space atom at all four vertices
    text = section("Command line")
    square = json.loads(re.search(r'A complex is `(\{"m": 4.*?\})`', text).group(1))
    atom = json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))["2"]
    (tmp_path / "square.json").write_text(json.dumps(square))
    (tmp_path / "cp.json").write_text(json.dumps({str(i): atom for i in range(1, 5)}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("POLYCO_MAX_DEGREE", raising=False)
    commands = re.findall(r"^\$ polyco (.*)$", text, re.M)
    assert len(commands) == 2
    outs = []
    for command in commands:
        assert main(shlex.split(command)) == 0
        outs.append(capsys.readouterr().out)
    factors = [line.split("[")[0].strip() for line in outs[0].splitlines()[1:]]
    assert sorted(factors) == ["S^1"] * 4 + ["ΩS^3"] * 4
    assert "FirstDifference(degree 3: 20 vs 24)" in outs[1]
    assert "the eight factors `S^1 x4, Omega S^3 x4`" in text
    assert "`FirstDifference(degree 3: 20 vs 24)`" in text
