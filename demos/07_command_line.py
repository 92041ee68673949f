"""Driving the command line.

Run as: python demos/07_command_line.py
Each call below runs `python -m polyco <args>`, the same as invoking
`polyco <args>` in a shell.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

with tempfile.TemporaryDirectory(prefix="polyco-demo-") as tmp:
    workdir = Path(tmp)

    (workdir / "square.json").write_text(
        json.dumps({"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    )
    cp_atom = {"kind": "atom", "name": "CP^inf", "conn": 1,
               "loop": {"kind": "sphere", "n": 1}}
    (workdir / "cp.json").write_text(json.dumps({str(i): cp_atom for i in range(1, 5)}))
    (workdir / "bd_triangle.json").write_text(
        json.dumps({"m": 3, "facets": [[1, 2], [1, 3], [2, 3]]})
    )

    commands = [
        ["homology", "--complex", str(workdir / "bd_triangle.json")],
        ["hall-basis", "--alphabet", "2", "--max-weight", "3"],
        ["decompose-wedge", "--complex", str(workdir / "square.json"),
         "--spaces", str(workdir / "cp.json"), "--max-weight", "1"],
        ["verify", "--check", "counterexample", "--max-degree", "6"],
    ]

    for argv in commands:
        print(f"$ polyco {' '.join(argv)}", flush=True)
        code = subprocess.run([sys.executable, "-m", "polyco", *argv]).returncode
        print(f"(exit {code})\n", flush=True)
