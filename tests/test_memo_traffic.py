"""The memo traffic script (tests/memo_traffic.py) on one round per workload."""

import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from _helpers import polyco_memos
from memo_traffic import load_workloads

ROOT = Path(__file__).resolve().parent.parent


def test_one_round_per_workload_reports_every_memo():
    run = subprocess.run([sys.executable, str(ROOT / "tests" / "memo_traffic.py"), "--rounds", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    heads = re.findall(r"^workload (\S+): 1 rounds, (\d+) requests, seed 7$", run.stdout, re.MULTILINE)
    catalogue = list(load_workloads().catalogue())
    assert [name for name, _ in heads] == catalogue
    assert all(int(sent) > 0 for _, sent in heads)
    rows = re.findall(r"^ +(\d+) +(\d+) +(\d+)  (\S+)$", run.stdout, re.MULTILINE)
    names = {f"{memo.__module__}.{memo.__qualname__}" for memo in polyco_memos().values()}
    assert "polyco.decomp._coproduct_groups" in names
    reported = Counter(name for *_, name in rows)
    assert set(reported) == names and set(reported.values()) == {len(catalogue)}
    # no memo holds more entries than it missed
    assert all(int(size) <= int(misses) for _, misses, size, _ in rows)
