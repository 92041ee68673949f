"""Memo traffic on the benchmark's request streams: the hits, misses and size
of every memo of the package.

    python tests/memo_traffic.py [--rounds N]

For each workload of ``perfbench/workloads.py``, its inputs are built,
every memo of the package is cleared, and the first rounds of its stream
at seed 7 are sent through ``workloads.execute``: as many rounds as a
benchmark run of ``BENCHMARK.json``'s ``run_seconds`` sends, or N.  Then
one row per memo gives its hits, misses and current size.  The memos are
found as the benchmark finds them, each module value of the package with
a ``cache_clear``, and named by their defining module.  Outputs are not
checked and nothing is timed; perfbench is read, not changed.  Standard
library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import polyco  # noqa: E402
from _helpers import polyco_memos  # noqa: E402


SEED = 7


def load_workloads():
    # perfbench/workloads.py as a module, with no bytecode written next to it
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def memos() -> dict:
    """Every memo of the package (_helpers.polyco_memos), once each, by its
    defining module and name."""
    return dict(sorted({f"{m.__module__}.{m.__qualname__}": m for m in polyco_memos().values()}.items()))


def traffic(workloads, name: str, rounds: int | None) -> tuple[int, int, dict]:
    """(rounds, requests, {memo: cache_info()}) after the workload's stream
    from cold memos."""
    workload = workloads.catalogue()[name]
    if rounds is None:
        run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
        rounds = workload.measured_rounds(run_seconds)
    inputs = {s.name: [workloads.make_inputs(polyco, v) for v in s.variants] for s in workload.slots}
    for memo in memos().values():
        memo.cache_clear()
    stream, sent = workloads.rounds(workload, SEED), 0
    for _ in range(rounds):
        for slot, i in next(stream):
            workloads.execute(polyco, inputs[slot.name][i])
            sent += 1
    return rounds, sent, {key: memo.cache_info() for key, memo in memos().items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=None)
    args = ap.parse_args(argv)
    workloads = load_workloads()
    for name in workloads.catalogue():
        rounds, sent, info = traffic(workloads, name, args.rounds)
        print(f"workload {name}: {rounds} rounds, {sent} requests, seed {SEED}")
        print(f"  {'hits':>8} {'misses':>8} {'size':>8}  memo")
        for key, (hits, misses, _, size) in info.items():
            print(f"  {hits:8d} {misses:8d} {size:8d}  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
