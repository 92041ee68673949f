"""Record the answer digests that the benchmark checks outputs against.

    python3 perfbench/record.py

Runs every catalogue request whose answer has no closed form (decompositions
and homology) once and writes perfbench/answers.json, keyed by request spec.
The committed file was recorded at the commit that introduced the benchmark;
re-record only when the catalogue itself changes, never to make a changed
program pass.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from client import import_polyco  # noqa: E402


def main() -> int:
    pc = import_polyco()
    answers = {}
    for workload in workloads.catalogue().values():
        for slot in workload.slots:
            for spec in slot.variants:
                out = workloads.execute(pc, workloads.make_inputs(pc, spec))
                digest = workloads.answer_digest(pc, spec, out)
                if digest is None:
                    continue
                if spec["op"] == "complex":
                    reason = workloads.check_homology(spec, out)
                    if reason:
                        raise SystemExit(f"{slot.name}: {reason}")
                answers[workloads.spec_key(spec)] = digest
            print(f"{workload.name}/{slot.name}: {len(slot.variants)} requests", flush=True)
    with open(os.path.join(HERE, "answers.json"), "w", encoding="utf-8") as fh:
        json.dump(answers, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
