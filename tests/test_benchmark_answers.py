"""The benchmark's recorded answers, checked on every request of every slot.

perfbench/ is read, never written: its workload catalogue and its answer
digests are loaded as they are, so a change in any factor listing fails
here and not only in a timed benchmark run.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import polyco

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"

# run in a fresh interpreter: every (module, attribute) target that is not
# found there, a "Class.method" looked up in the class's own namespace
RESOLVE_TARGETS = """
import importlib, json, sys
missing = []
for key, modname, attr in json.loads(sys.argv[1]):
    module = importlib.import_module(modname)
    owner, _, name = attr.rpartition(".")
    scope = getattr(module, owner, None) if owner else module
    if scope is None or name not in vars(scope):
        missing.append([modname, attr])
print(json.dumps(missing))
"""


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file runs; no bytecode
    # cache is written next to it
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def assert_recorded(workloads, specs):
    answers = json.loads((PERFBENCH / "answers.json").read_text())
    for spec in specs:
        out = workloads.execute(polyco, workloads.make_inputs(polyco, spec))
        assert workloads.check(polyco, spec, out, answers) is None, spec


def test_every_variant_of_every_decomposition_slot_matches_its_recorded_answer(monkeypatch):
    workloads = load_workloads(monkeypatch)
    catalogue = workloads.catalogue()
    specs = [spec for slot in catalogue["decompose-deep"].slots for spec in slot.variants]
    wide = [spec for slot in catalogue["complexes-wide"].slots for spec in slot.variants]
    specs += [spec for spec in wide if "decompose" in spec]
    assert len(specs) == 168 + 4 * 24
    assert_recorded(workloads, specs)


def test_every_variant_of_every_homology_slot_matches_its_recorded_answer(monkeypatch):
    # the digest of a homology-only request covers its reduced Betti numbers
    # and its wedge-of-spheres type, certificate included
    workloads = load_workloads(monkeypatch)
    wide = [spec for slot in workloads.catalogue()["complexes-wide"].slots for spec in slot.variants]
    specs = [spec for spec in wide if "decompose" not in spec]
    assert len(specs) == 21 * 24
    assert_recorded(workloads, specs)


def test_every_variant_of_every_verify_slot_gives_its_expected_verdict(monkeypatch):
    # Equal, or the recorded first difference for the counterexample slots;
    # three slots run the disjoint-union check
    workloads = load_workloads(monkeypatch)
    specs = [spec for slot in workloads.catalogue()["verify"].slots for spec in slot.variants]
    assert len(specs) == 35 * 6
    assert_recorded(workloads, specs)


def test_every_tracer_target_resolves_on_a_fresh_import():
    # Tracer.install raises on a missing target, which would stop every
    # traced benchmark run; the tracer is read, not imported
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    assert targets and any("." in attr for _, _, attr in targets)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", RESOLVE_TARGETS, json.dumps(targets)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
