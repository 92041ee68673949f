"""The same-answers corpus recomputed against its committed digests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import corpus
import polyco.decomp

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def test_corpus_matches_its_recorded_digests():
    recorded, current = corpus.load(), corpus.compute()
    moved = corpus.differences(recorded, current)
    assert not moved, (
        f"{len(moved)} of {len(current)} corpus records differ from tests/golden/digests.txt "
        f"(first 20: {moved[:20]}); if the moves are intended, re-record with "
        "`PYTHONPATH=src python tests/golden/corpus.py --record` and name each moved record "
        "and its reason in CHANGES.md"
    )


def test_corpus_digests_do_not_depend_on_the_hash_seed():
    # a process with another hash seed computes the same digests as this one
    code = "import json, sys, corpus; json.dump(corpus.compute(), sys.stdout)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]), PYTHONHASHSEED="4021")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    assert json.loads(proc.stdout) == corpus.compute()


def test_a_swapped_pair_of_factors_moves_a_record(monkeypatch):
    # each bracket preset's listings, with their first two entries swapped
    # as they expand from the groups, must change some of its records
    real, unswapped = polyco.decomp._expand, corpus.compute()

    def swapped(*args):
        out = real(*args)
        return out[1:2] + out[:1] + out[2:] if len(out) > 1 else out

    monkeypatch.setattr(polyco.decomp, "_expand", swapped)
    moved = corpus.differences(unswapped, corpus.compute())
    for preset in ("wedge/", "general/", "contractible/", "hilton-milnor/"):
        assert any(n.startswith(preset) for n in moved), preset
