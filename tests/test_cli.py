"""End-to-end runs of the command line."""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from _helpers import all_face_letters, listing_order, reference_class_counts, regrouped
from polyco.cli import CHECKS, DECOMPOSITIONS, WEDGES, build_parser, main


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    return write(tmp_path, "square.json", {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]})


@pytest.fixture
def cp_file(tmp_path):
    atom = {"kind": "atom", "name": "CP^inf", "conn": 1, "loop": {"kind": "sphere", "n": 1}}
    return write(tmp_path, "cp.json", {str(i): atom for i in range(1, 5)})


def test_homology_command(tmp_path, capsys):
    path = write(tmp_path, "bd.json", {"m": 3, "facets": [[1, 2], [1, 3], [2, 3]]})
    assert main(["homology", "--complex", path]) == 0
    out = capsys.readouterr().out
    assert "[0, 1]" in out


def test_module_entry_point_matches_main(square_file, capsys):
    # python -m polyco runs __main__, which exits with main's code
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "polyco", "homology", "--complex", square_file],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert main(["homology", "--complex", square_file]) == 0
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == capsys.readouterr().out != ""


def test_hall_basis_command(capsys):
    assert main(["hall-basis", "--alphabet", "2", "--max-weight", "3"]) == 0
    out = capsys.readouterr().out
    assert "total: 5" in out
    assert "[x1,[x1,x2]]" in out


def test_decompose_wedge_square(square_file, cp_file, capsys):
    code = main(
        ["decompose-wedge", "--complex", square_file, "--spaces", cp_file,
         "--max-weight", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("S^1") >= 4
    assert out.count("ΩS^3") == 4


def test_decompose_wedge_json_round_trip(square_file, cp_file, capsys):
    code = main(
        ["decompose-wedge", "--complex", square_file, "--spaces", cp_file,
         "--max-weight", "1", "--format", "json"]
    )
    assert code == 0
    text = capsys.readouterr().out
    data = json.loads(text)
    assert len(data["factors"]) == 8
    # canonical serialization: parse and re-serialize byte-identically
    assert json.dumps(data, sort_keys=True, indent=2) + "\n" == text


def test_decompose_contractible_two_points(tmp_path, capsys):
    cx = write(tmp_path, "pts.json", {"m": 2, "facets": [[1], [2]]})
    spaces = write(
        tmp_path, "spheres.json",
        {"1": {"kind": "sphere", "n": 2}, "2": {"kind": "sphere", "n": 3}},
    )
    assert main(["decompose-contractible", "--complex", cx, "--spaces", spaces,
                 "--max-weight", "1"]) == 0
    out = capsys.readouterr().out
    assert "Ω^2Σ(ΩS^2 ∧ ΩS^3)" in out


def test_decompose_general_with_pairs(tmp_path, capsys):
    cx = write(tmp_path, "edge.json", {"m": 2, "facets": [[1, 2]]})
    spaces = write(
        tmp_path, "pairs.json",
        {
            "1": {"domain": {"kind": "sphere", "n": 3}, "codomain": {"kind": "point"}},
            "2": {"domain": {"kind": "sphere", "n": 3}, "codomain": {"kind": "point"}},
        },
    )
    assert main(["decompose", "--complex", cx, "--spaces", spaces,
                 "--max-weight", "2"]) == 0
    out = capsys.readouterr().out
    assert "ΩΣ(ΩS^3^∧2)" in out


def test_porter_and_hilton_milnor_commands(tmp_path, capsys):
    spaces = write(
        tmp_path, "two_spheres.json",
        {"1": {"kind": "sphere", "n": 3}, "2": {"kind": "sphere", "n": 3}},
    )
    assert main(["porter", "--spaces", spaces]) == 0
    assert "porter" in capsys.readouterr().out
    assert main(["hilton-milnor", "--spaces", spaces, "--max-weight", "2"]) == 0
    assert "hilton-milnor" in capsys.readouterr().out


def test_hilton_milnor_command_groups_a_suspension_with_its_sphere(tmp_path, capsys):
    # a "susp" entry equal to S^3 after normalization lists as S^3 does
    sphere = {"kind": "sphere", "n": 3}
    susp = {"kind": "susp", "child": {"kind": "sphere", "n": 2}}
    outs = {}
    for name, second in (("susp", susp), ("sphere", sphere)):
        spaces = write(tmp_path, f"{name}.json", {"1": sphere, "2": second})
        for fmt in ("text", "json"):
            assert main(["hilton-milnor", "--spaces", spaces, "--max-weight", "3", "--format", fmt]) == 0
            outs[name, fmt] = capsys.readouterr().out
    assert outs["susp", "text"] == outs["sphere", "text"]
    assert outs["susp", "json"] == outs["sphere", "json"]
    assert "4 entries" in outs["susp", "text"]


def test_bbcg_command(tmp_path, capsys):
    cx = write(tmp_path, "pts.json", {"m": 2, "facets": [[1], [2]]})
    spaces = write(
        tmp_path, "s1.json",
        {"1": {"kind": "sphere", "n": 1}, "2": {"kind": "sphere", "n": 1}},
    )
    assert main(["bbcg", "--complex", cx, "--spaces", spaces]) == 0
    out = capsys.readouterr().out
    assert "S^3" in out  # the moment-angle sphere summand


def test_verify_counterexample_json(capsys):
    assert main(["verify", "--check", "counterexample", "--max-degree", "5",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    verdict = data["checks"][0]["verdict"]
    assert verdict == {
        "kind": "first_difference",
        "degree": 3,
        "lhs": [20, 1],
        "rhs": [24, 1],
    }


def test_verify_wedge(tmp_path, capsys):
    cx = write(tmp_path, "d2.json", {"m": 3, "facets": [[1, 2, 3]]})
    spaces = write(tmp_path, "s2.json", {str(i): {"kind": "sphere", "n": 2} for i in (1, 2, 3)})
    assert main(["verify", "--check", "wedge", "--complex", cx, "--spaces", spaces,
                 "--max-degree", "8"]) == 0
    assert "Equal" in capsys.readouterr().out


def test_verify_hilton_milnor_with_a_wedge_summand(tmp_path, capsys):
    # (S^2 v S^2 v S^4) v S^3 is a wedge of suspensions, checked as given
    spheres = [{"kind": "sphere", "n": 2}, {"kind": "sphere", "n": 4}]
    wedge = {"kind": "wedge", "children": spheres, "powers": [2, 1]}
    spaces = write(tmp_path, "hm.json", {"1": wedge, "2": {"kind": "sphere", "n": 3}})
    argv = ["verify", "--check", "hilton-milnor", "--spaces", spaces, "--max-degree", "8"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("hilton-milnor: Equal (N=8, W=9)\n")
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["verdict"] == {"kind": "equal"}


def test_verify_hilton_milnor_with_a_point_summand(tmp_path, capsys):
    # a point is the suspension of a point, so it is a summand the check takes
    spaces = write(tmp_path, "hm.json", {"1": {"kind": "point"}, "2": {"kind": "sphere", "n": 3}})
    argv = ["verify", "--check", "hilton-milnor", "--spaces", spaces, "--max-degree", "6"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("hilton-milnor: Equal (N=6, W=7)\n")


def test_missing_file_exits_2(capsys):
    assert main(["homology", "--complex", "/nonexistent/k.json"]) == 2
    err = capsys.readouterr().err
    assert "/nonexistent/k.json" in err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["homology", "--complex", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and "line" in err


def test_directory_as_input_file_exits_2(tmp_path, capsys):
    # a path that opens but cannot be read is invalid input, not an internal error
    folder = tmp_path / "adir"
    folder.mkdir()
    cx = write(tmp_path, "edge.json", {"m": 2, "facets": [[1, 2]]})
    for argv in (["homology", "--complex", str(folder)],
                 ["decompose-wedge", "--complex", cx, "--spaces", str(folder)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {folder}: Is a directory\n"


def test_non_utf8_input_file_is_named(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"1": {"kind": "sphere", "n": 2}, "2": "\xff"}')
    assert main(["porter", "--spaces", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "can't decode byte 0xff" in err


def test_output_that_cannot_be_opened_exits_2(tmp_path, capsys):
    missing = tmp_path / "no" / "out.txt"
    for dest, reason in [(tmp_path, "Is a directory"), (missing, "No such file or directory")]:
        argv = ["hall-basis", "--alphabet", "2", "--max-weight", "2", "--output", str(dest)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {dest}: {reason}\n"


def test_missing_json_field_is_named(tmp_path, capsys):
    cx = write(tmp_path, "edge.json", {"m": 2, "facets": [[1, 2]]})
    sphere = {"kind": "sphere", "n": 3}
    spaces = write(tmp_path, "p.json", {"1": {"domain": sphere}, "2": sphere})
    assert main(["decompose", "--complex", cx, "--spaces", spaces]) == 2
    assert capsys.readouterr().err == f"error: {spaces}: missing field 'codomain'\n"
    spaces = write(tmp_path, "s.json", {"1": {"kind": "sphere"}, "2": sphere})
    assert main(["porter", "--spaces", spaces]) == 2
    assert capsys.readouterr().err == f"error: {spaces}: missing field 'n'\n"


def test_readme_command_line_names_every_subcommand_and_check():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line.split() for line in block.strip().splitlines()]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert [words[1] for words in lines] == list(sub.choices)
    assert {*DECOMPOSITIONS, *WEDGES} <= set(sub.choices)
    verify = " ".join(next(words for words in lines if words[1] == "verify"))
    check = next(a for a in sub.choices["verify"]._actions if a.dest == "check")
    documented = re.search(r"--check \{([^}]*)\}", verify).group(1).split(",")
    assert documented == list(CHECKS) == list(check.choices)


def test_a_loop_of_an_atom_is_checked_through_its_loop_replacement(tmp_path, capsys):
    # ΩΩY normalizes to ΩS^1, which is not simply connected
    cx = write(tmp_path, "edge.json", {"m": 2, "facets": [[1, 2]]})
    atom = {"kind": "atom", "name": "Y", "conn": 5, "loop": {"kind": "sphere", "n": 1}}
    twice = {"kind": "loop", "count": 2, "child": atom}
    spaces = write(tmp_path, "s.json", {"1": twice, "2": {"kind": "sphere", "n": 3}})
    assert main(["decompose-wedge", "--complex", cx, "--spaces", spaces]) == 2
    assert capsys.readouterr().err == "error: vertex 1: space Ω^2Y must be simply connected (connectivity -1)\n"


def test_validation_error_exits_2(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"m": 2, "facets": [[5]]})
    assert main(["homology", "--complex", str(path)]) == 2
    assert "out of range" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_env_default_degree(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("POLYCO_MAX_DEGREE", "7")
    assert main(["verify", "--check", "counterexample", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["checks"][0]["N"] == 7


def test_degree_env_ignored_without_a_degree(tmp_path, capsys, monkeypatch):
    # only the subcommands that take --max-degree read POLYCO_MAX_DEGREE
    monkeypatch.setenv("POLYCO_MAX_DEGREE", "abc")
    cx = write(tmp_path, "edge.json", {"m": 2, "facets": [[1, 2]]})
    sphere = {"kind": "sphere", "n": 3}
    spaces = write(tmp_path, "s.json", {"1": sphere, "2": sphere})
    assert main(["homology", "--complex", cx]) == 0
    assert main(["hall-basis", "--alphabet", "2", "--max-weight", "2"]) == 0
    assert main(["bbcg", "--complex", cx, "--spaces", spaces]) == 0
    assert main(["porter", "--spaces", spaces]) == 0
    capsys.readouterr()
    assert main(["hilton-milnor", "--spaces", spaces]) == 2
    assert "POLYCO_MAX_DEGREE='abc' is not an integer" in capsys.readouterr().err


def test_non_integer_json_fields_exit_2(tmp_path, capsys):
    cx = write(tmp_path, "frac.json", {"m": 3, "facets": [[1, 2.5]]})
    assert main(["homology", "--complex", cx]) == 2
    err = capsys.readouterr().err
    assert "frac.json" in err and '"facets" vertex must be an integer, got 2.5' in err
    spaces = write(tmp_path, "half.json", {"1": {"kind": "sphere", "n": 2.5}})
    assert main(["porter", "--spaces", spaces]) == 2
    err = capsys.readouterr().err
    assert "half.json" in err and 'sphere "n" must be an integer, got 2.5' in err


def test_non_integer_powers_and_coefficients_exit_2(tmp_path, capsys):
    sphere = {"kind": "sphere", "n": 3}
    spaces = write(tmp_path, "pow.json", {"1": {"kind": "wedge", "children": [sphere], "powers": [0]}})
    assert main(["porter", "--spaces", spaces]) == 2
    err = capsys.readouterr().err
    assert "pow.json" in err and "wedge needs one integer power >= 1 per child, got [0]" in err
    atom = {"kind": "atom", "name": "A", "conn": 1, "series": {"num": [True, 2.0], "den": [1]}}
    spaces = write(tmp_path, "coef.json", {"1": atom, "2": sphere})
    assert main(["porter", "--spaces", spaces]) == 2
    err = capsys.readouterr().err
    assert "coef.json" in err and "declared series coefficients must be integers, got [True, 2.0]" in err


def test_stray_vertex_entries_exit_2(tmp_path, capsys):
    # an entry no vertex of the complex reads is an error, not dropped
    cx = write(tmp_path, "d2.json", {"m": 3, "facets": [[1, 2, 3]]})
    sphere = {"kind": "sphere", "n": 2}
    for keys, stray in [(["1", "2", "3", "4"], "[4]"), (["0", "1", "2", "3"], "[0]")]:
        spaces = write(tmp_path, "s.json", {k: sphere for k in keys})
        assert main(["decompose-wedge", "--complex", cx, "--spaces", spaces]) == 2
        err = capsys.readouterr().err
        assert "s.json" in err and f"entries for vertices {stray} outside 1..3" in err
    spaces = write(tmp_path, "p.json", {k: sphere for k in ["0", "1", "2", "-3"]})
    assert main(["porter", "--spaces", spaces]) == 2
    assert "entries for vertices [-3, 0] outside 1..2" in capsys.readouterr().err


def test_missing_vertex_entries_exit_2(tmp_path, capsys):
    # with no complex the largest key is the vertex count: a lone large key
    # names the first few absent vertices and their number, not all of them
    sphere = {"kind": "sphere", "n": 2}
    for keys, named in [
        (["1", "4"], "missing entries for vertices [2, 3]\n"),
        (["200000"], "missing entries for vertices [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] "
                     "and 199989 more (199999 in all)\n"),
    ]:
        spaces = write(tmp_path, "s.json", {k: sphere for k in keys})
        for argv in (["porter"], ["hilton-milnor"], ["verify", "--check", "porter"]):
            assert main(argv + ["--spaces", spaces]) == 2
            err = capsys.readouterr().err
            assert err.endswith(named) and "s.json" in err and len(err) < 1000


def test_json_flags_must_be_booleans_exit_2(tmp_path, capsys):
    # "no" is not read as true, so no vertex factor is dropped for it
    cx = write(tmp_path, "edge.json", {"m": 2, "facets": [[1, 2]]})
    sphere = {"kind": "sphere", "n": 3}
    pair = {"domain": sphere, "codomain": {"kind": "point"}}
    spaces = write(tmp_path, "pairs.json", {"1": pair, "2": {**pair, "domain_contractible": "no"}})
    assert main(["decompose", "--complex", cx, "--spaces", spaces]) == 2
    err = capsys.readouterr().err
    assert "pairs.json" in err and "\"domain_contractible\" must be true or false, got 'no'" in err
    atom = {"kind": "atom", "name": "X", "conn": 1, "contractible": "false"}
    spaces = write(tmp_path, "atoms.json", {"1": atom, "2": sphere})
    assert main(["decompose-wedge", "--complex", cx, "--spaces", spaces]) == 2
    err = capsys.readouterr().err
    assert "atoms.json" in err and "atom \"contractible\" must be true or false, got 'false'" in err


def test_unknown_fields_exit_2(tmp_path, capsys):
    # a misspelled optional field is rejected, not read as absent
    cx = write(tmp_path, "edge.json", {"m": 2, "facets": [[1, 2]]})
    sphere = {"kind": "sphere", "n": 3}
    atom = {"kind": "atom", "name": "X", "conn": 1}
    pair = {"domain": atom, "codomain": sphere}
    for command, entry, key in (
        ("decompose", {**pair, "domain_contractable": True}, "domain_contractable"),
        ("decompose-wedge", {**atom, "contractable": True}, "contractable"),
        ("decompose-wedge", {**atom, "series": {"num": [1], "den": [1], "dem": [1]}}, "dem"),
        ("decompose-wedge", {"kind": "loop", "child": {**sphere, "m": 2}}, "m"),
        ("decompose-wedge", {"kind": "wedge", "children": [sphere], "power": [2]}, "power"),
    ):
        spaces = write(tmp_path, "typo.json", {"1": entry, "2": sphere})
        assert main([command, "--complex", cx, "--spaces", spaces]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "typo.json" in err and f"unknown field {key!r}" in err
    # every field the JSON output writes loads back
    spaces = write(tmp_path, "full.json", {"1": {**atom, "loop": sphere, "series": {"num": [1], "den": [1, 0, -1]},
                                                 "contractible": False}, "2": {**pair, "domain_contractible": False}})
    assert main(["decompose", "--complex", cx, "--spaces", spaces]) == 0


def test_porter_takes_no_degree(tmp_path, capsys):
    # porter has no truncation: no --max-degree, and no bounds in its JSON
    spaces = write(tmp_path, "s.json", {"1": {"kind": "sphere", "n": 3}, "2": {"kind": "sphere", "n": 3}})
    with pytest.raises(SystemExit) as exc:
        main(["porter", "--spaces", spaces, "--max-degree", "6"])
    assert exc.value.code == 2 and "--max-degree" in capsys.readouterr().err
    assert main(["porter", "--spaces", spaces, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "max_degree" not in out and "max_weight" not in out and out["truncation"] is None
    # hilton-milnor is cut at the degree it is given, with W = N + 1 as an extra cut
    assert main(["hilton-milnor", "--spaces", spaces, "--format", "json", "--max-degree", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["max_degree"], out["max_weight"], out["degree_bound"]) == (6, 7, 6)


def test_non_canonical_vertex_keys_exit_2(tmp_path, capsys):
    # "01" and "1" would both name vertex 1, and one of the entries be lost
    cx = write(tmp_path, "edge.json", {"m": 2, "facets": [[1, 2]]})
    sphere = {"kind": "sphere", "n": 2}
    spaces = write(tmp_path, "s.json", {"1": sphere, "01": sphere, "2": sphere})
    assert main(["decompose-wedge", "--complex", cx, "--spaces", spaces]) == 2
    err = capsys.readouterr().err
    assert "s.json" in err and "spaces file keys ['01'] are not plain vertex numbers" in err
    spaces = write(tmp_path, "p.json", {" 1": sphere, "+2": sphere, "1_0": sphere})
    assert main(["porter", "--spaces", spaces]) == 2
    assert "spaces file keys [' 1', '+2', '1_0'] are not plain vertex numbers" in capsys.readouterr().err


def test_output_file(tmp_path):
    dest = tmp_path / "report.json"
    assert main(["hall-basis", "--alphabet", "2", "--max-weight", "2",
                 "--format", "json", "--output", str(dest)]) == 0
    data = json.loads(dest.read_text())
    assert data["count"] == 3


def test_deterministic_output(square_file, cp_file, capsys):
    runs = []
    for _ in range(2):
        main(["decompose-wedge", "--complex", square_file, "--spaces", cp_file,
              "--max-weight", "1", "--format", "json"])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_decompose_wedge_default_degree_on_simplex(tmp_path, capsys):
    # the default N = 12 cuts at degree 12, with W = 13 as an extra cut that
    # never binds: ΩS^2 has degree 1, so the 128 classes of degree at most
    # 12 over the face alphabet of the 2-simplex are listed as their 20
    # groups by (weight, support, letter count).  Uncut, W = 13 alone listed
    # 119,939,427 brackets in 2,343 classes
    cx = write(tmp_path, "d2.json", {"m": 3, "facets": [[1, 2, 3]]})
    spaces = write(tmp_path, "s2.json", {str(i): {"kind": "sphere", "n": 2} for i in (1, 2, 3)})
    assert main(["decompose-wedge", "--complex", cx, "--spaces", spaces]) == 0
    out = capsys.readouterr().out
    classes = reference_class_counts(all_face_letters(3), 13, vertex_degrees=[1] * 3, degree_bound=12)
    groups = regrouped(classes, [0] * 3)
    assert (len(classes), sum(classes.values()), len(groups)) == (128, 747, 20)
    assert out.startswith(
        f"wedge-coproduct: {3 + len(groups)} entries, {3 + sum(classes.values())} factors "
        "with multiplicity (degree ≤ 12)\n"
    )
    assert out.startswith("wedge-coproduct: 23 entries, 750 factors with multiplicity (degree ≤ 12)\n")
    last = max(groups, key=lambda key: listing_order(key, [0] * 3))
    assert last == (6, (1, 2, 3), (12,))
    assert out.endswith(f"ΩΣ(ΩS^2^∧12) ^{groups[last]}   [group w=6 {{1,2,3}}:12]\n")


SRC = Path(__file__).resolve().parent.parent / "src"


def _run_capped(args):
    """The command line in a child process whose address space is capped at 1 GiB."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from polyco.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _boundary_with_spheres(tmp_path, m):
    facets = [list(f) for f in combinations(range(1, m + 1), m - 1)]
    cx = write(tmp_path, f"bd{m}.json", {"m": m, "facets": facets})
    s2 = {str(i): {"kind": "sphere", "n": 2} for i in range(1, m + 1)}
    spaces = write(tmp_path, f"s2x{m}.json", s2)
    return ["decompose-contractible", "--complex", cx, "--spaces", spaces]


def test_contractible_boundary_spheres_at_the_default_weight_fit_in_memory(tmp_path, capsys):
    # ∂Δ⁴ with S^2 at every vertex at the default W = 13 lists 282 groups;
    # one entry per vertex content took 31 s and 626 MB in text and ended in
    # a MemoryError in JSON
    args = _boundary_with_spheres(tmp_path, 5)
    for fmt in ("text", "json"):
        proc = _run_capped(args + ["--format", fmt])
        assert proc.returncode == 0, proc.stderr
        if fmt == "text":
            assert proc.stdout.startswith("contractible-domains: 282 entries, ")
        else:
            assert len(json.loads(proc.stdout)["factors"]) == 282
    # ∂Δ³: 193 groups for its 58,097 vertex contents, well under 1 MB of JSON
    out = tmp_path / "bd4.out.json"
    assert main(_boundary_with_spheres(tmp_path, 4) + ["--format", "json", "--output", str(out)]) == 0
    assert len(json.loads(out.read_text())["factors"]) == 193
    assert out.stat().st_size < 1_000_000


def test_decompose_wedge_on_a_large_boundary_at_the_default_degree_is_fast(tmp_path, monkeypatch):
    # ∂Δ⁶ with S^2 ... S^8: cut at degree 12 it lists 100 entries in about
    # 0.12 s of wall time for the whole process; with W = 13 as the only
    # cut it ran past 40 s
    facets = [list(f) for f in combinations(range(1, 8), 6)]
    cx = write(tmp_path, "bd7.json", {"m": 7, "facets": facets})
    spaces = write(tmp_path, "s2-8.json", {str(i): {"kind": "sphere", "n": i + 1} for i in range(1, 8)})
    monkeypatch.delenv("POLYCO_MAX_DEGREE", raising=False)
    start = time.perf_counter()
    proc = _run_capped(["decompose-wedge", "--complex", cx, "--spaces", spaces])
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("wedge-coproduct: 100 entries, 162 factors with multiplicity (degree ≤ 12)\n")


def _nested_spaces(tmp_path, depth):
    # written by hand: json.dumps itself recurses once per level
    inner = '{"kind": "susp", "child": ' * depth + '{"kind": "sphere", "n": 2}' + "}" * depth
    path = tmp_path / f"nested{depth}.json"
    path.write_text('{"1": ' + inner + ', "2": {"kind": "sphere", "n": 3}}')
    return str(path)


def test_deeply_nested_spaces_exit_2(tmp_path, capsys):
    # too deep for the JSON parser (CPython 3.13 parses 5,000 levels)
    path = _nested_spaces(tmp_path, 100_000)
    assert main(["verify", "--check", "porter", "--spaces", path]) == 2
    err = capsys.readouterr().err
    assert "nested100000.json" in err and "nested too deeply" in err
    # parsed, but deeper than expressions may nest
    path = _nested_spaces(tmp_path, 500)
    assert main(["verify", "--check", "porter", "--spaces", path]) == 2
    err = capsys.readouterr().err
    assert "nested500.json" in err and "nested deeper than 100 levels" in err
    # a modest depth still loads
    path = _nested_spaces(tmp_path, 20)
    assert main(["porter", "--spaces", path]) == 0


def _atom_spaces(tmp_path, num, den):
    atom = {"kind": "atom", "name": "A", "conn": 1, "series": {"num": num, "den": den}}
    return write(tmp_path, "atom.json", {"1": atom, "2": {"kind": "sphere", "n": 3}})


def test_declared_series_validated_on_load(tmp_path, capsys):
    for num, den, message in [
        ([1], [0, 1], "declared series denominator needs constant term 1, got [0, 1]"),
        ([1], [2, -1], "declared series denominator needs constant term 1, got [2, -1]"),
        ([3, 1], [1], "declared series numerator needs constant term 1, got [3, 1]"),
        ([1, 0.5], [1], "declared series coefficients must be integers, got [1, 0.5]"),
    ]:
        path = _atom_spaces(tmp_path, num, den)
        assert main(["porter", "--spaces", path]) == 2
        err = capsys.readouterr().err
        assert "atom.json" in err and message in err


def test_a_declared_series_below_the_connectivity_exits_2(tmp_path, capsys):
    atom = {"kind": "atom", "name": "Y", "conn": 2, "series": {"num": [1], "den": [1, 0, -1]}}
    path = write(tmp_path, "atom.json", {"1": atom, "2": {"kind": "sphere", "n": 2}})
    assert main(["hilton-milnor", "--spaces", path]) == 2
    err = capsys.readouterr().err
    assert "atom.json" in err
    assert "atom Y: declared series has homology in degree 2, at or below its connectivity 2" in err


def test_an_atom_whose_loop_space_is_a_point_exits_2(tmp_path, capsys):
    # such an atom is weakly contractible: it must be declared contractible
    hollow = {"kind": "atom", "name": "Q", "conn": 2, "loop": {"kind": "point"}}
    path = write(tmp_path, "atom.json", {"1": hollow, "2": {"kind": "sphere", "n": 3}})
    assert main(["hilton-milnor", "--spaces", path]) == 2
    err = capsys.readouterr().err
    assert "atom.json" in err and "atom Q: its loop space is a point" in err and "declare it contractible" in err
    path = write(tmp_path, "atom.json", {"1": {**hollow, "contractible": True}, "2": {"kind": "sphere", "n": 3}})
    assert main(["hilton-milnor", "--spaces", path]) == 0


def test_internal_error_names_empty_exceptions(monkeypatch, capsys):
    def fail(exc):
        def run(args):
            raise exc
        return run

    monkeypatch.setattr("polyco.cli._run", fail(MemoryError()))
    assert main(["hall-basis", "--alphabet", "2", "--max-weight", "2"]) == 1
    assert capsys.readouterr().err == "internal error: MemoryError\n"
    monkeypatch.setattr("polyco.cli._run", fail(RuntimeError("invariant broken")))
    assert main(["hall-basis", "--alphabet", "2", "--max-weight", "2"]) == 1
    assert capsys.readouterr().err == "internal error: invariant broken\n"


POINTS = {"m": 2, "facets": [[1], [2]]}
EDGE = {"m": 2, "facets": [[1, 2]]}
S2, S3 = {"kind": "sphere", "n": 2}, {"kind": "sphere", "n": 3}
X_ATOM = {"kind": "atom", "name": "X", "conn": 2}


@pytest.mark.parametrize("files, argv, env, code, expected", [
    pytest.param(
        {"cx": POINTS, "sp": {
            "1": {"domain": X_ATOM, "codomain": S2, "domain_contractible": True},
            "2": {"domain": {"kind": "point"}, "codomain": S3, "domain_contractible": True},
        }},
        ["decompose", "--complex", "{cx}", "--spaces", "{sp}", "--max-weight", "1"],
        None, 0, "Ω^2Σ(ΩS^2 ∧ ΩS^3)", id="domain-contractible-atom-and-point",
    ),
    pytest.param(
        {"cx": POINTS, "sp": {
            "1": {"domain": S3, "codomain": S2, "domain_contractible": True},
            "2": {"domain": {"kind": "point"}, "codomain": S3},
        }},
        ["decompose", "--complex", "{cx}", "--spaces", "{sp}", "--max-weight", "1"],
        None, 2, "domain_contractible is only honoured for atoms and points",
        id="domain-contractible-sphere",
    ),
    pytest.param(
        {"cx": EDGE, "sp": {"1": S3, "2": S3}},
        ["decompose", "--complex", "{cx}", "--spaces", "{sp}", "--max-weight", "2"],
        None, 0, "ΩΣ(ΩS^3^∧2)", id="bare-space-is-a-pair-with-a-point",
    ),
    pytest.param(
        {"cx": EDGE, "sp": []},
        ["decompose-wedge", "--complex", "{cx}", "--spaces", "{sp}"],
        None, 2, "spaces file must be a nonempty object keyed by vertex", id="spaces-list",
    ),
    pytest.param(
        {"cx": EDGE, "sp": {"a": S3, "2": S3}},
        ["decompose-wedge", "--complex", "{cx}", "--spaces", "{sp}"],
        None, 2, "spaces file keys must be vertex numbers", id="spaces-letter-key",
    ),
    pytest.param(
        {"cx": EDGE, "sp": {"1": {"kind": "atom", "name": None, "conn": 1}, "2": S3}},
        ["decompose-wedge", "--complex", "{cx}", "--spaces", "{sp}"],
        None, 2, 'atom "name" must be a string, got None', id="atom-name-null",
    ),
    pytest.param(
        {"cx": EDGE, "sp": {"1": {**X_ATOM, "series": [[1], [1, 0, -1]]}, "2": S3}},
        ["decompose-wedge", "--complex", "{cx}", "--spaces", "{sp}"],
        None, 2, 'atom "series" must be an object, got [[1], [1, 0, -1]]', id="atom-series-list",
    ),
    pytest.param(
        {"cx": EDGE, "sp": {"1": {**X_ATOM, "series": {"num": 1, "den": [1, 0, -1]}}, "2": S3}},
        ["decompose-wedge", "--complex", "{cx}", "--spaces", "{sp}"],
        None, 2, 'atom series "num" must be a list, got 1', id="atom-series-num-int",
    ),
    pytest.param(
        {"cx": EDGE, "sp": {"1": {"kind": "wedge", "children": S2}, "2": S3}},
        ["decompose-wedge", "--complex", "{cx}", "--spaces", "{sp}"],
        None, 2, 'wedge "children" must be a list', id="wedge-children-object",
    ),
    pytest.param(
        {"cx": {"m": 2, "facets": [5]}}, ["homology", "--complex", "{cx}"],
        None, 2, '"facets" entry must be a list, got 5', id="facet-int",
    ),
    pytest.param(
        {"cx": {"m": 2, "facets": {"1": [1, 2]}}}, ["homology", "--complex", "{cx}"],
        None, 2, "\"facets\" must be a list, got {'1': [1, 2]}", id="facets-object",
    ),
    pytest.param(
        {}, ["verify", "--check", "counterexample"],
        "0", 2, "POLYCO_MAX_DEGREE must be >= 1", id="env-degree-zero",
    ),
    pytest.param(
        {"cx": EDGE, "sp": {"1": S3, "2": S3}},
        ["decompose-wedge", "--complex", "{cx}", "--spaces", "{sp}", "--max-degree", "0"],
        None, 2, "--max-degree must be >= 1", id="max-degree-zero",
    ),
    pytest.param(
        {"cx": EDGE, "sp": {"1": S3, "2": S3}},
        ["decompose-wedge", "--complex", "{cx}", "--spaces", "{sp}", "--max-weight", "0"],
        None, 2, "--max-weight must be >= 1", id="max-weight-zero",
    ),
    pytest.param(
        {}, ["hall-basis", "--alphabet", "0", "--max-weight", "2"],
        None, 2, "--alphabet must be >= 1", id="hall-basis-alphabet-zero",
    ),
    pytest.param(
        {}, ["hall-basis", "--alphabet", "2", "--max-weight", "0"],
        None, 2, "--max-weight must be >= 1", id="hall-basis-weight-zero",
    ),
    pytest.param(
        {}, ["verify", "--check", "wedge"],
        None, 2, "verify --check wedge needs --complex and --spaces", id="verify-wedge-no-files",
    ),
    pytest.param(
        {"cx": EDGE}, ["verify", "--check", "disjoint-union", "--complex", "{cx}"],
        None, 2, "verify --check disjoint-union needs --complex, --complex2 and --spaces",
        id="verify-disjoint-union-one-file",
    ),
])
def test_input_paths(tmp_path, capsys, monkeypatch, files, argv, env, code, expected):
    # each input branch of the command line, with its answer or its message
    paths = {name: write(tmp_path, f"{name}.json", data) for name, data in files.items()}
    if env is None:
        monkeypatch.delenv("POLYCO_MAX_DEGREE", raising=False)
    else:
        monkeypatch.setenv("POLYCO_MAX_DEGREE", env)
    assert main([arg.format(**paths) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert expected in (out if code == 0 else err)


# one argv per subcommand and per verify check, over the files of
# cli_row_files, with the verdict a check must give: the cases are read
# off the parser and CHECKS, so a new row without an entry here fails
CLI_ROW_ARGS = {
    "decompose": lambda f: (["--complex", f["triangle"], "--spaces", f["pairs"], "--max-degree", "3"], None),
    "decompose-wedge": lambda f: (["--complex", f["square"], "--spaces", f["cp4"], "--max-degree", "4"], None),
    "decompose-contractible": lambda f: (
        ["--complex", f["boundary"], "--spaces", f["s234"], "--max-degree", "3"], None),
    "porter": lambda f: (["--spaces", f["s234"]], None),
    "hilton-milnor": lambda f: (["--spaces", f["s23"], "--max-degree", "5"], None),
    "hall-basis": lambda f: (["--alphabet", "3", "--max-weight", "3"], None),
    "homology": lambda f: (["--complex", f["boundary"]], None),
    "bbcg": lambda f: (["--complex", f["boundary"], "--spaces", f["s234"]], None),
    "verify hilton-milnor": lambda f: (["--spaces", f["s23"], "--max-degree", "8"], "Equal"),
    "verify porter": lambda f: (["--spaces", f["s234"], "--max-degree", "7"], "Equal"),
    "verify wedge": lambda f: (["--complex", f["triangle"], "--spaces", f["s234"], "--max-degree", "7"], "Equal"),
    "verify counterexample": lambda f: (["--max-degree", "6"], "FirstDifference"),
    "verify disjoint-union": lambda f: (
        ["--complex", f["edge"], "--complex2", f["point2"], "--spaces", f["s3x4"], "--max-degree", "7"], "Equal"),
}
VERDICT_KINDS = {"Equal": "equal", "FirstDifference": "first_difference"}


def cli_rows():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [c for c in sub.choices if c != "verify"] + [f"verify {c}" for c in CHECKS]


def cli_row_files(tmp_path):
    sphere = lambda n: {"kind": "sphere", "n": n}
    cp = {"kind": "atom", "name": "CP^inf", "conn": 1, "loop": sphere(1)}
    return {name: write(tmp_path, f"{name}.json", payload) for name, payload in {
        "square": {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]},
        "triangle": {"m": 3, "facets": [[1, 2, 3]]},
        "boundary": {"m": 3, "facets": [[1, 2], [1, 3], [2, 3]]},
        "edge": {"m": 2, "facets": [[1, 2]]},
        "point2": {"m": 2, "facets": [[1]]},
        "cp4": {str(i): cp for i in range(1, 5)},
        "s23": {"1": sphere(2), "2": sphere(3)},
        "s234": {"1": sphere(2), "2": sphere(3), "3": sphere(4)},
        "s3x4": {str(i): sphere(3) for i in range(1, 5)},
        "pairs": {"1": {"domain": sphere(3), "codomain": sphere(2)},
                  "2": {"domain": {"kind": "atom", "name": "P", "conn": 0}, "codomain": sphere(2),
                        "domain_contractible": True},
                  "3": {"domain": sphere(2), "codomain": {"kind": "point"}}},
    }.items()}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("row", cli_rows())
def test_every_cli_row_runs_in_both_formats(tmp_path, capsys, row, fmt):
    assert row in CLI_ROW_ARGS, f"no arguments for the command-line row {row!r}"
    args, verdict = CLI_ROW_ARGS[row](cli_row_files(tmp_path))
    command = row.split()[0]
    check = ["--check", row.split()[1]] if command == "verify" else []
    code = main([command, *check, *args, "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    if fmt == "json":
        data = json.loads(out)
        if verdict:
            assert data["checks"][0]["verdict"]["kind"] == VERDICT_KINDS[verdict]
    elif verdict:
        assert out.split(": ", 1)[1].split("(")[0].strip() == verdict, out
