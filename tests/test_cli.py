"""End-to-end runs of the command line."""

import json

import pytest

from polyco.cli import main


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
    capsys.readouterr()
    assert main(["porter", "--spaces", spaces]) == 2
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
    # the default N = 12 gives W = 13: 119,939,427 brackets over the face
    # alphabet of the 2-simplex, listed as 2,343 classes (a MemoryError
    # while every bracket was its own factor)
    cx = write(tmp_path, "d2.json", {"m": 3, "facets": [[1, 2, 3]]})
    spaces = write(tmp_path, "s2.json", {str(i): {"kind": "sphere", "n": 2} for i in (1, 2, 3)})
    assert main(["decompose-wedge", "--complex", cx, "--spaces", spaces]) == 0
    out = capsys.readouterr().out
    assert out.startswith(
        "wedge-coproduct: 2346 entries, 119939430 factors with multiplicity (bracket weight ≤ 13)\n"
    )
    assert out.endswith("ΩΣ(ΩS^2^∧26)   [class w=13 l=(1,12,13)]\n")


def _nested_spaces(tmp_path, depth):
    # written by hand: json.dumps itself recurses once per level
    inner = '{"kind": "susp", "child": ' * depth + '{"kind": "sphere", "n": 2}' + "}" * depth
    path = tmp_path / f"nested{depth}.json"
    path.write_text('{"1": ' + inner + ', "2": {"kind": "sphere", "n": 3}}')
    return str(path)


def test_deeply_nested_spaces_exit_2(tmp_path, capsys):
    # too deep for the JSON parser
    path = _nested_spaces(tmp_path, 5000)
    assert main(["verify", "--check", "porter", "--spaces", path]) == 2
    err = capsys.readouterr().err
    assert "nested5000.json" in err and "nested too deeply" in err
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
