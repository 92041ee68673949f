"""
The same-answers corpus: a fixed, seeded set of polyco answers, kept as one
short digest per record in digests.txt, so that a change that moves an
answer shows up as a digest diff naming the record.

A record is a name and the text of one answer: a listing's text, its JSON
and its series through a degree; a verify report; a diagram; a homology
profile or wedge type; an error text; or a command-line run's exit code,
standard output and standard error.  Every preset is run with and without a
degree bound where it takes one, on seeded complexes and spaces that include
points.  The inputs are fixed: re-seeding or trimming them would hide a move.

    PYTHONPATH=src python tests/golden/corpus.py           # name the moved records
    PYTHONPATH=src python tests/golden/corpus.py --record  # rewrite digests.txt
    PYTHONPATH=src python tests/golden/corpus.py --show NAME...  # print records by name prefix
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from itertools import combinations
from pathlib import Path

from polyco import (
    CP_INFINITY,
    POINT,
    Atom,
    Loop,
    PairAssignment,
    Product,
    Smash,
    Sphere,
    Susp,
    Wedge,
    bbcg_cone_splitting,
    bbcg_wedge_splitting,
    build,
    check_counterexample,
    check_disjoint_union,
    check_gluing,
    check_hilton_milnor,
    check_porter,
    check_wedge_case,
    class_diagram,
    coproduct_diagram,
    evaluate_special,
    expr_to_json,
    full_subcomplex,
    hilton_milnor,
    homology,
    loop_decompose,
    loop_decompose_contractible,
    loop_decompose_wedge,
    porter_fiber,
    porter_loop_decomp,
    pullback_square,
    render,
    smash_coproduct,
    wedge_of_spheres_type,
)
from polyco.cli import main as cli_main

DIGESTS = Path(__file__).with_name("digests.txt")

S = Sphere
X = Atom("X", 1)
Y = Atom("Y", 2, series=((1,), (1, 0, 0, -1)))
PX = Atom("PX", 0, contractible=True)
L5 = Atom("L", 5, loop=Sphere(3))
Z0 = Atom("Z", 0)
UNDERFLOW = Susp(Loop(S(1), 2))  # ΣΩ²S¹: looping S¹ twice leaves no bound, its suspension is connected

# simply connected spaces or points, for the wedge preset, Porter and domains
SIMPLY = (S(2), S(3), S(4), X, Y, CP_INFINITY, POINT, PX, Susp(X), Product((S(2), S(3))),
          Wedge((S(2), S(3))), Susp(Loop(S(3))))
# connected spaces or points, for Hilton-Milnor
CONNECTED = (S(1), S(2), S(3), X, Z0, POINT, CP_INFINITY, Loop(S(3)), Smash((S(1), X)), Wedge((S(1), S(2))))
CODOMAINS = (S(2), S(3), X, CP_INFINITY, POINT)
SUSPENSIONS = (S(2), S(3), Susp(X), Susp(CP_INFINITY), Wedge((S(2), S(3))), Susp(Y))


def random_complex(rng: random.Random, lo: int, hi: int):
    m = rng.randint(lo, hi)
    faces = [rng.sample(range(1, m + 1), rng.randint(1, m)) for _ in range(rng.randint(0, m + 1))]
    return build(m, faces)


def listing(name: str, make, N: int = 6):
    """The records of one decomposition: its text, JSON and series through
    N, or its error text."""
    try:
        dec = make()
    except ValueError as exc:
        yield f"{name}/error", str(exc)
        return
    yield f"{name}/text", dec.render()
    yield f"{name}/json", json.dumps(dec.to_json(), sort_keys=True)
    yield f"{name}/series{N}", str(dec.series_product(N))


def report(name: str, make):
    try:
        rep = make()
    except ValueError as exc:
        yield f"{name}/error", str(exc)
        return
    yield f"{name}/text", rep.render()
    yield f"{name}/json", json.dumps(rep.to_json(), sort_keys=True)


def presets():
    rng = random.Random(3401)
    for i in range(120):
        K = random_complex(rng, 1, 5)
        spaces = [rng.choice(SIMPLY) for _ in range(K.m)]
        W = rng.randint(1, 3 if K.m <= 4 else 2)
        yield from listing(f"wedge/{i:03}/W{W}", lambda: loop_decompose_wedge(K, spaces, W))
        yield from listing(f"wedge/{i:03}/W{W}/N5", lambda: loop_decompose_wedge(K, spaces, W + 3, degree_bound=5))
    rng = random.Random(3402)
    for i in range(100):
        K = random_complex(rng, 1, 4)
        pairs = PairAssignment.of([(rng.choice(SIMPLY), rng.choice(CODOMAINS)) for _ in range(K.m)])
        W = rng.randint(1, 3)
        yield from listing(f"general/{i:03}/W{W}", lambda: loop_decompose(K, pairs, W))
    rng = random.Random(3403)
    for i in range(100):
        K = random_complex(rng, 1, 5)
        pairs = PairAssignment.path_fibrations([rng.choice(CODOMAINS) for _ in range(K.m)])
        W = rng.randint(1, 3 if K.m <= 4 else 2)
        yield from listing(f"contractible/{i:03}/W{W}", lambda: loop_decompose_contractible(K, pairs, W))
    rng = random.Random(3404)
    for i in range(100):
        spaces = [rng.choice(CONNECTED) for _ in range(rng.randint(1, 4))]
        W = rng.randint(1, 4)
        yield from listing(f"hilton-milnor/{i:03}/W{W}", lambda: hilton_milnor(spaces, W))
        yield from listing(f"hilton-milnor/{i:03}/W{W}/N5", lambda: hilton_milnor(spaces, W + 3, degree_bound=5))
    rng = random.Random(3405)
    for i in range(30):
        spaces = [rng.choice(SIMPLY) for _ in range(rng.randint(1, 4))]
        yield from listing(f"porter/{i:03}", lambda: porter_loop_decomp(spaces))
        try:
            yield f"porter/{i:03}/fiber", render(porter_fiber(spaces))
        except ValueError as exc:
            yield f"porter/{i:03}/fiber/error", str(exc)


def fixed_listings():
    """Inputs named for what they pin: complete listings, whose headers
    claim no cut, a loop whose estimate underflows under a suspension, and
    mixed data with a vertex whose domain and codomain are points, which
    lists no group through that vertex."""
    path = build(3, [[1, 2], [2, 3]])
    cases = {
        "hm-point-and-sphere": lambda: hilton_milnor([POINT, S(2)], 5),
        "contractible-path-W3": lambda: loop_decompose_contractible(path, PairAssignment.path_fibrations([S(2)] * 3), 3),
        "contractible-path-W50": lambda: loop_decompose_contractible(path, PairAssignment.path_fibrations([S(2)] * 3), 50),
        "wedge-triangle-with-point": lambda: loop_decompose_wedge(build(3, [[1, 2, 3]]), [S(2), S(3), POINT], 4),
        "hm-degree-cut-drops-a-letter": lambda: hilton_milnor([S(2), S(9)], 6, degree_bound=5),
        "hm-nested-underflow": lambda: hilton_milnor([UNDERFLOW, S(2)], 3),
        "wedge-declared-conn-above-its-loop": lambda: loop_decompose_wedge(
            build(3, [[1, 2, 3]]), [S(3), Susp(L5), Atom("H", 9)], 3),
        "hm-one-summand": lambda: hilton_milnor([S(2)], 4),
        "wedge-edge": lambda: loop_decompose_wedge(build(2, [[1, 2]]), [S(2), S(3)], 5),
        "contractible-simplex": lambda: loop_decompose_contractible(
            build(3, [[1, 2, 3]]), PairAssignment.path_fibrations([S(2)] * 3), 3),
        "contractible-boundary": lambda: loop_decompose_contractible(
            build(3, [[1, 2], [1, 3], [2, 3]]), PairAssignment.path_fibrations([S(2)] * 3), 3),
        "general-mixed-edge": lambda: loop_decompose(
            build(2, [[1, 2]]), PairAssignment.of([(S(3), S(2)), (PX, X)]), 3),
        "general-triangle-with-point-vertex": lambda: loop_decompose(
            build(3, [[1, 2, 3]]), PairAssignment.of([(S(2), POINT), (PX, S(3)), (POINT, POINT)]), 3),
    }
    for name, make in cases.items():
        yield from listing(f"fixed/{name}", make)


def checks():
    rng = random.Random(3406)
    for i in range(25):
        summands = [rng.choice(SUSPENSIONS) for _ in range(rng.randint(1, 3))]
        N = rng.randint(4, 10)
        yield from report(f"verify/hilton-milnor/{i:03}/N{N}", lambda: check_hilton_milnor(summands, N))
    for i in range(25):
        spaces = [rng.choice(SIMPLY) for _ in range(rng.randint(1, 3))]
        N = rng.randint(4, 10)
        yield from report(f"verify/porter/{i:03}/N{N}", lambda: check_porter(spaces, N))
    for i in range(20):
        m = rng.randint(1, 4)
        spaces = [rng.choice(SIMPLY) for _ in range(m)]
        N = rng.randint(4, 9)
        yield from report(f"verify/wedge/{i:03}/N{N}", lambda: check_wedge_case(build(m, [range(1, m + 1)]), spaces, N))
    for N in (3, 6):
        yield from report(f"verify/counterexample/N{N}", lambda: check_counterexample(N))
    for i in range(25):
        K = random_complex(rng, 2, 5)
        n = rng.randint(1, K.m - 1)
        o = rng.randint(0, n) if rng.random() < 0.7 else 0
        K1 = full_subcomplex(K, range(1, n + 1))
        K2 = full_subcomplex(K, range(n - o + 1, K.m + 1))
        L = full_subcomplex(K, range(n - o + 1, n + 1)) if o else None
        spaces = [rng.choice(SIMPLY) for _ in range(K.m)]
        N = rng.randint(4, 8)
        yield from report(f"verify/gluing/{i:03}/o{o}/N{N}", lambda: check_gluing(K1, K2, L, spaces, N))
        if L is None:
            yield from report(f"verify/disjoint-union/{i:03}/N{N}", lambda: check_disjoint_union(K1, K2, spaces, N))


def diagrams():
    rng = random.Random(3407)
    for i in range(15):
        K = random_complex(rng, 1, 4)
        pairs = PairAssignment.of([(rng.choice(SIMPLY), rng.choice(CODOMAINS)) for _ in range(K.m)])
        weights = [rng.randint(0, 2) for _ in range(K.m)]
        weights[rng.randrange(K.m)] = 1
        for kind, make in (("coproduct", lambda: coproduct_diagram(K, pairs)),
                           ("smash", lambda: smash_coproduct(K, pairs, weights))):
            d = make()
            yield f"diagram/{i:03}/{kind}/text", d.render()
            yield f"diagram/{i:03}/{kind}/json", json.dumps(d.to_json(), sort_keys=True)
        special = evaluate_special(K, pairs)
        yield f"diagram/{i:03}/special", "None" if special is None else render(special)
        dec = loop_decompose(K, pairs, 2)
        for j, f in enumerate(dec.bracket_factors()[:2]):
            try:
                yield f"diagram/{i:03}/class{j}", class_diagram(K, pairs, f.provenance).render()
            except ValueError as exc:
                yield f"diagram/{i:03}/class{j}/error", str(exc)
        spaces = [x for x, _ in pairs.pairs]
        yield f"diagram/{i:03}/bbcg", "\n".join(
            f"{list(f)}: {json.dumps(expr_to_json(e), sort_keys=True)}"
            for part in (bbcg_wedge_splitting(K, spaces), bbcg_cone_splitting(K, spaces)) for f, e in part)
    for i in range(8):
        K = random_complex(rng, 2, 5)
        n = rng.randint(1, K.m - 1)
        o = rng.randint(0, n)
        K1 = full_subcomplex(K, range(1, n + 1))
        K2 = full_subcomplex(K, range(n - o + 1, K.m + 1))
        L = full_subcomplex(K, range(n - o + 1, n + 1)) if o else None
        pairs = PairAssignment.of([(rng.choice(SIMPLY), rng.choice(CODOMAINS)) for _ in range(K1.m + K2.m - o)])
        try:
            sq = pullback_square(K1, K2, L, pairs)
        except ValueError as exc:
            yield f"pullback/{i:03}/error", str(exc)
            continue
        yield f"pullback/{i:03}/text", sq.render()
        yield f"pullback/{i:03}/json", json.dumps(sq.to_json(), sort_keys=True)


def complexes():
    rng = random.Random(3408)
    fixed = [build(4, [[1, 2], [2, 3], [3, 4], [1, 4]]), build(4, list(combinations(range(1, 5), 3))),
             build(6, [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6], [2, 3, 5], [2, 4, 5],
                       [2, 4, 6], [3, 4, 6], [3, 5, 6]])]
    for i, K in enumerate(fixed + [random_complex(rng, 1, 7) for _ in range(50)]):
        yield f"complex/{i:03}/homology", f"{K}\n{homology(K)}"
        yield f"complex/{i:03}/wedge-type", str(wedge_of_spheres_type(K))


def errors():
    edge = build(2, [[1, 2]])
    cases = {
        "wedge-not-simply-connected": lambda: loop_decompose_wedge(edge, [S(1), S(3)], 2),
        "wedge-underflow": lambda: loop_decompose_wedge(edge, [Loop(S(1), 2), S(3)], 2),
        "wedge-arity": lambda: loop_decompose_wedge(edge, [S(2)], 2),
        "hm-disconnected": lambda: hilton_milnor([S(0), S(2)], 2),
        "hm-underflow": lambda: hilton_milnor([Loop(S(1), 2), S(2)], 2),
        "hm-empty": lambda: hilton_milnor([], 2),
        "hm-bad-weight": lambda: hilton_milnor([S(2)], 0),
        "porter-not-simply-connected": lambda: porter_loop_decomp([S(1), S(3)]),
        "general-domain": lambda: loop_decompose(edge, PairAssignment.of([(S(1), POINT), (S(2), POINT)]), 2),
        "general-codomain": lambda: loop_decompose(edge, PairAssignment.of([(S(2), S(1)), (S(2), POINT)]), 2),
        "contractible-domain": lambda: loop_decompose_contractible(
            edge, PairAssignment.of([(S(2), S(2)), (PX, S(2))]), 2),
        "contractible-underflow": lambda: loop_decompose_contractible(
            edge, PairAssignment.path_fibrations([Loop(S(1), 2), S(3)]), 2),
        "loop-loop-atom": lambda: loop_decompose_wedge(edge, [Loop(Loop(Atom("Y", 5, loop=S(1)))), S(3)], 2),
        "wedge-case-not-simplex": lambda: check_wedge_case(build(2, [[1], [2]]), [S(2), S(3)], 4),
        "hm-check-not-suspension": lambda: check_hilton_milnor([X], 4),
        "gluing-missing-overlap": lambda: check_gluing(edge, edge, build(1, []), [S(2)] * 3, 4),
        "smash-weights": lambda: smash_coproduct(edge, PairAssignment.constant_maps([S(2)] * 2), [0, 0]),
        "series-degree": lambda: loop_decompose_wedge(edge, [S(2), S(3)], 2).series_product(-1),
        "sphere-dimension": lambda: Sphere(-1),
        "atom-series": lambda: Atom("B", 2, series=((1, 1), (1,))),
    }
    for name, make in cases.items():
        try:
            yield f"error/{name}", f"no error: {make()!r}"
        except ValueError as exc:
            yield f"error/{name}", str(exc)


def _write(directory: Path, name: str, data) -> str:
    path = directory / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def cli_runs():
    """Every subcommand in text and JSON, and the inputs that exit 2, run
    in process on files in a scratch directory whose path is masked."""
    sphere = lambda n: {"kind": "sphere", "n": n}
    cp = {"kind": "atom", "name": "CP^inf", "conn": 1, "loop": sphere(1)}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        files = {
            "square": _write(d, "square.json", {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]}),
            "triangle": _write(d, "triangle.json", {"m": 3, "facets": [[1, 2, 3]]}),
            "boundary": _write(d, "boundary.json", {"m": 3, "facets": [[1, 2], [1, 3], [2, 3]]}),
            "edge": _write(d, "edge.json", {"m": 2, "facets": [[1, 2]]}),
            "point2": _write(d, "point2.json", {"m": 2, "facets": [[1]]}),
            "cp4": _write(d, "cp4.json", {str(i): cp for i in range(1, 5)}),
            "s23": _write(d, "s23.json", {"1": sphere(2), "2": sphere(3)}),
            "s234": _write(d, "s234.json", {"1": sphere(2), "2": sphere(3), "3": sphere(4)}),
            "s2p": _write(d, "s2p.json", {"1": sphere(2), "2": sphere(2), "3": {"kind": "point"}}),
            "pairs3": _write(d, "pairs3.json", {
                "1": {"domain": sphere(3), "codomain": sphere(2)},
                "2": {"domain": {"kind": "atom", "name": "P", "conn": 0}, "codomain": sphere(2),
                      "domain_contractible": True},
                "3": {"domain": sphere(2), "codomain": {"kind": "point"}}}),
            "s3x4": _write(d, "s3x4.json", {str(i): sphere(3) for i in range(1, 5)}),
            "bad-json": _write(d, "bad.json", "{"),
            "bad-kind": _write(d, "badkind.json", {"1": {"kind": "torus"}}),
            "bad-field": _write(d, "badfield.json", {"1": {"kind": "sphere", "n": 2, "m": 1}}),
            "missing": str(d / "missing.json"),
        }
        f = files
        runs = {
            "decompose": ["decompose", "--complex", f["triangle"], "--spaces", f["pairs3"], "--max-degree", "3"],
            "decompose-wedge": ["decompose-wedge", "--complex", f["square"], "--spaces", f["cp4"], "--max-degree", "4"],
            "decompose-wedge-W": ["decompose-wedge", "--complex", f["triangle"], "--spaces", f["s2p"],
                                  "--max-degree", "4", "--max-weight", "3"],
            "decompose-contractible": ["decompose-contractible", "--complex", f["boundary"], "--spaces", f["s234"],
                                       "--max-degree", "3"],
            "porter": ["porter", "--spaces", f["s234"]],
            "hilton-milnor": ["hilton-milnor", "--spaces", f["s23"], "--max-degree", "5"],
            "hall-basis": ["hall-basis", "--alphabet", "3", "--max-weight", "3"],
            "homology": ["homology", "--complex", f["boundary"]],
            "bbcg": ["bbcg", "--complex", f["boundary"], "--spaces", f["s234"]],
            "verify-hilton-milnor": ["verify", "--check", "hilton-milnor", "--spaces", f["s23"], "--max-degree", "8"],
            "verify-porter": ["verify", "--check", "porter", "--spaces", f["s234"], "--max-degree", "7"],
            "verify-wedge": ["verify", "--check", "wedge", "--complex", f["triangle"], "--spaces", f["s234"],
                             "--max-degree", "7"],
            "verify-counterexample": ["verify", "--check", "counterexample", "--max-degree", "6"],
            "verify-disjoint-union": ["verify", "--check", "disjoint-union", "--complex", f["edge"],
                                      "--complex2", f["point2"], "--spaces", f["s3x4"], "--max-degree", "7"],
            "error-missing-file": ["homology", "--complex", f["missing"]],
            "error-bad-json": ["homology", "--complex", f["bad-json"]],
            "error-bad-kind": ["porter", "--spaces", f["bad-kind"]],
            "error-bad-field": ["porter", "--spaces", f["bad-field"]],
            "error-degree": ["hilton-milnor", "--spaces", f["s23"], "--max-degree", "0"],
            "error-weight": ["decompose-wedge", "--complex", f["edge"], "--spaces", f["s23"],
                             "--max-degree", "3", "--max-weight", "0"],
            "error-verify-options": ["verify", "--check", "wedge", "--max-degree", "3"],
            "error-arity": ["decompose-wedge", "--complex", f["triangle"], "--spaces", f["s23"], "--max-degree", "3"],
            "error-not-simply-connected": ["porter", "--spaces", _write(d, "s1.json", {"1": sphere(1)})],
            "error-alphabet": ["hall-basis", "--alphabet", "0", "--max-weight", "2"],
        }
        for name, argv in runs.items():
            for fmt in ("text", "json"):
                code, out, err = _run_cli(argv + ["--format", fmt])
                text = f"exit {code}\n--- stdout\n{out}--- stderr\n{err}".replace(tmp, "$TMP")
                yield f"cli/{name}/{fmt}", text


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


SECTIONS = (presets, fixed_listings, checks, diagrams, complexes, errors, cli_runs)


def records():
    """(name, text) for every record, in a fixed order."""
    for section in SECTIONS:
        yield from section()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def compute() -> dict[str, str]:
    out: dict[str, str] = {}
    for name, text in records():
        if name in out:
            raise ValueError(f"duplicate corpus record {name}")
        out[name] = digest(text)
    return out


def load() -> dict[str, str]:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return dict(line.rsplit(" ", 1) for line in lines)


def differences(recorded: dict[str, str], current: dict[str, str]) -> list[str]:
    """The names of the records that moved, appeared or went, in order."""
    names = list(recorded) + [n for n in current if n not in recorded]
    return [n for n in names if recorded.get(n) != current.get(n)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", help="rewrite digests.txt")
    parser.add_argument("--show", nargs="+", metavar="NAME", help="print the records whose names start so")
    args = parser.parse_args(argv)
    if args.show:
        for name, text in records():
            if name.startswith(tuple(args.show)):
                print(f"=== {name}\n{text}")
        return 0
    current = compute()
    if args.record:
        DIGESTS.write_text("".join(f"{n} {d}\n" for n, d in current.items()), encoding="utf-8")
        print(f"recorded {len(current)} records")
        return 0
    moved = differences(load(), current)
    for name in moved:
        print(name)
    print(f"{len(moved)} of {len(current)} records differ", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
