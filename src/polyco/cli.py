"""
Command-line front end.

Subcommands: decompose, decompose-wedge, decompose-contractible, porter,
hilton-milnor, hall-basis, homology, bbcg, verify.  Complexes are read from
JSON files of the form {"m": int, "facets": [[v, ...], ...]} with 1-based
vertices.  Spaces files map vertex numbers to space descriptions:

    {"1": {"kind": "sphere", "n": 3},
     "2": {"kind": "atom", "name": "CP^inf", "conn": 1,
           "loop": {"kind": "sphere", "n": 1}},
     "3": {"kind": "point"}}

An entry may instead be a pair {"domain": ..., "codomain": ...,
"domain_contractible": bool} for the commands that take maps.  For
decompose-contractible a bare space is shorthand for "path fibration onto
this space".  A field that a kind or a pair does not name is rejected.
Exit codes: 0 success, 2 invalid input (the message names the file, also
when it cannot be read or --output cannot be opened), 1 internal failure.

Each decomposition, wedge subcommand and verify check is one row of
DECOMPOSITIONS, WEDGES or CHECKS, which build_parser and _run read;
_add_common declares the options the subcommands of a kind share.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import partial
from itertools import islice

from .decomp import (
    Decomposition,
    bbcg_cone_splitting,
    bbcg_wedge_splitting,
    hilton_milnor,
    loop_decompose,
    loop_decompose_contractible,
    loop_decompose_wedge,
    porter_loop_decomp,
)
from .liealg import hall_basis, plain_alphabet
from .scomplex import SimplicialComplex, complex_from_json, complex_to_json, homology
from .spacexpr import (
    Atom,
    PairAssignment,
    Point,
    SpaceExpr,
    expr_forms,
    expr_from_json,
    json_bool,
    json_fields,
)
from .verify import (
    check_counterexample,
    check_disjoint_union,
    check_hilton_milnor,
    check_porter,
    check_wedge_case,
)

DEFAULT_DEGREE = 12


class InputError(Exception):
    """Bad user input; reported with exit code 2."""


def _read(path: str, parse):
    """parse(the JSON in path); a file that cannot be read or parsed raises
    InputError naming path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}: {exc.msg}")
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply to parse")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}")
    try:
        return parse(data)
    except KeyError as exc:
        raise InputError(f"{path}: missing field {exc}")
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: {exc}")


def load_complex(path: str) -> SimplicialComplex:
    return _read(path, complex_from_json)


def _entry_to_pair(entry, *, contractible_default: bool) -> tuple[SpaceExpr, SpaceExpr]:
    if isinstance(entry, dict) and "domain" in entry:
        json_fields(entry, ("domain", "codomain", "domain_contractible"), "pair entry")
        domain = expr_from_json(entry["domain"])
        codomain = expr_from_json(entry["codomain"])
        if json_bool(entry.get("domain_contractible", False), '"domain_contractible"'):
            if isinstance(domain, Atom):
                domain = replace(domain, contractible=True)
            elif not isinstance(domain, Point):
                raise ValueError("domain_contractible is only honoured for atoms and points")
        return domain, codomain
    space = expr_from_json(entry)
    if contractible_default:
        return PairAssignment.path_fibrations([space]).pairs[0]
    return space, Point()


def load_spaces(path: str, m: int | None = None) -> list[SpaceExpr]:
    return _read(path, lambda data: [expr_from_json(e) for e in _indexed_entries(data, m)])


def load_pairs(path: str, m: int | None, *, contractible_default: bool) -> PairAssignment:
    to_pair = partial(_entry_to_pair, contractible_default=contractible_default)
    return _read(path, lambda data: PairAssignment.of([to_pair(e) for e in _indexed_entries(data, m)]))


def _indexed_entries(data, m: int | None) -> list:
    if not isinstance(data, dict) or not data:
        raise ValueError("spaces file must be a nonempty object keyed by vertex")
    try:
        keyed = {int(k): v for k, v in data.items()}
    except ValueError:
        raise ValueError("spaces file keys must be vertex numbers")
    odd = [k for k in data if str(int(k)) != k]
    if odd:
        raise ValueError(f"spaces file keys {odd} are not plain vertex numbers")
    count = m if m is not None else max(keyed)
    stray = sorted(k for k in keyed if not 1 <= k <= count)
    if stray:
        raise ValueError(f"entries for vertices {stray} outside 1..{count}")
    absent = count - len(keyed)  # every key lies in 1..count
    if absent:
        # a lone large key leaves most vertices absent: name only the first ten
        missing = list(islice((i for i in range(1, count + 1) if i not in keyed), 10))
        more = f" and {absent - 10} more ({absent} in all)" if absent > 10 else ""
        raise ValueError(f"missing entries for vertices {missing}{more}")
    return [keyed[i] for i in range(1, count + 1)]


def _emit(args, payload, text) -> None:
    """Write text(), or payload() as JSON with --format json, to --output or
    stdout; only the form that is written is built (a long listing's JSON is
    not cheap)."""
    out = (json.dumps(payload(), sort_keys=True, indent=2) if args.format == "json" else text()) + "\n"
    if not args.output:
        sys.stdout.write(out)
        return
    try:
        fh = open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{args.output}: {exc.strerror}")
    with fh:
        fh.write(out)


def _emit_decomposition(args, dec: Decomposition, K: SimplicialComplex | None = None, **bounds):
    # bounds: the --max-degree and --max-weight of a truncated listing, for its JSON
    def payload():
        out = dec.to_json() | bounds
        if K is not None:
            out["complex"] = complex_to_json(K)
        return out

    _emit(args, payload, dec.render)


def _default_degree() -> int:
    env = os.environ.get("POLYCO_MAX_DEGREE")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise InputError(f"POLYCO_MAX_DEGREE={env!r} is not an integer")
        if value < 1:
            raise InputError("POLYCO_MAX_DEGREE must be >= 1")
        return value
    return DEFAULT_DEGREE


def _add_common(p: argparse.ArgumentParser, *, degree: bool, weight: bool) -> None:
    if degree:
        p.add_argument("--max-degree", type=int, default=None, metavar="N")
    if weight:
        p.add_argument("--max-weight", type=int, default=None, metavar="W")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None, metavar="PATH")


# decompositions of a complex: help, engine(K, spaces, W), spaces reader(path, m)
DECOMPOSITIONS = {
    "decompose": ("general decomposition from map pairs", loop_decompose,
                  partial(load_pairs, contractible_default=False)),
    "decompose-wedge": ("decomposition with all codomains a point", loop_decompose_wedge,
                        load_spaces),
    "decompose-contractible": ("decomposition with contractible domains",
                               loop_decompose_contractible,
                               partial(load_pairs, contractible_default=True)),
}

# loops on a wedge: help, engine, and whether it takes --max-degree and
# --max-weight (then engine(spaces, W))
WEDGES = {
    "porter": ("loops on a wedge of the given spaces", porter_loop_decomp, False),
    "hilton-milnor": ("loops on a wedge of suspensions", hilton_milnor, True),
}

# verify checks: the file options each needs, and check(args, N) -> report
CHECKS = {
    "hilton-milnor": (("spaces",), lambda a, N: check_hilton_milnor(load_spaces(a.spaces), N)),
    "porter": (("spaces",), lambda a, N: check_porter(load_spaces(a.spaces), N)),
    "wedge": (("complex", "spaces"), lambda a, N: check_wedge_case(
        K := load_complex(a.complex), load_spaces(a.spaces, K.m), N)),
    "counterexample": ((), lambda a, N: check_counterexample(N)),
    "disjoint-union": (("complex", "complex2", "spaces"), lambda a, N: check_disjoint_union(
        K1 := load_complex(a.complex), K2 := load_complex(a.complex2),
        load_spaces(a.spaces, K1.m + K2.m), N)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyco",
        description="loop-space decompositions of polyhedral coproducts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in DECOMPOSITIONS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--complex", required=True)
        p.add_argument("--spaces", required=True)
        _add_common(p, degree=True, weight=True)
    for name, (help_text, _, truncated) in WEDGES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spaces", required=True)
        _add_common(p, degree=truncated, weight=truncated)

    p = sub.add_parser("hall-basis", help="Lyndon brackets on a plain alphabet")
    p.add_argument("--alphabet", type=int, required=True, metavar="SIZE")
    p.add_argument("--max-weight", type=int, required=True, metavar="W")
    _add_common(p, degree=False, weight=False)

    p = sub.add_parser("homology", help="reduced rational homology of a complex")
    p.add_argument("--complex", required=True)
    _add_common(p, degree=False, weight=False)

    p = sub.add_parser("bbcg", help="suspension splitting summand lists")
    p.add_argument("--complex", required=True)
    p.add_argument("--spaces", required=True)
    _add_common(p, degree=False, weight=False)

    p = sub.add_parser("verify", help="series checks against independent oracles")
    p.add_argument("--check", required=True, choices=tuple(CHECKS))
    for option in ("complex", "complex2", "spaces"):
        p.add_argument(f"--{option}", default=None)
    _add_common(p, degree=True, weight=False)
    return parser


def _run(args) -> None:
    if hasattr(args, "max_degree"):  # porter, hall-basis, homology and bbcg take no degree
        N = _default_degree() if args.max_degree is None else args.max_degree
        if N < 1:
            raise InputError("--max-degree must be >= 1")
        W = N + 1 if getattr(args, "max_weight", None) is None else args.max_weight
        if W < 1:
            raise InputError("--max-weight must be >= 1")

    if args.command in DECOMPOSITIONS:
        _, engine, read = DECOMPOSITIONS[args.command]
        K = load_complex(args.complex)
        # the wedge preset alone takes the degree cut; W stays an extra cut
        cut = {"degree_bound": N} if engine is loop_decompose_wedge else {}
        dec = engine(K, read(args.spaces, K.m), W, **cut)
        _emit_decomposition(args, dec, K, max_degree=N, max_weight=W)

    elif args.command in WEDGES:
        _, engine, truncated = WEDGES[args.command]
        spaces = load_spaces(args.spaces)
        if truncated:
            _emit_decomposition(args, engine(spaces, W, degree_bound=N), max_degree=N, max_weight=W)
        else:
            _emit_decomposition(args, engine(spaces))

    elif args.command == "hall-basis":
        if args.alphabet < 1:
            raise InputError("--alphabet must be >= 1")
        if args.max_weight < 1:
            raise InputError("--max-weight must be >= 1")
        brackets = hall_basis(plain_alphabet(args.alphabet), args.max_weight)
        _emit(args, lambda: {
            "alphabet": args.alphabet,
            "max_weight": args.max_weight,
            "count": len(brackets),
            "brackets": [{"bracket": b.serialize(), "weight": b.weight} for b in brackets],
        }, lambda: "\n".join(
            [f"{b.serialize()}  (weight {b.weight})" for b in brackets] + [f"total: {len(brackets)}"]
        ))

    elif args.command == "homology":
        K = load_complex(args.complex)
        prof = homology(K)
        _emit(args, lambda: {
            "complex": complex_to_json(K), "ranks": list(prof.ranks), "top_dim": prof.top_dim,
        }, lambda: f"{K}\n{prof}")

    elif args.command == "bbcg":
        K = load_complex(args.complex)
        spaces = load_spaces(args.spaces, K.m)
        parts = bbcg_wedge_splitting(K, spaces), bbcg_cone_splitting(K, spaces)
        memo: dict = {}  # each summand's JSON and text from one walk, while parts keeps them alive
        wedge_part, cone_part = ([(f, *(memo.get(id(e)) or expr_forms(e, memo))) for f, e in part]
                                 for part in parts)
        _emit(args, lambda: {
            "complex": complex_to_json(K),
            "wedge_splitting": [{"face": list(f), "summand": j, "text": t} for f, j, t in wedge_part],
            "cone_splitting": [{"missing": list(f), "summand": j, "text": t} for f, j, t in cone_part],
        }, lambda: "\n".join(
            ["suspension splitting over faces:"]
            + [f"  {{{','.join(map(str, f))}}}: {t}" for f, _, t in wedge_part]
            + ["suspension splitting over missing subsets:"]
            + [f"  {{{','.join(map(str, f))}}}: {t}" for f, _, t in cone_part]
        ))

    elif args.command == "verify":
        options, check = CHECKS[args.check]
        if not all(getattr(args, option) for option in options):
            named = [f"--{option}" for option in options]
            listed = ", ".join(named[:-1]) + " and " + named[-1] if len(named) > 1 else named[0]
            raise InputError(f"verify --check {args.check} needs {listed}")
        report = check(args, N)
        _emit(args, lambda: {"checks": [report.to_json()]}, report.render)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _run(args)
        return 0
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant failures, MemoryError
        # MemoryError usually carries no message; name the type instead
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
