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
this space".  Exit codes: 0 success, 2 invalid input (message names the
file), 1 internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
    expr_from_json,
    expr_to_json,
    json_bool,
    render,
)
from .verify import (
    check_counterexample,
    check_disjoint_union,
    check_hilton_milnor,
    check_porter,
    check_wedge_case,
    run_reports,
)

DEFAULT_DEGREE = 12


class InputError(Exception):
    """Bad user input; reported with exit code 2."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}: {exc.msg}")
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply to parse")


def load_complex(path: str) -> SimplicialComplex:
    data = _load_json(path)
    try:
        return complex_from_json(data)
    except (ValueError, TypeError, KeyError) as exc:
        raise InputError(f"{path}: {exc}")


def _entry_to_pair(entry, *, contractible_default: bool) -> tuple[SpaceExpr, SpaceExpr]:
    if isinstance(entry, dict) and "domain" in entry:
        domain = expr_from_json(entry["domain"])
        codomain = expr_from_json(entry["codomain"])
        if json_bool(entry.get("domain_contractible", False), '"domain_contractible"'):
            if isinstance(domain, Atom):
                domain = Atom(
                    domain.name, domain.connectivity, domain.loop, domain.series, True
                )
            elif not isinstance(domain, Point):
                raise ValueError(
                    "domain_contractible is only honoured for atoms and points"
                )
        return domain, codomain
    space = expr_from_json(entry)
    if contractible_default:
        return (
            Atom(name=f"P({render(space)})", connectivity=0, contractible=True),
            space,
        )
    return space, Point()


def load_spaces(path: str, m: int | None = None) -> list[SpaceExpr]:
    data = _load_json(path)
    try:
        return [expr_from_json(e) for e in _indexed_entries(data, m)]
    except (ValueError, TypeError, KeyError) as exc:
        raise InputError(f"{path}: {exc}")


def load_pairs(path: str, m: int | None, *, contractible_default: bool) -> PairAssignment:
    data = _load_json(path)
    try:
        entries = _indexed_entries(data, m)
        return PairAssignment.of(
            [_entry_to_pair(e, contractible_default=contractible_default) for e in entries]
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise InputError(f"{path}: {exc}")


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
    missing = [i for i in range(1, count + 1) if i not in keyed]
    if missing:
        raise ValueError(f"missing entries for vertices {missing}")
    return [keyed[i] for i in range(1, count + 1)]


def _emit(args, payload_json: dict | None, payload_text: str | None) -> None:
    if args.format == "json":
        text = json.dumps(payload_json, sort_keys=True, indent=2) + "\n"
    else:
        text = payload_text + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_decomposition(args, dec: Decomposition, K: SimplicialComplex | None, N: int, W: int):
    # build only the form that is written: a long listing's JSON is not cheap
    if args.format == "text":
        return _emit(args, None, dec.render())
    payload = dec.to_json()
    payload["max_degree"] = N
    payload["max_weight"] = W
    if K is not None:
        payload["complex"] = complex_to_json(K)
    _emit(args, payload, None)


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


def _add_common(p: argparse.ArgumentParser, *, weight: bool) -> None:
    p.add_argument("--max-degree", type=int, default=None, metavar="N")
    if weight:
        p.add_argument("--max-weight", type=int, default=None, metavar="W")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None, metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyco",
        description="loop-space decompositions of polyhedral coproducts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="general decomposition from map pairs")
    p.add_argument("--complex", required=True)
    p.add_argument("--spaces", required=True)
    _add_common(p, weight=True)

    p = sub.add_parser("decompose-wedge", help="decomposition with all codomains a point")
    p.add_argument("--complex", required=True)
    p.add_argument("--spaces", required=True)
    _add_common(p, weight=True)

    p = sub.add_parser(
        "decompose-contractible", help="decomposition with contractible domains"
    )
    p.add_argument("--complex", required=True)
    p.add_argument("--spaces", required=True)
    _add_common(p, weight=True)

    p = sub.add_parser("porter", help="loops on a wedge of the given spaces")
    p.add_argument("--spaces", required=True)
    _add_common(p, weight=False)

    p = sub.add_parser("hilton-milnor", help="loops on a wedge of suspensions")
    p.add_argument("--spaces", required=True)
    _add_common(p, weight=True)

    p = sub.add_parser("hall-basis", help="Lyndon brackets on a plain alphabet")
    p.add_argument("--alphabet", type=int, required=True, metavar="SIZE")
    p.add_argument("--max-weight", type=int, required=True, metavar="W")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None, metavar="PATH")

    p = sub.add_parser("homology", help="reduced rational homology of a complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None, metavar="PATH")

    p = sub.add_parser("bbcg", help="suspension splitting summand lists")
    p.add_argument("--complex", required=True)
    p.add_argument("--spaces", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None, metavar="PATH")

    p = sub.add_parser("verify", help="series checks against independent oracles")
    p.add_argument(
        "--check",
        required=True,
        choices=("hilton-milnor", "porter", "wedge", "counterexample", "disjoint-union"),
    )
    p.add_argument("--complex", default=None)
    p.add_argument("--complex2", default=None)
    p.add_argument("--spaces", default=None)
    _add_common(p, weight=False)
    return parser


def _run(args) -> None:
    if hasattr(args, "max_degree"):  # hall-basis, homology and bbcg take no degree
        N = _default_degree() if args.max_degree is None else args.max_degree
        if N < 1:
            raise InputError("--max-degree must be >= 1")
        W = N + 1 if getattr(args, "max_weight", None) is None else args.max_weight
        if W < 1:
            raise InputError("--max-weight must be >= 1")

    if args.command == "decompose":
        K = load_complex(args.complex)
        pairs = load_pairs(args.spaces, K.m, contractible_default=False)
        dec = loop_decompose(K, pairs, W)
        _emit_decomposition(args, dec, K, N, W)
        return

    if args.command == "decompose-wedge":
        K = load_complex(args.complex)
        spaces = load_spaces(args.spaces, K.m)
        dec = loop_decompose_wedge(K, spaces, W)
        _emit_decomposition(args, dec, K, N, W)
        return

    if args.command == "decompose-contractible":
        K = load_complex(args.complex)
        pairs = load_pairs(args.spaces, K.m, contractible_default=True)
        dec = loop_decompose_contractible(K, pairs, W)
        _emit_decomposition(args, dec, K, N, W)
        return

    if args.command == "porter":
        spaces = load_spaces(args.spaces)
        dec = porter_loop_decomp(spaces)
        _emit_decomposition(args, dec, None, N, W)
        return

    if args.command == "hilton-milnor":
        spaces = load_spaces(args.spaces)
        dec = hilton_milnor(spaces, W)
        _emit_decomposition(args, dec, None, N, W)
        return

    if args.command == "hall-basis":
        if args.alphabet < 1:
            raise InputError("--alphabet must be >= 1")
        if args.max_weight < 1:
            raise InputError("--max-weight must be >= 1")
        brackets = hall_basis(plain_alphabet(args.alphabet), args.max_weight)
        payload = {
            "alphabet": args.alphabet,
            "max_weight": args.max_weight,
            "count": len(brackets),
            "brackets": [
                {"bracket": b.serialize(), "weight": b.weight} for b in brackets
            ],
        }
        text = "\n".join(f"{b.serialize()}  (weight {b.weight})" for b in brackets)
        text += f"\ntotal: {len(brackets)}"
        _emit(args, payload, text)
        return

    if args.command == "homology":
        K = load_complex(args.complex)
        prof = homology(K)
        payload = {
            "complex": complex_to_json(K),
            "ranks": list(prof.ranks),
            "top_dim": prof.top_dim,
        }
        _emit(args, payload, f"{K}\n{prof}")
        return

    if args.command == "bbcg":
        K = load_complex(args.complex)
        spaces = load_spaces(args.spaces, K.m)
        wedge_part = bbcg_wedge_splitting(K, spaces)
        cone_part = bbcg_cone_splitting(K, spaces)
        payload = {
            "complex": complex_to_json(K),
            "wedge_splitting": [
                {"face": list(f), "summand": expr_to_json(e), "text": render(e)}
                for f, e in wedge_part
            ],
            "cone_splitting": [
                {"missing": list(f), "summand": expr_to_json(e), "text": render(e)}
                for f, e in cone_part
            ],
        }
        lines = ["suspension splitting over faces:"]
        lines += [f"  {{{','.join(map(str, f))}}}: {render(e)}" for f, e in wedge_part]
        lines.append("suspension splitting over missing subsets:")
        lines += [f"  {{{','.join(map(str, f))}}}: {render(e)}" for f, e in cone_part]
        _emit(args, payload, "\n".join(lines))
        return

    if args.command == "verify":
        reports = []
        if args.check == "hilton-milnor":
            if not args.spaces:
                raise InputError("verify --check hilton-milnor needs --spaces")
            reports.append(check_hilton_milnor(load_spaces(args.spaces), N))
        elif args.check == "porter":
            if not args.spaces:
                raise InputError("verify --check porter needs --spaces")
            reports.append(check_porter(load_spaces(args.spaces), N))
        elif args.check == "wedge":
            if not (args.complex and args.spaces):
                raise InputError("verify --check wedge needs --complex and --spaces")
            K = load_complex(args.complex)
            reports.append(check_wedge_case(K, load_spaces(args.spaces, K.m), N))
        elif args.check == "counterexample":
            reports.append(check_counterexample(N))
        else:
            if not (args.complex and args.complex2 and args.spaces):
                raise InputError(
                    "verify --check disjoint-union needs --complex, --complex2 and --spaces"
                )
            K1 = load_complex(args.complex)
            K2 = load_complex(args.complex2)
            spaces = load_spaces(args.spaces, K1.m + K2.m)
            reports.append(check_disjoint_union(K1, K2, spaces, N))
        reports = run_reports(reports)
        payload = {"checks": [r.to_json() for r in reports]}
        _emit(args, payload, "\n".join(r.render() for r in reports))
        return

    raise InputError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _run(args)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant failures, MemoryError
        # MemoryError usually carries no message; name the type instead
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
