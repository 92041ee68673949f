"""Committed mutants of ``src``: each row is a small edit that the test suite
must notice, with the tests that must fail under it.

    python tests/mutants.py [NAME ...]

For each named row (every row when none is named), ``src`` is copied to a
temporary directory and the row's old text, which must occur there exactly
once, is replaced by its new text.  The row's tests then run on that copy in
a pytest subprocess.  A mutant survives when any of its tests passes; the
survivors are listed, and the exit status is 1 when there is one.  Standard
library only.  A change that moves a row's old text updates or retires the
row (``tests/test_mutants.py`` checks that each old text occurs once).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


SCOMPLEX, SERIES = "polyco/scomplex.py", "polyco/series.py"
DECOMP, SPACEXPR, LIEALG = "polyco/decomp.py", "polyco/spacexpr.py", "polyco/liealg.py"

SC, SE, DE, VE = "tests/test_scomplex.py::", "tests/test_series.py::", "tests/test_decomp.py::", "tests/test_verify.py::"
SP, LI = "tests/test_spacexpr.py::", "tests/test_liealg.py::"
# the degree lane of the class counter: each lane mutant fails these
LANE = tuple(LI + name for name in ("test_type_counts_match_the_regrouped_reference",
                                    "test_class_counts_degree_bound_on_plain_alphabets",
                                    "test_class_counts_match_enumerated_face_alphabets"))
CUT_EXACTLY = DE + "test_a_listing_is_cut_exactly_when_a_higher_weight_lists_more"
GOLDEN = "tests/golden/test_golden.py::test_corpus_matches_its_recorded_digests"
CENSUS = (DE + "test_the_census_is_what_the_reference_keeps_in_every_mode",)
CLOSED_FORMS = DE + "test_splittings_and_closed_forms_match_their_raw_tree_references"
RESTRICTION = DE + "test_a_point_vertex_lists_like_the_full_subcomplex_without_it"

SERIES_FROM_GROUPS = DE + "test_series_from_groups_matches_the_listing_reference"
TALLIES = DE + "test_each_tally_is_the_tally_of_the_listing_on_every_preset"
WARM_COLD = DE + "test_a_warm_call_equals_a_cold_one"

MUTANTS = (
    Mutant(
        "first-vertex-is-last", SCOMPLEX,
        "return order[0] if all(", "return order[-1] if all(",
        (SC + "test_wedge_type_reads_the_facets_like_the_homology_it_replaces",
         SC + "test_wedge_type_matches_tuple_based_certificates",
         DE + "test_factors_assembled_from_dims_match_the_certificate_path"),
    ),
    Mutant(
        "facets-through-t", SCOMPLEX,
        "if t not in F)", "if t in F)",
        (SC + "test_wedge_of_spheres_type",
         SC + "test_certificates_of_large_sparse_complexes_are_fast[boundary_11_simplex]",
         DE + "test_bbcg_cone_splitting_boundary_triangle"),
    ),
    Mutant(
        "one-way-failure-not-shifted", SCOMPLEX,
        "        if not replaceable(u, v):\n            raise _Incomparable",
        "        if not replaceable(v, u):\n            raise _Incomparable",
        (SC + "test_is_shifted_matches_permutation_search",
         SC + "test_wedge_type_matches_tuple_based_certificates"),
    ),
    Mutant(
        "one-sphere-per-component", SCOMPLEX,
        "(0,) * (components - 1)", "(0,) * components",
        (SC + "test_wedge_of_spheres_type",
         SC + "test_certificate_chain_matches_the_homology_reference_without_homology",
         DE + "test_contractible_rule_over_a_face_is_a_point"),
    ),
    Mutant(
        "every-deletion-ends-a-component", SCOMPLEX,
        "components += s == {1 << v}", "components += 1",
        (SC + "test_wedge_of_spheres_chordal_flag",
         SC + "test_certificate_chain_matches_the_homology_reference_without_homology",
         SC + "test_certificates_of_large_sparse_complexes_are_fast[path]"),
    ),
    Mutant(
        "free-product-child-looped-twice", SERIES,
        "_series(_loop(child, 1), N)", "_series(_loop(child, 2), N)",
        (SE + "test_free_product_rule_on_wedge",
         SE + "test_loops_on_a_wedge_match_the_free_product_of_the_summands",
         VE + "test_porter_cases"),
    ),
    Mutant(
        # the shared coefficientwise body subtracts for a sum
        "series-sum-subtracts", SERIES,
        "return self._elementwise(add, other)", "return self._elementwise(sub, other)",
        (SE + "test_ring_laws_randomized", SE + "test_series_examples",
         "tests/test_acceptance.py::test_criterion_11b_series_ring_laws"),
    ),
    Mutant(
        "mixed-atom-one-more-connected", DECOMP,
        "max(0, sum(q) - top)", "max(0, sum(q) - top + 1)",
        (DE + "test_mixed_atom_connectivity_reads_dim_off_the_facets",
         DE + "test_bracket_rule_matches_the_reference",
         GOLDEN),
    ),
    Mutant(
        "group-pieces-are-its-support", DECOMP,
        '"pieces": lists[1]', '"pieces": lists[0]',
        (DE + "test_listing_forms_match_two_recursive_walks",
         GOLDEN),
    ),
    Mutant(
        "susp-maker-drops-the-suspension", SPACEXPR,
        "    _set_susp_child(e, c)\n    return e", "    _set_susp_child(e, c)\n    return c",
        (DE + "test_each_maker_makes_what_its_checked_constructor_makes",
         DE + "test_porter_fiber_m2",
         DE + "test_hilton_milnor_examples",
         GOLDEN),
    ),
    Mutant(
        "atom-maker-contractible-none", SPACEXPR,
        "_set_contractible(e, False)", "_set_contractible(e, None)",
        (DE + "test_each_maker_makes_what_its_checked_constructor_makes",
         DE + "test_bracket_rule_matches_the_reference"),
    ),
    Mutant(
        "map-child-walked-without-lookup", SPACEXPR,
        "j, t = memo.get(id(e.child)) or expr_forms(e.child, memo)\n    if (head",
        "j, t = expr_forms(e.child, memo)\n    if (head",
        (DE + "test_the_walk_runs_once_per_node_on_a_memo_miss",),
    ),
    Mutant(
        "weight-cut-at-the-degree-bound-dropped", DECOMP,
        "weight_bound * ds[0] + ds[1] <= degree_bound", "weight_bound * ds[0] + ds[1] < degree_bound",
        (DE + "test_a_degree_cut_listing_says_it_is_cut", CUT_EXACTLY),
    ),
    Mutant(
        "weight-cut-by-the-least-letter-alone", DECOMP,
        "weight_bound * ds[0] + ds[1] <= degree_bound", "(weight_bound + 1) * ds[0] <= degree_bound",
        (CUT_EXACTLY,),
    ),
    Mutant(
        "face-degree-one-slot-too-many", DECOMP,
        "min(extra, w - 1)", "min(extra, w)",
        (CUT_EXACTLY,),
    ),
    Mutant(
        # mu drops the sign of a prime factor left over past its square root
        "mobius-drops-the-last-prime", LIEALG,
        "return -out if n > 1 else out", "return out",
        (LI + "test_class_counts_match_witt_on_plain_alphabets", *LANE),
    ),
    Mutant(
        "degree-lane-limit-one-short", LIEALG,
        "degree_bound + 1) << dshift", "degree_bound) << dshift",
        LANE,
    ),
    Mutant(
        "mobius-root-keeps-its-degree", LIEALG,
        "((root & below) >> sbits) * d", "(root >> sbits) * d",
        LANE,
    ),
    Mutant(
        "totals-keyed-with-the-degree", LIEALG,
        "totals = {k & below: count", "totals = {k: count",
        LANE,
    ),
    Mutant(
        "full-sub-keeps-a-contained-trace", SCOMPLEX,
        "if t and not _is_face(t, star):", "if t:",
        (SC + "test_full_subcomplex_matches_face_enumerating_reference",
         DE + "test_the_rule_reads_each_full_subcomplex_like_the_face_enumerating_reference"),
    ),
    Mutant(
        "census-skips-each-piece-first-vertex", DECOMP,
        "stack = [((), 0, -1, sum(masks), 0)]", "stack = [((), 0, -1, sum(P & P - 1 for P in masks), 0)]",
        (DE + "test_the_census_lists_what_every_support_lists",
         DE + "test_counted_contractible_matches_enumerated",
         DE + "test_counted_general_matches_enumerated", *CENSUS),
    ),
    Mutant(
        # every support is taken for a missing face: a face reaches the rule's builder
        "census-lets-faces-through", DECOMP,
        "rule(g, common != 0)", "rule(g, not g)",
        (DE + "test_full_subcomplex_built_once_per_support", *CENSUS),
    ),
    Mutant(
        "contractible-branch-keeps-faces", DECOMP,
        "if face or (dims := wedge_of_spheres_type(", "if (dims := wedge_of_spheres_type(",
        (DE + "test_contractible_rule_over_a_face_is_a_point",
         DE + "test_counted_contractible_matches_enumerated", *CENSUS),
    ),
    Mutant(
        "mixed-point-codomains-keep-non-faces", DECOMP,
        'return "point" if face else None', 'return "point"',
        (DE + "test_bracket_rule_matches_the_reference", *CENSUS),
    ),
    Mutant(
        "weight-cut-read-by-support-size", DECOMP,
        "<= degree_bound) for s in listed)", "<= degree_bound) for s in {sum(s): s for s in listed}.values())",
        (DE + "test_the_weight_cut_is_read_once_per_support_type",),
    ),
    Mutant(
        # a vertex whose loop spaces are points gets a piece again in mixed data,
        # and the census lists the supports through it
        "point-pieces-kept-in-mixed-data", DECOMP,
        "enumerate(survivors) if not isinstance(y, Point))}",
        "enumerate(survivors) if per_vertex or not isinstance(y, Point))}",
        (DE + "test_point_pieces_get_no_letters",
         DE + "test_counted_general_matches_enumerated",
         DE + "test_bracket_rule_matches_the_reference",
         RESTRICTION, GOLDEN, *CENSUS),
    ),
    Mutant(
        # point codomains are read as contractible domains and back
        "bracket-rule-swaps-endpoint-masks", DECOMP,
        "partial(_bracket_rule, K, to_point, from_point)", "partial(_bracket_rule, K, from_point, to_point)",
        (DE + "test_bracket_rule_matches_the_reference",
         DE + "test_counted_general_matches_enumerated",
         DE + "test_counted_contractible_matches_enumerated",
         DE + "test_factors_assembled_from_dims_match_the_certificate_path",
         GOLDEN),
    ),
    Mutant(
        # every piece mask one vertex up: each face counted under its neighbour's type
        "census-piece-masks-off-by-one-vertex", DECOMP,
        "for j, p in enumerate(grading, start=1):\n        if p is not None:\n            masks[p]",
        "for j, p in enumerate(grading, start=2):\n        if p is not None:\n            masks[p]",
        (DE + "test_the_face_census_lists_what_every_face_lists",
         DE + "test_the_face_census_is_the_faces_within_the_cut"),
    ),
    Mutant(
        "census-without-the-empty-face", DECOMP,
        "            census.setdefault(", "            face and census.setdefault(",
        (DE + "test_the_face_census_lists_what_every_face_lists",
         DE + "test_the_face_census_is_the_faces_within_the_cut"),
    ),
    Mutant(
        "census-degree-cap-strict", DECOMP,
        "(d := degree + cost[v]) <= bound", "(d := degree + cost[v]) < bound",
        (DE + "test_the_face_census_lists_what_every_face_lists",
         DE + "test_the_face_census_is_the_faces_within_the_cut"),
    ),
    Mutant(
        # pairwise adjacent vertices with no common facet (a hollow triangle) are listed
        "census-without-the-common-facet-test", DECOMP,
        "if ((shared := common & through[v]) or rule) and", "if ((shared := common & through[v]) or ~0) and",
        (DE + "test_the_face_census_is_the_faces_within_the_cut",),
    ),
    Mutant(
        "hilton-milnor-cap-one-vertex-too-many", DECOMP,
        "most=weight_bound)", "most=weight_bound + 1)",
        (DE + "test_hilton_milnor_walks_only_the_supports_within_the_weight", *CENSUS),
    ),
    Mutant(
        "boundary-signs-all-plus", SCOMPLEX,
        "        sign = -sign\n", "        sign = sign\n",
        (SC + "test_homology_examples",
         SC + "test_homology_matches_dense_on_random_complexes",
         SC + "test_homology_matches_dense_reference_on_seeded_families"),
    ),
    Mutant(
        "str-skips-map-from-susp", SPACEXPR,
        "Susp, Loop, MapFromSusp):\n    cls.__str__", "Susp, Loop):\n    cls.__str__",
        (SP + "test_render_notation",),
    ),
    Mutant(
        "cone-suspends-the-empty-realization", DECOMP,
        "[xs if d < 0 else", "[_susp(xs) if d < 0 else",
        (DE + "test_bbcg_cone_splitting_ghost_vertex_is_the_empty_realization", CLOSED_FORMS),
    ),
    Mutant(
        "cone-sphere-one-dimension-up", DECOMP,
        "with_xs(_sphere(d))", "with_xs(_sphere(d + 1))",
        (DE + "test_bbcg_cone_splitting_boundary_triangle", CLOSED_FORMS),
    ),
    Mutant(
        # a group's factor series added once, however many supports it keeps
        "group-series-once-per-group", DECOMP,
        "k = n * count\n", "k = n\n",
        (SERIES_FROM_GROUPS,),
    ),
    Mutant(
        # the groups of one q over the supports of one type share the factor
        # of the type's first shape, whatever their own shapes
        "group-log-read-by-the-first-shape-of-a-type", DECOMP,
        "for count, shape in tallies[s]:", "for count, shape in [(n, tallies[s][0][1]) for n, _ in tallies[s]]:",
        (SERIES_FROM_GROUPS, TALLIES),
    ),
    Mutant(
        # a preset entry's series slot is read whatever N it was filled at
        "series-slot-ignores-n", DECOMP,
        "if (slot := groups.series)[0] != N:", "if (slot := groups.series)[0] is None:",
        (SERIES_FROM_GROUPS,),
    ),
    Mutant(
        # a face type's count chooses its vertices among all vertices, not within each piece
        "face-count-over-all-vertices", DECOMP,
        "comb(n, k) for n, k in zip(sizes, s)", "comb(len(grading), k) for n, k in zip(sizes, s)",
        (DE + "test_a_full_simplex_series_over_point_codomains_lists_nothing", TALLIES, SERIES_FROM_GROUPS),
    ),
    Mutant(
        # off the full simplex a face type's tally is read as on it: every
        # choice of its vertices within the pieces, faces or not
        "face-tally-counts-the-simplex", DECOMP,
        'tallies[s] = [(len(census[s]), "point")]',
        'tallies[s] = [(prod([comb(n, k) for n, k in zip(sizes, s)]), "point")]',
        (DE + "test_a_face_series_off_the_simplex_takes_one_census_and_no_rule", TALLIES, SERIES_FROM_GROUPS),
    ),
    Mutant(
        # a classified type's tally counts only its first entry's shape
        "shaped-tally-reads-the-first-entry", DECOMP,
        "Counter([shape for _, shape in census.get(s, ())])", "Counter([shape for _, shape in census.get(s, ())[:1]])",
        (TALLIES, SERIES_FROM_GROUPS),
    ),
    Mutant(
        # a kept support's pieces in order of its vertices, not of the pieces
        "listing-pieces-in-support-order", DECOMP,
        "tuple(tuple(on[p]) for p in sorted(on))", "tuple(tuple(on[p]) for p in on)",
        (DE + "test_counted_wedge_matches_enumerated", DE + "test_grouped_listing_matches_the_regrouped_reference",
         GOLDEN),
    ),
    Mutant(
        # hilton_milnor's listing walks every support, past W summands
        "deferred-listing-drops-the-weight-cap", DECOMP,
        "degree_bound, most=weight_bound)", "degree_bound)",
        CENSUS,
    ),
    Mutant(
        # normalize's memoized branch builds a compound from its children as given
        "memoized-compound-skips-the-plan-sort", SPACEXPR,
        "return _plan(type(e), [normalize(c) for c in e.children])(e.powers)",
        "return type(e)._normal(tuple([normalize(c) for c in e.children]), e.powers)",
        (SP + "test_the_normalize_memo_gives_the_fold_it_replaces",
         SP + "test_powers_match_the_expanded_reference",
         SP + "test_expr_equal_permutation_invariance"),
    ),
    Mutant(
        # a mixed support's shape drops its top, so its atom reads top 0
        "mixed-shape-without-its-top", DECOMP,
        ", max_trace(K, S))", ", 0)",
        (DE + "test_the_index_keys_a_mixed_support_by_its_atom_connectivity",),
    ),
    Mutant(
        # certified sphere dimensions are taken for an uncertified K_S
        "bracket-factor-reads-dims-as-a-complex", DECOMP,
        "_map_from_dims(None, shape, susp)", "_map_from_dims(shape, None, susp)",
        (DE + "test_factors_assembled_from_dims_match_the_certificate_path",
         DE + "test_bracket_rule_matches_the_reference"),
    ),
    Mutant(
        # hilton_milnor's memo keyed by the summands and W alone: a miss
        # computes under the caller's degree cut, and a hit returns the
        # groups of whichever cut came first
        "preset-memo-key-without-the-degree-cut", DECOMP,
        '    return Decomposition._grouped("hilton-milnor", degree_bound,\n'
        "                                  _hilton_milnor_groups(normal, weight_bound, degree_bound))\n\n\n"
        "@lru_cache(maxsize=128)\n"
        "def _hilton_milnor_groups(normal: tuple[SpaceExpr, ...], weight_bound: int, degree_bound: int | None)"
        " -> _Groups:\n",
        "    global _CUT\n    _CUT = degree_bound\n"
        '    return Decomposition._grouped("hilton-milnor", degree_bound,\n'
        "                                  _hilton_milnor_groups(normal, weight_bound, None))\n\n\n"
        "@lru_cache(maxsize=128)\n"
        "def _hilton_milnor_groups(normal: tuple[SpaceExpr, ...], weight_bound: int, degree_bound: int | None)"
        " -> _Groups:\n    degree_bound = _CUT\n",
        (WARM_COLD,),
    ),
    Mutant(
        # the polyhedral presets' memo keyed without K: a hit returns the
        # groups of whichever complex came first with these pairs and bounds
        "coproduct-memo-key-without-the-complex", DECOMP,
        "    return Decomposition._grouped(theorem, degree_bound,\n"
        "                                  _coproduct_groups(K, tuple(normal), weight_bound, degree_bound))\n\n\n"
        "@lru_cache(maxsize=128)\n"
        "def _coproduct_groups(K: SimplicialComplex, normal: tuple[tuple[SpaceExpr, SpaceExpr], ...], weight_bound: int,\n"
        "                      degree_bound: int | None) -> _Groups:\n",
        "    global _K\n    _K = K\n"
        "    return Decomposition._grouped(theorem, degree_bound,\n"
        "                                  _coproduct_groups(None, tuple(normal), weight_bound, degree_bound))\n\n\n"
        "@lru_cache(maxsize=128)\n"
        "def _coproduct_groups(K: SimplicialComplex, normal: tuple[tuple[SpaceExpr, SpaceExpr], ...], weight_bound: int,\n"
        "                      degree_bound: int | None) -> _Groups:\n    K = _K\n",
        (WARM_COLD,),
    ),
    Mutant(
        # hilton_milnor's bounds checked only past the lookup, by the class
        # counter on a miss: a warm 3.0 or True finds the entry of 3 or 1
        "bounds-checked-after-the-lookup", DECOMP,
        '    _check_bounds(weight_bound, degree_bound)\n    return Decomposition._grouped("hilton-milnor"',
        '    return Decomposition._grouped("hilton-milnor"',
        (DE + "test_a_bad_bound_raises_alike_with_the_memos_warm_or_cold",),
    ),
    Mutant(
        "cojoin-without-its-outer-loop", DECOMP,
        "return _loop(_susp(_plan(Smash, [_loop(normalize(a), 1) for _, a in pairs.pairs])((1, 1))), 1)",
        "return _susp(_plan(Smash, [_loop(normalize(a), 1) for _, a in pairs.pairs])((1, 1)))",
        (DE + "test_evaluate_special_cojoin", CLOSED_FORMS),
    ),
)


def failures(mutant: Mutant) -> set[str]:
    """The node ids that fail among the mutant's tests on a copy of src with
    the mutant applied; raises when the run fails for any other reason."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *mutant.tests],
            cwd=ROOT, env={**env, "PYTHONDONTWRITEBYTECODE": "1"}, capture_output=True, text=True,
        )
    if run.returncode not in (0, 1):  # not "all passed" or "some failed"
        raise RuntimeError(f"{mutant.name}: pytest exited {run.returncode}\n{run.stdout}{run.stderr}")
    return set(re.findall(r"^FAILED (\S+)", run.stdout, re.MULTILINE))


def survivors(mutants: tuple[Mutant, ...]) -> dict[str, list[str]]:
    """Each surviving mutant's name, with its tests that still pass."""
    out = {}
    for mutant in mutants:
        failed = failures(mutant)
        passed = [t for t in mutant.tests if t not in failed]
        print(f"{'SURVIVED' if passed else 'killed'}  {mutant.name}", flush=True)
        if passed:
            out[mutant.name] = passed
    return out


def main(names: list[str]) -> int:
    rows = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in rows]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    left = survivors(tuple(rows[n] for n in names) if names else MUTANTS)
    for name, passed in left.items():
        print(f"survivor {name}: {', '.join(passed)} passed")
    return 1 if left else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
