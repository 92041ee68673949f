"""The decomposition operations: diagrams, special cases, theorems, structure."""

import copy
import json
import math
import pickle
import random
import re
import time
from collections import Counter
from functools import partial
from itertools import combinations

import pytest

import polyco.cli
import polyco.decomp
import polyco.spacexpr
from _helpers import (
    _loop_smash_of_loops,
    _reference_safe_conn,
    all_face_letters,
    enumerated_contractible,
    enumerated_general,
    enumerated_hilton_milnor,
    enumerated_wedge,
    group_key,
    group_of,
    listing_order,
    multidegree,
    per_group_listing,
    random_complex,
    random_expr,
    recursive_diagram_json,
    recursive_diagram_text,
    recursive_expr_to_json,
    recursive_listing_json,
    recursive_listing_text,
    recursive_render,
    reference_bracket_factor,
    reference_census,
    reference_shaped_census,
    reference_class_counts,
    reference_grading,
    reference_live_grading,
    reference_group_factor,
    reference_normalize,
    reference_series_product,
    reference_full_subcomplex,
    reference_summand_factor,
    reference_wedge_of_spheres_type,
    regrouped,
    repeated_product,
    summand_grading,
    two_points,
    with_repeats,
)
from polyco.decomp import (
    BracketGroup,
    Decomposition,
    Factor,
    _base_factors,
    bbcg_cone_splitting,
    bbcg_wedge_splitting,
    class_diagram,
    coproduct_diagram,
    evaluate_special,
    hilton_milnor,
    join_vertex_reduce,
    loop_decompose,
    loop_decompose_contractible,
    loop_decompose_wedge,
    porter_fiber,
    porter_loop_decomp,
    pullback_square,
    smash_coproduct,
    _bracket_factor,
    _bracket_rule,
    _group_log,
    _normal_pairs,
    _vertex_pieces,
)
from polyco.liealg import Bracket, plain_alphabet, stats
from polyco.scomplex import (
    SimplicialComplex, _full_sub, _index, build, disjoint_union, full_subcomplex, join, wedge_of_spheres_type,
)
from polyco.series import PoincareSeries, Unsupported, series_of
from polyco.spacexpr import (
    CP_INFINITY,
    POINT,
    Atom,
    Loop,
    MapFromSusp,
    PairAssignment,
    Point,
    Product,
    Smash,
    Sphere,
    Susp,
    Wedge,
    _Compound,
    _atom,
    _loop,
    _loop_node,
    _map_from_susp,
    _new,
    _plan,
    _sphere,
    _susp,
    _susp_node,
    conn,
    expr_from_json,
    expr_to_json,
    normalize,
    render,
    sort_key,
)
from polyco.verify import Equal, check_wedge_case

S = Sphere
X1, X2, X3 = Atom("X1", 1), Atom("X2", 1), Atom("X3", 1)
A1, A2 = Atom("A1", 1), Atom("A2", 1)


def simplex(m):
    return build(m, [list(range(1, m + 1))])


def square():
    return build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


def const(spaces):
    return PairAssignment.constant_maps(spaces)


# ---------------------------------------------------------------------------
# diagrams and special cases
# ---------------------------------------------------------------------------


def test_coproduct_diagram_two_points():
    d = coproduct_diagram(two_points(), const([X1, X2]))
    assert d.objects[()] == POINT
    assert d.objects[(1,)] == X1
    assert d.objects[(2,)] == X2
    assert d.arrows[((1,), ())] == (1,)


def test_coproduct_diagram_simplex_initial_object():
    d = coproduct_diagram(simplex(2), const([X1, X2]))
    assert d.objects[(1, 2)] == Wedge((X1, X2))


def test_coproduct_diagram_path_fibrations_keeps_atoms():
    pairs = PairAssignment.path_fibrations([X1, X2])
    d = coproduct_diagram(two_points(), pairs)
    assert d.objects[()] == Wedge((X1, X2))
    left = d.objects[(1,)]
    assert isinstance(left, Wedge)
    assert left.children[0].contractible and left.children[1] == X2


def test_coproduct_diagram_json_round_trips_each_object():
    d = coproduct_diagram(two_points(), PairAssignment.path_fibrations([S(2), S(3)]))
    data = json.loads(json.dumps(d.to_json()))
    assert data["complex"] == {"m": 2, "facets": [[1], [2]]} and data["weights"] is None
    assert [(o["face"], expr_from_json(o["value"])) for o in data["objects"]] == [
        (list(f), d.objects[f]) for f in ((), (1,), (2,))
    ]
    # the path space over S^2 stays a contractible atom
    assert data["objects"][1]["value"]["children"][0] == {
        "kind": "atom", "name": "P(S^2)", "conn": 0, "contractible": True
    }
    assert data["arrows"] == [
        {"from": [1], "to": [], "f_coordinates": [1]},
        {"from": [2], "to": [], "f_coordinates": [2]},
    ]


def test_coproduct_diagram_arity_check():
    with pytest.raises(ValueError):
        coproduct_diagram(two_points(), const([X1]))


def test_evaluate_special_product_case():
    K = build(3, [[1], [2], [3]])
    assert evaluate_special(K, const([X1, X2, X3])) == Product((X1, X2, X3))


def test_evaluate_special_wedge_case():
    out = evaluate_special(simplex(3), const([X1, X2, X3]))
    assert out == Wedge((X1, X2, X3))
    # any pairs: the initial object decides
    pairs = PairAssignment.of([(X1, A1), (X2, A2), (X3, POINT)])
    assert evaluate_special(simplex(3), pairs) == Wedge((X1, X2, X3))


def test_evaluate_special_cojoin():
    pairs = PairAssignment.path_fibrations([X1, X2])
    out = evaluate_special(two_points(), pairs)
    assert out == Loop(Susp(Smash((Loop(X1), Loop(X2)))))


def test_evaluate_special_not_special():
    assert evaluate_special(square(), const([X1, X2, X1, X2])) is None


# ---------------------------------------------------------------------------
# porter and hilton-milnor
# ---------------------------------------------------------------------------


def test_porter_fiber_m2():
    fib = porter_fiber([X1, X2])
    assert fib == Susp(Smash((Loop(X1), Loop(X2))))


def test_porter_fiber_m3_multiplicities():
    fib = porter_fiber([X1, X2, X3])
    assert isinstance(fib, Wedge)
    counts = Counter(dict(zip(fib.children, fib.powers)))
    pairs = [
        normalize(Susp(Smash((Loop(a), Loop(b)))))
        for a, b in combinations([X1, X2, X3], 2)
    ]
    triple = normalize(Susp(Smash((Loop(X1), Loop(X2), Loop(X3)))))
    assert all(counts[p] == 1 for p in pairs)
    assert counts[triple] == 2
    assert sum(counts.values()) == 5


def test_porter_fiber_m1_is_point():
    assert porter_fiber([X1]) == POINT


def test_porter_fiber_connectivity_error_names_vertex():
    with pytest.raises(ValueError, match="vertex 2"):
        porter_fiber([X1, S(1)])


def test_hilton_milnor_needs_connected_summands():
    with pytest.raises(ValueError, match="need at least one wedge summand"):
        hilton_milnor([], 2)
    with pytest.raises(ValueError, match="vertex 2: summand S\\^0 must be connected"):
        hilton_milnor([S(2), S(0)], 2)


def test_porter_loop_decomp():
    dec = porter_loop_decomp([S(3), S(3)])
    assert [render(f.expr) for f in dec.factors] == [
        "ΩS^3",
        "ΩS^3",
        "ΩΣ(ΩS^3^∧2)",
    ]
    assert dec.to_json()["factors"][-1]["provenance"] == {"kind": "base"}
    assert porter_loop_decomp([X1]).factor_multiset() == Counter({Loop(X1): 1})
    # a point summand is absorbed
    dec = porter_loop_decomp([X1, POINT])
    assert dec.factor_multiset() == Counter({Loop(X1): 1})


def test_hilton_milnor_examples():
    dec = hilton_milnor([X1], 5)
    assert dec.factor_multiset() == Counter({Loop(Susp(X1)): 1})
    assert dec.truncation is None  # a single generator is a finite basis

    dec = hilton_milnor([X1, X2], 2)
    assert [render(f.expr) for f in dec.factors] == [
        "ΩΣX1",
        "ΩΣX2",
        "ΩΣ(X1 ∧ X2)",
    ]
    dec3 = hilton_milnor([X1, X2], 3)
    extra = [render(f.expr) for f in dec3.factors[3:]]
    # weight 3 classes in descending l: (2, 1) before (1, 2)
    assert extra == ["ΩΣ(X1^∧2 ∧ X2)", "ΩΣ(X1 ∧ X2^∧2)"]
    assert dec3.truncation == 3


def test_hilton_milnor_groups_summands_by_normal_form():
    # ΣS^2 normalizes to S^3, so the two summands share a piece and the
    # listing is that of two equal spheres: 4 entries, not 5
    for bound in (None, 7, 12):
        given = hilton_milnor([S(3), Susp(S(2))], 3, degree_bound=bound)
        equal = hilton_milnor([S(3), S(3)], 3, degree_bound=bound)
        assert given.render() == equal.render()
        assert given.to_json() == equal.to_json()
    listing = hilton_milnor([S(3), Susp(S(2))], 3)
    assert len(listing.factors) == 4
    assert listing.render().splitlines()[-1] == "  ΩS^10 ^2   [group w=3 {1,2}:3]"


def test_hilton_milnor_rejects_bad_weight():
    with pytest.raises(ValueError):
        hilton_milnor([X1], 0)


# ---------------------------------------------------------------------------
# smash coproduct diagrams
# ---------------------------------------------------------------------------


def test_smash_coproduct_absorbs_with_point_codomains():
    d = smash_coproduct(two_points(), const([X1, X2]), (1, 1))
    assert all(obj == POINT for obj in d.objects.values())


def test_smash_coproduct_path_fibrations():
    pairs = PairAssignment.path_fibrations([A1, A2])
    d = smash_coproduct(two_points(), pairs, (1, 1))
    assert d.objects[()] == Susp(Smash((Loop(A1), Loop(A2))))
    assert d.objects[(1,)] == POINT
    assert d.objects[(2,)] == POINT


def test_smash_coproduct_weights():
    K = build(2, [[1]])
    pairs = PairAssignment.of([(X1, A1), (X2, A2)])
    d = smash_coproduct(K, pairs, (2, 0))
    assert d.objects[(1,)] == Susp(Smash((Loop(X1), Loop(X1))))
    assert d.objects[()] == Susp(Smash((Loop(A1), Loop(A1))))
    with pytest.raises(ValueError):
        smash_coproduct(K, pairs, (0, 0))
    # weights are plain ints: 1.5 is not read as 1, nor True as 1
    for bad in ((1.5, 1), (True, 1), (2, 1.0), (-1, 1)):
        with pytest.raises(ValueError, match="weights must be nonnegative integers"):
            smash_coproduct(K, pairs, bad)
    with pytest.raises(ValueError, match="expected 2 weights, got 1"):
        smash_coproduct(K, pairs, (1,))


# ---------------------------------------------------------------------------
# the general decomposition
# ---------------------------------------------------------------------------


def test_loop_decompose_two_points_constant():
    dec = loop_decompose(two_points(), const([X1, X2]), 3)
    assert dec.factor_multiset() == Counter({Loop(X1): 1, Loop(X2): 1})


def test_loop_decompose_edge_matches_porter():
    dec = loop_decompose(build(2, [[1, 2]]), const([X1, X2]), 1)
    assert dec.factor_multiset() == Counter(
        {Loop(X1): 1, Loop(X2): 1, Loop(Susp(Smash((Loop(X1), Loop(X2))))): 1}
    )


def test_loop_decompose_cojoin():
    pairs = PairAssignment.path_fibrations([A1, A2])
    dec = loop_decompose(two_points(), pairs, 1)
    assert len(dec.factors) == 1
    assert dec.factors[0].expr == Loop(Susp(Smash((Loop(A1), Loop(A2)))), 2)


def test_loop_decompose_mixed_pair_stays_symbolic():
    pairs = PairAssignment.of([(POINT, A1), (Atom("Y", 1), POINT)])
    dec = loop_decompose(two_points(), pairs, 1)
    brackets = dec.bracket_factors()
    assert len(brackets) == 1
    f = brackets[0]
    assert isinstance(f.expr, Loop) and isinstance(f.expr.child, Atom)
    d = class_diagram(two_points(), pairs, f.provenance)
    assert d.kind == "suspended-smash"
    assert d.objects[(2,)] == Susp(Smash((Loop(A1), Loop(Atom("Y", 1)))))


# atoms whose loop replacement contradicts their declared connectivity
LOOPS_TO_S1 = Atom("Y", 5, loop=S(1))
LOOPS_TO_S1_LOW = Atom("X", 3, loop=S(1))
LOOPS_TO_S0 = Atom("Z", 5, loop=S(0))


def test_loop_decompose_connectivity_validation():
    # each input error in full: the arity first, then vertex by vertex, each
    # input checked on the form the engine builds from and named as given
    # (ΩΩY is ΩS^1, ΩX is S^1, ΩZ is S^0)
    two, edge, twice = two_points(), build(2, [[1, 2]]), Loop(Loop(LOOPS_TO_S1))
    for call, message in [
        (lambda: loop_decompose(two, const([S(1), X2]), 1),
         "vertex 1: domain S^1 must be simply connected or contractible"),
        (lambda: loop_decompose(two, const([S(3)]), 1), "complex has 2 vertices but 1 pairs given"),
        (lambda: loop_decompose(two, PairAssignment.of([(POINT, S(1)), (S(1), POINT)]), 1),
         "vertex 1: codomain S^1 must be simply connected or a point"),
        (lambda: loop_decompose_wedge(two, [S(1)], 1), "complex has 2 vertices but 1 spaces given"),
        (lambda: loop_decompose_wedge(two, [S(3), S(1)], 1),
         "vertex 2: space S^1 must be simply connected (connectivity 0)"),
        (lambda: loop_decompose_wedge(edge, [twice, S(3)], 2),
         "vertex 1: space ΩΩY must be simply connected (connectivity -1)"),
        (lambda: loop_decompose(edge, const([twice, S(3)]), 2),
         "vertex 1: domain ΩΩY must be simply connected or contractible"),
        (lambda: loop_decompose_contractible(two, path_pairs([twice, S(3)]), 2),
         "vertex 1: codomain ΩΩY must be simply connected or a point"),
        (lambda: porter_loop_decomp([Loop(LOOPS_TO_S1_LOW), S(3)]),
         "vertex 1: wedge summand ΩX must be simply connected (connectivity 0)"),
        (lambda: hilton_milnor([Loop(LOOPS_TO_S0), S(3)], 2), "vertex 1: summand ΩZ must be connected"),
        (lambda: check_wedge_case(edge, [twice, S(3)], 4),
         "vertex 1: space ΩΩY must be simply connected (connectivity -1)"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    # an atom given directly keeps its declared connectivity
    assert loop_decompose_wedge(edge, [LOOPS_TO_S1, S(3)], 2).factors[0].expr == S(1)


def test_an_underflowing_input_gets_the_presets_message():
    # Ω²S^1 underflows where its connectivity is read: each entry point
    # names the vertex and the input as given, at connectivity -1
    edge, twice = build(2, [[1, 2]]), Loop(S(1), 2)
    for call, message in [
        (lambda: loop_decompose_wedge(edge, [twice, S(3)], 2),
         "vertex 1: space Ω^2S^1 must be simply connected (connectivity -1)"),
        (lambda: hilton_milnor([twice, S(3)], 2), "vertex 1: summand Ω^2S^1 must be connected"),
        (lambda: porter_fiber([twice, S(3)]),
         "vertex 1: wedge summand Ω^2S^1 must be simply connected (connectivity -1)"),
        (lambda: porter_loop_decomp([twice, S(3)]),
         "vertex 1: wedge summand Ω^2S^1 must be simply connected (connectivity -1)"),
        (lambda: loop_decompose(edge, const([twice, S(3)]), 2),
         "vertex 1: domain Ω^2S^1 must be simply connected or contractible"),
        (lambda: loop_decompose_contractible(edge, path_pairs([twice, S(3)]), 2),
         "vertex 1: codomain Ω^2S^1 must be simply connected or a point"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_each_engine_treats_an_input_as_its_normal_form():
    # seeded inputs, and loops of atoms with loop replacements: each engine
    # rejects both e and normalize(e), or lists the same factors for both
    rng = random.Random(3001)
    atoms = (LOOPS_TO_S1, LOOPS_TO_S1_LOW, LOOPS_TO_S0, CP_INFINITY)
    edge, K1, K2 = build(2, [[1, 2]]), build(1, [[1]]), build(1, [[1]])
    engines = {
        "porter": lambda e: porter_loop_decomp([e, S(3)]),
        "hilton-milnor": lambda e: hilton_milnor([e, S(2)], 3),
        "wedge": lambda e: loop_decompose_wedge(edge, [e, S(3)], 2),
        "disjoint union": lambda e: loop_decompose_wedge(disjoint_union(K1, K2), [S(2), e], 2),
        "general domain": lambda e: loop_decompose(edge, PairAssignment.of([(e, A1), (S(3), POINT)]), 2),
        "general codomain": lambda e: loop_decompose(edge, PairAssignment.of([(X1, e), (POINT, S(2))]), 2),
        "contractible": lambda e: loop_decompose_contractible(two_points(), path_pairs([e, S(3)]), 2),
    }
    seen = Counter()
    inputs = [random_expr(rng, 2) for _ in range(150)]
    inputs += [Loop(a, k) for a in atoms for k in (1, 2, 3)] + [Loop(Loop(a)) for a in atoms]
    for e in inputs:
        for name, engine in engines.items():
            outcomes = []
            for given in (e, normalize(e)):
                try:
                    outcomes.append(engine(given).render())
                except ValueError:
                    outcomes.append(None)
            assert outcomes[0] == outcomes[1], (name, render(e))
            seen[name, outcomes[0] is None] += 1
    assert len(seen) == 2 * len(engines) and min(seen.values()) >= 5, seen


def test_loop_decompose_ghost_vertex_uses_codomain():
    # a vertex outside the complex contributes loops of its codomain
    K = build(2, [[1]])
    pairs = PairAssignment.of([(X1, POINT), (X2, A2)])
    dec = loop_decompose(K, pairs, 1)
    base = {f.provenance: f.expr for f in dec.factors if isinstance(f.provenance, int)}
    assert base[1] == Loop(X1)
    assert base[2] == Loop(A2)


# ---------------------------------------------------------------------------
# the wedge (all codomains a point) decomposition
# ---------------------------------------------------------------------------


def test_wedge_decomp_square_with_cp_infinity():
    dec = loop_decompose_wedge(square(), [CP_INFINITY] * 4, 1)
    assert dec.factor_multiset() == Counter({S(1): 4, Loop(S(3)): 4})
    # higher weight adds nothing: each edge alphabet has a single letter
    dec5 = loop_decompose_wedge(square(), [CP_INFINITY] * 4, 5)
    assert dec5.factor_multiset() == dec.factor_multiset()
    assert dec.truncation is None
    # the general preset on the same constant maps lists the same faces, uncut
    general = loop_decompose(square(), const([CP_INFINITY] * 4), 1)
    assert general.render() == dec.render().replace("wedge-coproduct", "general-coproduct")


def test_wedge_decomp_discrete():
    for m in range(1, 7):
        K = build(m, [[i] for i in range(1, m + 1)])
        spaces = [Atom(f"X{i}", 1) for i in range(1, m + 1)]
        dec = loop_decompose_wedge(K, spaces, 4)
        assert len(dec.factors) == m
        assert all(isinstance(f.provenance, int) for f in dec.factors)


def test_wedge_decomp_one_dimensional():
    K = build(3, [[1, 2], [2, 3]])
    dec = loop_decompose_wedge(K, [X1, X2, X3], 3)
    exprs = [render(f.expr) for f in dec.factors]
    assert exprs == [
        "ΩX1",
        "ΩX2",
        "ΩX3",
        "ΩΣ(ΩX1 ∧ ΩX2)",
        "ΩΣ(ΩX2 ∧ ΩX3)",
    ]


def test_wedge_decomp_dedup_across_overlapping_faces():
    # two triangles sharing the edge {2,3}: the brackets supported on the
    # shared edge form one class, counted once
    K = build(4, [[1, 2, 3], [2, 3, 4]])
    dec = loop_decompose_wedge(K, [X1, X2, X3, Atom("X4", 1)], 2)
    shared = [f for f in dec.bracket_factors() if f.provenance.support == (2, 3)]
    assert len(shared) == 1
    assert shared[0].multiplicity == 1


def test_wedge_decomp_monotone_in_weight():
    K = simplex(3)
    spaces = [X1, X2, X3]
    prev = loop_decompose_wedge(K, spaces, 1)
    for W in range(2, 5):
        cur = loop_decompose_wedge(K, spaces, W)
        assert cur.factors[: len(prev.factors)] == prev.factors
        prev = cur


def test_wedge_decomp_truncation_soundness():
    # the weight cut is sound because a weight-w bracket factor of simply
    # connected spaces is at least w-connected: checked on the built trees
    # of the wedge and Hilton-Milnor presets, with and without a degree bound
    decs = [loop_decompose_wedge(simplex(3), [S(2), S(3), S(2)], 3)]
    pool = (S(2), S(3), S(4), S(5), CP_INFINITY, T_PRODUCT)
    rng = random.Random(385)
    for _ in range(30):
        spaces = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        W = rng.randint(1, 5)
        decs.append(hilton_milnor(spaces, W))
        decs.append(hilton_milnor(spaces, W, degree_bound=rng.randint(1, 14)))
        K = random_complex(rng, allow_empty=False)
        spaces = [rng.choice(pool) for _ in range(K.m)]
        decs.append(loop_decompose_wedge(K, spaces, rng.randint(1, 4), degree_bound=rng.randint(1, 14)))
    decs.append(hilton_milnor([S(2), S(2), S(3), S(3)], 5, degree_bound=9))
    checked = 0
    for dec in decs:
        for f in dec.bracket_factors():
            assert conn(f.expr) >= f.provenance.weight, (dec.theorem, render(f.expr), f.provenance)
            checked += 1
    assert checked > 500


def test_an_atoms_connectivity_is_capped_by_its_loop_replacement():
    # L declares 5 but loops to S^3, so it is at most 3-connected: ΩΣL is
    # 3-connected, not 5-connected, and its series through degree 4 is out
    # of reach, where reading it as 1 gave the false 1 + t^2 + t^4
    L = Atom("L", 5, loop=S(3))
    assert conn(L) == 3 and conn(Susp(L)) == 4 and expr_to_json(L)["conn"] == 5
    assert conn(Atom("Z", 2, loop=S(3))) == 2 and conn(Atom("P", 1, loop=S(2), contractible=True)) == math.inf
    dec = loop_decompose_wedge(build(3, [[1, 2, 3]]), [S(3), Susp(L), Atom("H", 9)], 3)
    got = dec.series_product(4)
    assert isinstance(got, Unsupported), got
    assert got.reason.startswith("factor ΩΣL [vertex 2]: ") and got.reason.endswith("no declared homology series")


# atoms whose loop replacement agrees with the declared connectivity (CP^∞
# loops to S^1) and ones whose does not: X_DEEP is 3-connected but loops to
# a circle, U_WIDE is simply connected but loops to the 1-connected S^1 ∧ V
V_CIRCLE = Atom("V", 0, series=((1, 1), (1,)))
X_DEEP = Atom("X", 3, loop=S(1), series=((1, 0, 0, 0, 1), (1,)))
U_WIDE = Atom("U", 1, loop=Smash((S(1), V_CIRCLE)), series=((1, 0, 0, 1), (1,)))
CUT_POOL = (S(2), S(3), CP_INFINITY, X_DEEP, U_WIDE)


def test_degree_cut_reads_the_surviving_space():
    # a degree-bounded listing has the series of the uncut one through its
    # bound: each piece's degree is read off the space its factors smash
    # (Loop X for the wedge preset), not off the declared connectivity of X
    K = build(3, [[1, 2, 3]])
    cut = loop_decompose_wedge(K, [X_DEEP] * 3, 7, degree_bound=6)
    assert cut.series_product(6).coeffs == (1, 3, 6, 12, 24, 48, 96)
    assert check_wedge_case(K, [X_DEEP] * 3, 6).verdict == Equal()
    # no surviving space is below connected: an atom whose loop replacement
    # is S^0 reads connectivity at most 0, whatever it declares, so the
    # preset rejects it with or without a cut; its loop normalizes to S^0
    below = Atom("Y", 5, loop=S(0))
    for bound in (None, 4):
        with pytest.raises(ValueError, match=r"^vertex 1: space Y must be simply connected \(connectivity 0\)$"):
            loop_decompose_wedge(K, [below] * 3, 3, degree_bound=bound)
    with pytest.raises(ValueError, match=r"^vertex 1: space ΩY must be simply connected \(connectivity -1\)$"):
        loop_decompose_wedge(K, [Loop(below)] * 3, 3)
    rng = random.Random(2901)
    seen = Counter()
    for _ in range(40):
        N = rng.randint(2, 5)
        K = random_complex(rng, 4, allow_empty=False)
        spaces = [rng.choice(CUT_POOL) for _ in range(K.m)]
        summands = [rng.choice(CUT_POOL) for _ in range(rng.randint(1, 3))]
        K1, K2 = random_complex(rng, 3, allow_empty=False), random_complex(rng, 2, allow_empty=False)
        union, U = [rng.choice(CUT_POOL) for _ in range(K1.m + K2.m)], disjoint_union(K1, K2)
        listings = [
            ("wedge", *(loop_decompose_wedge(K, spaces, N + 1, degree_bound=b) for b in (N, None))),
            ("hilton-milnor", *(hilton_milnor(summands, N + 1, degree_bound=b) for b in (N, None))),
            ("disjoint union", *(loop_decompose_wedge(U, union, N + 1, degree_bound=b) for b in (N, None))),
        ]
        for name, cut, full in listings:
            assert cut.series_product(N) == full.series_product(N), (name, N)
            assert not isinstance(full.series_product(N), Unsupported)
            seen[name] += len(cut.factors) < len(full.factors)
        seen["deep on a face"] += any(
            len(f) >= 2 and any(spaces[j - 1] == X_DEEP for j in f) for f in K.faces()
        )
    assert min(seen.values()) >= 5, seen


def test_a_degree_cut_listing_says_it_is_cut():
    # a degree cut shows in the header and in the JSON, and so does its
    # absence, as a header without it and a null "degree_bound"
    dec = hilton_milnor([S(3)], 4, degree_bound=1)
    assert dec.render() == "hilton-milnor: 0 entries, 0 factors with multiplicity (degree ≤ 1)"
    assert (dec.truncation, dec.to_json()["degree_bound"]) == (None, 1)
    square = build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    dec = loop_decompose_wedge(square, [S(2)] * 4, 5, degree_bound=1)
    assert dec.render().splitlines()[0] == "wedge-coproduct: 4 entries, 4 factors with multiplicity (degree ≤ 1)"
    assert not dec.bracket_factors() and loop_decompose_wedge(square, [S(2)] * 4, 5).bracket_factors()
    # both cuts: [x1,x2] has degree 4 and lists at W=2, as does a weight-2
    # group of face letters on the simplex
    dec = hilton_milnor([S(2), S(2)], 1, degree_bound=4)
    assert dec.render().splitlines()[0].endswith("(bracket weight ≤ 1, degree ≤ 4)")
    dec = loop_decompose_wedge(simplex(3), [S(2)] * 3, 1, degree_bound=4)
    assert dec.render().splitlines()[0].endswith("(bracket weight ≤ 1, degree ≤ 4)")
    assert (dec.truncation, dec.to_json()["degree_bound"]) == (1, 4)
    # a degree cut under which weight W + 1 cannot list records no weight cut:
    # five letters of degree 3 have degree 15 > 5, and five face letters of
    # degree 2 or more have degree at least 10 > 3
    dec = hilton_milnor([S(3), S(3)], 4, degree_bound=5)
    assert dec.render().splitlines()[0].endswith("factors with multiplicity (degree ≤ 5)")
    dec = loop_decompose_wedge(disjoint_union(simplex(3), two_points()), [S(2)] * 5, 4, degree_bound=3)
    assert dec.render().splitlines()[0].endswith("factors with multiplicity (degree ≤ 3)")
    assert (dec.truncation, dec.to_json()["degree_bound"]) == (None, 3)
    for dec in (hilton_milnor([S(3), S(3)], 4), loop_decompose_wedge(square, [S(2)] * 4, 5),
                loop_decompose(square, PairAssignment.constant_maps([S(2)] * 4), 5)):
        assert dec.degree_bound is None and dec.to_json()["degree_bound"] is None
        assert "degree ≤" not in dec.render()


# ---------------------------------------------------------------------------
# the contractible-domain decomposition
# ---------------------------------------------------------------------------


def path_pairs(codomains):
    return PairAssignment.path_fibrations(codomains)


def test_contractible_simplex_has_no_factors():
    dec = loop_decompose_contractible(simplex(3), path_pairs([A1, A2, Atom("A3", 1)]), 3)
    assert dec.factors == ()


def test_an_empty_contractible_listing_records_no_weight_bound():
    # over the full simplex every support is a face, so with contractible
    # domains nothing is listed at any weight.  Off it, the bound is kept
    # when a listed support has three vertices: not so on the path, whose
    # one listed support {1,3} holds one letter, but so on the triangle's
    # boundary, whose support {1,2,3} is a circle
    dec = loop_decompose_contractible(simplex(3), path_pairs([S(2)] * 3), 3)
    assert (dec.factors, dec.truncation, dec.to_json()["truncation"]) == ((), None, None)
    assert dec.render() == "contractible-domains: 0 entries, 0 factors with multiplicity"
    assert loop_decompose(simplex(3), path_pairs([S(2)] * 3), 3).truncation is None
    path = build(3, [[1, 2], [2, 3]])
    dec = loop_decompose_contractible(path, path_pairs([S(2)] * 3), 3)
    assert dec.factors and dec.truncation is None
    boundary = build(3, [[1, 2], [1, 3], [2, 3]])
    dec = loop_decompose_contractible(boundary, path_pairs([S(2)] * 3), 3)
    assert dec.factors and dec.truncation == 3
    assert dec.render().splitlines()[0].endswith("(bracket weight ≤ 3)")


def test_a_listing_is_cut_exactly_when_a_higher_weight_lists_more():
    # 1,200 seeded listings of the four bracket engines, with points among
    # the spaces and no degree bound: a listing records its weight bound W
    # exactly when the same call at W + 3 lists more entries
    path, triangle = build(3, [[1, 2], [2, 3]]), build(3, [[1, 2, 3]])
    pinned = [
        (lambda W: hilton_milnor([POINT, S(2)], W), 5, None),
        (lambda W: loop_decompose_contractible(path, path_pairs([S(2)] * 3), W), 3, None),
        (lambda W: loop_decompose_contractible(path, path_pairs([S(2)] * 3), W), 50, None),
        (lambda W: loop_decompose_wedge(triangle, [S(2), S(3), POINT], W), 4, None),
        (lambda W: hilton_milnor([S(2), S(9)], W, degree_bound=5), 6, None),
        (lambda W: hilton_milnor([S(2), S(3)], W, degree_bound=5), 30, None),
        (lambda W: hilton_milnor([S(2), S(3)], W, degree_bound=4), 1, None),
        # the least weight-3 word over vertex degrees 1, 3, 3 puts vertex 1
        # in every letter: content (3, 2, 1), degree 12
        (lambda W: loop_decompose_wedge(triangle, [S(2), S(4), S(4)], W, degree_bound=11), 2, None),
        (lambda W: loop_decompose_wedge(triangle, [S(2), S(4), S(4)], W, degree_bound=12), 2, 2),
        *((lambda W: loop_decompose_wedge(triangle, [S(2)] * 3, W, degree_bound=3), W, None)
          for W in (1, 5, 30)),
        (lambda W: hilton_milnor([S(2), S(3)], W), 2, 2),
        (lambda W: loop_decompose_wedge(triangle, [S(2), S(3), S(2)], W), 2, 2),
    ]
    for make, W, record in pinned:
        dec = make(W)
        assert dec.truncation == record and dec.to_json()["truncation"] == record
        assert (f"(bracket weight ≤ {W}" in dec.render().splitlines()[0]) == (record is not None)
    rng = random.Random(3411)
    seen = Counter()
    for _ in range(1200):
        K = random_complex(rng, 5)
        W = rng.randint(1, 3 if K.m <= 4 else 2)
        name = rng.choice(("wedge", "general", "contractible", "hilton-milnor"))
        if name == "wedge":
            make = partial(loop_decompose_wedge, K, [rng.choice(WEDGE_POOL + (POINT,)) for _ in range(K.m)])
        elif name == "general":
            K = random_complex(rng, 4)
            pairs = PairAssignment.of([(rng.choice(DOMAIN_POOL), rng.choice(CODOMAIN_POOL)) for _ in range(K.m)])
            make = partial(loop_decompose, K, pairs)
        elif name == "contractible":
            make = partial(loop_decompose_contractible, K, path_pairs([rng.choice(CODOMAIN_POOL) for _ in range(K.m)]))
        else:
            summands = (S(1), S(2), S(3), X1, CP_INFINITY, POINT)
            make = partial(hilton_milnor, [rng.choice(summands) for _ in range(rng.randint(1, 4))])
        dec = make(W)
        more = len(make(W + 3).factors) > len(dec.factors)
        assert dec.truncation == (W if more else None), (name, K, W)
        seen[name, more] += 1
    assert len(seen) == 8 and min(seen.values()) >= 20, seen
    # 400 degree-cut listings of each preset that takes a degree bound: a
    # listing records W exactly when the same call at W + 1 lists more
    seen = Counter()
    for i in range(800):
        K = random_complex(rng, 5)
        W, D = rng.randint(1, 3 if K.m <= 4 else 2), rng.randint(2, 9)
        if i % 2:
            name, spaces = "wedge", [rng.choice(WEDGE_POOL + (POINT,)) for _ in range(K.m)]
            make = partial(loop_decompose_wedge, K, spaces)
        else:
            name, spaces = "hilton-milnor", [rng.choice((S(1), S(2), S(3), X1, CP_INFINITY, POINT))
                                             for _ in range(rng.randint(1, 4))]
            make = partial(hilton_milnor, spaces)
        dec = make(W, degree_bound=D)
        more = len(make(W + 1, degree_bound=D).factors) > len(dec.factors)
        assert dec.truncation == (W if more else None), (name, K, spaces, W, D)
        seen[name, more] += 1
    assert len(seen) == 4 and min(seen.values()) >= 20, seen


def test_contractible_two_points_cojoin():
    dec = loop_decompose_contractible(two_points(), path_pairs([A1, A2]), 1)
    assert len(dec.factors) == 1
    f = dec.factors[0]
    assert f.expr == Loop(Susp(Smash((Loop(A1), Loop(A2)))), 2)
    # structurally equal to looping the special-case evaluation
    special = evaluate_special(two_points(), path_pairs([A1, A2]))
    assert normalize(f.expr) == normalize(Loop(special))


def test_contractible_missing_face_filter():
    K = build(3, [[1, 2], [1, 3], [2, 3]])
    dec = loop_decompose_contractible(K, path_pairs([A1, A2, Atom("A3", 1)]), 3)
    assert len(dec.factors) > 0
    for f in dec.factors:
        assert f.provenance.support == (1, 2, 3)


def test_contractible_rejects_solid_domain():
    # every domain is tested for contractibility before any codomain's connectivity
    for pairs, message in [
        ([(X1, A1), (POINT, A2)], "vertex 1"),
        ([(POINT, S(1)), (S(3), S(2))], "^vertex 2: domain S\\^3 is not contractible$"),
    ]:
        with pytest.raises(ValueError, match=message):
            loop_decompose_contractible(two_points(), PairAssignment.of(pairs), 1)


def test_contractible_uncertified_realization_stays_symbolic():
    # the square is not certified, so the mapping space survives unreduced
    pairs = path_pairs([A1, A2, Atom("A3", 1), Atom("A4", 1)])
    dec = loop_decompose_contractible(square(), pairs, 1)
    from polyco.spacexpr import MapFromSusp

    symbolic = [f for f in dec.factors if isinstance(f.expr, Loop)
                and isinstance(f.expr.child, MapFromSusp)]
    assert symbolic, dec.render()


# ---------------------------------------------------------------------------
# suspension splittings
# ---------------------------------------------------------------------------


def test_bbcg_wedge_splitting():
    out = bbcg_wedge_splitting(two_points(), [X1, X2])
    assert out == [((1,), Susp(X1)), ((2,), Susp(X2))]
    out = bbcg_wedge_splitting(build(2, [[1, 2]]), [X1, X2])
    assert [(f, render(e)) for f, e in out] == [
        ((1,), "ΣX1"),
        ((2,), "ΣX2"),
        ((1, 2), "Σ(X1 ∧ X2)"),
    ]


def test_bbcg_cone_splitting_moment_angle_sphere():
    out = bbcg_cone_splitting(two_points(), [S(1), S(1)])
    assert out == [((1, 2), S(3))]


def test_bbcg_cone_splitting_ghost_vertex_is_the_empty_realization():
    # K_{3} is empty, |K_{3}| = S^-1, and Σ(S^-1 ∧ S^4) is S^4 itself
    out = bbcg_cone_splitting(build(3, [[1, 2]]), [S(2), S(3), S(4)])
    assert out[0] == ((3,), S(4))


def test_bbcg_cone_splitting_keeps_an_uncertified_realization_as_an_atom():
    out = bbcg_cone_splitting(square(), [S(2)] * 4)
    I, summand = out[-1]
    assert I == (1, 2, 3, 4)
    assert summand == Susp(Smash((S(8), Atom("|K_{1,2,3,4}|", -1))))
    assert render(summand) == "Σ(S^8 ∧ |K_{1,2,3,4}|)"


def test_bbcg_cone_splitting_boundary_triangle():
    out = bbcg_cone_splitting(build(3, [[1, 2], [1, 3], [2, 3]]), [S(1)] * 3)
    # |K| = S^1, so the only summand is Susp(S^1 smash S^3) = S^5
    assert out == [((1, 2, 3), S(5))]


CLOSED_FORM_SPACES = (POINT, Atom("PX", 0, contractible=True), S(0), CP_INFINITY, Atom("L", 1, loop=S(1)),
                      S(2), X1, A2, Wedge((S(2), X1)), Smash((S(1), A1, S(2))), Product((S(2), S(3))))


def _closed_form_complex(rng, i):
    # ghost vertices, the empty complex, full simplices, boundaries of
    # simplices, the uncertified 4-cycle, the three classical shapes
    m = rng.randint(1, 5)
    kind = i % 7
    if kind == 0:
        return build(m, [])
    if kind == 1:
        return simplex(m)
    if kind == 2:
        return build(m + 1, combinations(range(1, m + 2), m))
    if kind == 3:
        return rng.choice((square(), two_points(), build(m, [[j] for j in range(1, m + 1)])))
    K = random_complex(rng, 5)
    return build(K.m + 1, K.facets) if kind == 4 else K


def test_splittings_and_closed_forms_match_their_raw_tree_references():
    from _helpers import reference_bbcg_cone_splitting, reference_bbcg_wedge_splitting, reference_evaluate_special

    rng = random.Random(44)
    seen = Counter()
    for i in range(320):
        K = _closed_form_complex(rng, i)
        spaces = [rng.choice(CLOSED_FORM_SPACES) for _ in range(K.m)]
        assert bbcg_wedge_splitting(K, spaces) == reference_bbcg_wedge_splitting(K, spaces), (K, spaces)
        cone = bbcg_cone_splitting(K, spaces)
        assert cone == reference_bbcg_cone_splitting(K, spaces), (K, spaces)
        subs = [full_subcomplex(K, I) for I, _ in cone]
        seen["uncertified"] += any(wedge_of_spheres_type(sub) is None for sub in subs)
        seen["ghost"] += any(not sub.facets for sub in subs)
        others = [rng.choice(CLOSED_FORM_SPACES) for _ in range(K.m)]
        for pairs in (const(spaces), path_pairs(spaces), PairAssignment.of(zip(spaces, others))):
            got = evaluate_special(K, pairs)
            assert got == reference_evaluate_special(K, pairs), (K, pairs)
            seen["closed form"] += got is not None
    assert seen["uncertified"] >= 10 and seen["ghost"] >= 50 and seen["closed form"] >= 200, seen


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def test_join_vertex_reduce():
    K = join(two_points(), build(1, [[1]]))
    pairs = PairAssignment.of([(X1, POINT), (X2, POINT), (POINT, Atom("Y", 1))])
    K2, pairs2 = join_vertex_reduce(K, pairs)
    assert K2 == two_points()
    assert pairs2.pairs == pairs.pairs[:2]
    # brackets touching the apex have mixed endpoint data and stay symbolic
    # in the direct decomposition; everything else agrees with the reduction
    dec_orig = loop_decompose(K, pairs, 2)
    dec_red = loop_decompose(K2, pairs2, 2)
    informative = Counter(
        f.expr
        for f in dec_orig.factors
        if "ŝ-coprod[" not in render(f.expr)
        for _ in range(f.multiplicity)
    )
    assert informative == dec_red.factor_multiset()


def test_join_vertex_reduce_point_apex_leaves_decomposition_unchanged():
    # an apex mapping * -> * drops out of the direct decomposition entirely
    K = join(two_points(), build(1, [[1]]))
    pairs = PairAssignment.of([(X1, POINT), (X2, POINT), (POINT, POINT)])
    K2, pairs2 = join_vertex_reduce(K, pairs)
    dec_orig = loop_decompose(K, pairs, 3)
    dec_red = loop_decompose(K2, pairs2, 3)
    assert dec_orig.factor_multiset() == dec_red.factor_multiset()


def test_join_vertex_reduce_validation():
    K = join(two_points(), build(1, [[1]]))
    bad_pairs = PairAssignment.of([(X1, POINT), (X2, POINT), (X3, POINT)])
    with pytest.raises(ValueError, match="vertex 3"):
        join_vertex_reduce(K, bad_pairs)
    not_cone = build(2, [[1], [2]])
    with pytest.raises(ValueError, match="apex"):
        join_vertex_reduce(not_cone, PairAssignment.of([(X1, POINT), (POINT, POINT)]))
    with pytest.raises(ValueError, match="need at least two vertices"):
        join_vertex_reduce(build(1, [[1]]), PairAssignment.of([(POINT, X1)]))


def test_join_vertex_reduce_strips_a_contractible_apex():
    # a path-fibration apex P(A) is a contractible atom, not a point
    K = join(square(), build(1, [[1]]))
    pairs = path_pairs([S(2), S(3), S(2), S(3), S(4)])
    assert pairs.domain(5) != POINT
    K2, pairs2 = join_vertex_reduce(K, pairs)
    assert K2 == square() and pairs2.pairs == pairs.pairs[:4]
    with pytest.raises(ValueError, match=r"vertex 5: domain S\^2 must be contractible"):
        join_vertex_reduce(K, PairAssignment.of([*pairs.pairs[:4], (S(2), S(4))]))


def test_pullback_square_corners():
    K1 = build(2, [[1, 2]])
    K2 = build(2, [[1, 2]])
    L = build(1, [[1]])
    pairs = PairAssignment.of([(X1, A1), (X2, A2), (X3, POINT)])
    sq = pullback_square(K1, K2, L, pairs)
    assert sq.corners["K"].facets == ((1, 2), (2, 3))
    assert sq.corners["K1"].facets == ((1, 2),)
    assert sq.corners["K2"].facets == ((2, 3),)
    assert sq.corners["L"].facets == ((2,),)
    assert len(sq.maps) == 4


def test_pullback_square_empty_overlap():
    K1 = build(1, [[1]])
    K2 = build(1, [[1]])
    pairs = PairAssignment.of([(X1, A1), (X2, A2)])
    sq = pullback_square(K1, K2, None, pairs)
    # the empty-overlap corner is the empty complex: its only diagram object
    # is the wedge of all codomains
    assert sq.corners["L"].facets == ()
    assert sq.diagrams["L"].objects[()] == Wedge((A1, A2))
    text = sq.render().splitlines()
    assert text[4] == "  corner L: Complex(m=2; facets none)"
    assert sum(" → " in line and "induced by" in line for line in text) == 4
    assert sum("diagram over" in line for line in text) == 4
    assert text[-2:] == ["wedge diagram over Complex(m=2; facets none)", "  D(∅) = A1 ∨ A2"]
    data = json.loads(json.dumps(sq.to_json()))
    assert data["corners"]["L"] == {"m": 2, "facets": []}
    assert [(d["from"], d["to"]) for d in data["maps"]] == [("K", "K1"), ("K", "K2"), ("K1", "L"), ("K2", "L")]
    assert list(data["diagrams"]) == ["K", "K1", "K2", "L"]
    assert data["diagrams"] == {name: d.to_json() for name, d in sq.diagrams.items()}


def test_disjoint_union_lists_the_component_union():
    # the wedge preset on K1 ⊔ K2 lists each component's entries, the
    # second's shifted past K1's vertices, and no group across the two
    spaces = [X1, X2, X3, Atom("X4", 1), Atom("X5", 1)]

    def entries(dec, shift=0):
        def moved(p):
            if isinstance(p, int):
                return p + shift
            return p._replace(support=tuple(j + shift for j in p.support),
                              pieces=tuple(tuple(j + shift for j in piece) for piece in p.pieces))
        return Counter((f.expr, f.multiplicity, moved(f.provenance)) for f in dec.factors)

    for K1, K2 in (
        (build(2, [[1, 2]]), build(2, [[1], [2]])),
        (build(2, [[1, 2]]), build(3, [[1, 2, 3]])),
    ):
        sp = spaces[: K1.m + K2.m]
        du = loop_decompose_wedge(disjoint_union(K1, K2), sp, 3)
        d1 = loop_decompose_wedge(K1, sp[: K1.m], 3)
        d2 = loop_decompose_wedge(K2, sp[K1.m :], 3)
        assert du.factor_multiset() == d1.factor_multiset() + d2.factor_multiset()
        assert entries(du) == entries(d1) + entries(d2, K1.m)


def test_disjoint_union_two_vertices():
    du = loop_decompose_wedge(disjoint_union(build(1, [[1]]), build(1, [[1]])), [X1, X2], 2)
    assert du.factor_multiset() == Counter({Loop(X1): 1, Loop(X2): 1})


# ---------------------------------------------------------------------------
# cross-theorem consistency
# ---------------------------------------------------------------------------


def test_delta_vs_porter_series_consistency():
    # the wedge-case decomposition at the full simplex is series-equal to
    # porter + hilton-milnor on the fiber wedge
    from polyco.verify import _desuspend

    N = 8
    spaces = [S(2), S(3), S(2)]
    dec = loop_decompose_wedge(simplex(3), spaces, N + 1, degree_bound=N)
    lhs = dec.series_product(N)

    fiber = porter_fiber(spaces)
    summands = [c for c, k in zip(fiber.children, fiber.powers) for _ in range(k)]
    hm = hilton_milnor([x for c in summands for x in _desuspend(c)], N + 1, degree_bound=N)
    rhs = PoincareSeries.one(N)
    for x in spaces:
        rhs = rhs * series_of(Loop(x), N)
    rhs = rhs * hm.series_product(N)
    assert lhs.compare(rhs) is None


def test_general_vs_wedge_theorem_agreement():
    # with constant maps the general decomposition and the wedge-specific one
    # are proved independently; their factor multisets must agree
    rng = random.Random(2718)
    for _ in range(20):
        K = random_complex(rng, 4)
        spaces = [Atom(f"X{i}", 1) for i in range(1, K.m + 1)]
        a = loop_decompose(K, const(spaces), 3)
        b = loop_decompose_wedge(K, spaces, 3)
        assert a.factor_multiset() == b.factor_multiset(), K
    # the default CLI weight bound on the 2-simplex: 119,939,427 Lyndon words
    # over its five face letters, in 2,343 classes and 106 groups, so the
    # multiset must not expand multiplicities
    a = loop_decompose(simplex(3), const([S(2)] * 3), 13)
    b = loop_decompose_wedge(simplex(3), [S(2)] * 3, 13)
    assert a.factor_multiset() == b.factor_multiset()
    classes = reference_class_counts(all_face_letters(3), 13)
    assert len(classes) == 2_343
    assert len(b.bracket_factors()) == len(regrouped(classes, [0] * 3)) == 106
    assert sum(f.multiplicity for f in b.bracket_factors()) == 119_939_427
    assert sum(b.factor_multiset().values()) == 3 + 119_939_427


def test_general_vs_contractible_theorem_agreement():
    # with contractible domains the general decomposition takes the
    # mapping-space route for every bracket; it must agree with the
    # dedicated contractible-domain operation, whose filter is the
    # missing-face test instead of normalization collapse
    rng = random.Random(3141)
    for _ in range(15):
        K = random_complex(rng, 4)
        codomains = [Atom(f"A{i}", 1) for i in range(1, K.m + 1)]
        pairs = PairAssignment.path_fibrations(codomains)
        a = loop_decompose(K, pairs, 2)
        b = loop_decompose_contractible(K, pairs, 2)
        assert a.factor_multiset() == b.factor_multiset(), K


# ---------------------------------------------------------------------------
# grouped series product
# ---------------------------------------------------------------------------


def test_series_product_matches_factor_by_factor_reference():
    N = 12
    wedge = loop_decompose_wedge(simplex(3), [S(2)] * 3, N + 1, degree_bound=N)
    union = loop_decompose_wedge(
        disjoint_union(build(2, [[1, 2]]), build(2, [[1], [2]])), [S(2), S(3), S(2), S(2)], N + 1, degree_bound=N
    )
    for dec in (wedge, union):
        assert len(dec.factor_multiset()) < sum(f.multiplicity for f in dec.factors)
        assert dec.series_product(N) == reference_series_product(dec, N)


def test_series_product_repeated_multiplicities():
    dec = Decomposition((Factor(Loop(S(3)), 3), Factor(S(2), 2), Factor(Loop(S(3)), 4)), "test")
    assert dec.series_product(10) == reference_series_product(dec, 10)


def test_factor_multiset_merges_equal_expressions_across_objects():
    # entries share one object or carry distinct objects of one expression;
    # both count towards one key, in order of first appearance
    shared, twin = Loop(S(3)), Loop(S(3))
    assert shared is not twin
    dec = Decomposition(
        (Factor(shared, 2), Factor(S(2), 1), Factor(shared, 5), Factor(twin, 3), Factor(S(2), 4)),
        "test",
    )
    got = dec.factor_multiset()
    assert got == Counter({Loop(S(3)): 10, S(2): 5})
    assert list(got) == [Loop(S(3)), S(2)]
    assert dec.series_product(12) == reference_series_product(dec, 12)


def test_series_product_unsupported_reason_names_first_factor():
    bad, worse = Atom("B", 1), Atom("C", 1)
    dec = Decomposition(
        (
            Factor(Loop(S(3)), 2, 1),
            Factor(S(2), 1, (1, 2)),
            Factor(Loop(bad), 1, 2),
            Factor(Loop(S(3)), 1, 3),
            Factor(Loop(worse), 1, 4),
            Factor(Loop(bad), 3, (2, 3)),
        ),
        "mixed",
    )
    out = dec.series_product(6)
    assert isinstance(out, Unsupported)
    assert out == reference_series_product(dec, 6)
    assert out.reason.startswith("factor ΩB [vertex 2]: ")


def seeded_presets(seed: int, count: int):
    """(label, make, N): count seeded calls of every bracket preset, each
    made afresh by make(), at a truncation N that the call's degree cut, if
    any, reaches: hilton_milnor with and without a degree cut, the wedge
    preset, the general one on mixed data with point vertices, and the
    contractible one, half of it on graphs through every vertex but a
    ghost, whose missing faces have K_S empty, points or circles."""
    rng = random.Random(seed)
    hm_pool = (S(2), S(3), S(4), X1, CP_INFINITY, Susp(S(2)), PX)
    out = []
    for i in range(count):
        kind, N = i % 5, rng.randint(2, 14)
        if kind < 2:
            spaces = [rng.choice(hm_pool) for _ in range(rng.randint(1, 4))]
            bound = N if kind else None
            W = N + 1 if kind else rng.randint(1, 4)
            out.append((f"hm {spaces} W={W}", partial(hilton_milnor, spaces, W, degree_bound=bound), N))
            continue
        K = random_complex(rng, 5)
        if kind == 2:
            spaces = [rng.choice(WEDGE_POOL) for _ in range(K.m)]
            bound = rng.choice((None, N))
            out.append((f"wedge {K} {spaces}", partial(loop_decompose_wedge, K, spaces, rng.randint(1, 3),
                                                       degree_bound=bound), N))
        elif kind == 3:
            pairs = PairAssignment.of([(rng.choice(DOMAIN_POOL), rng.choice(CODOMAIN_POOL)) for _ in range(K.m)])
            out.append((f"general {K} {pairs}", partial(loop_decompose, K, pairs, rng.randint(1, 2)), N))
        else:
            codomains = [rng.choice(CODOMAIN_POOL) for _ in range(K.m)]
            if i % 2:  # one piece, whose supports of one type have K_S of several shapes
                edges = [rng.sample(range(1, K.m + 1), 2) for _ in range(rng.randint(1, 6))] if K.m > 1 else []
                K = build(K.m + 1, [*([v] for v in range(1, K.m + 1)), *edges])  # and a ghost vertex
                codomains = [rng.choice((S(2), S(3), CP_INFINITY))] * K.m
            pairs = path_pairs(codomains)
            out.append((f"contractible {K} {pairs}", partial(loop_decompose_contractible, K, pairs,
                                                             rng.randint(1, 3)), N))
    return out


def test_series_from_groups_matches_the_listing_reference():
    # series_product sums n x L per group and kept support, from the index
    # of group logs, without listing: on every preset it equals the factor
    # by factor product of the listing, Unsupported text included, on a
    # fresh decomposition with the index empty (every group a miss) and
    # again on one from a filled index, and after the listing was read
    # first, as a traced run reads it
    kinds, unsupported = Counter(), 0
    for label, make, N in seeded_presets(6101, 320):
        _group_log.cache_clear()
        fresh = make()
        got = fresh.series_product(N)
        want = reference_series_product(fresh, N)
        assert got == want, label
        misses = _group_log.cache_info().misses
        assert make().series_product(N) == want, label
        assert _group_log.cache_info().misses == misses, label  # a repeated call builds no factor
        listed = make()
        assert listed.factors == fresh.factors
        assert listed.series_product(N) == want, label
        kinds[label.split()[0]] += 1
        unsupported += isinstance(want, Unsupported)
    assert min(kinds.values()) >= 60 and 20 <= unsupported <= 250, (kinds, unsupported)


def refusing(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return refuse


def test_a_full_simplex_series_over_point_codomains_lists_nothing(monkeypatch):
    # over point codomains on the full simplex, and for hilton_milnor, a
    # type's tally is its number of supports, prod_p C(n_p, s_p): the series
    # of a fresh decomposition takes no census and runs neither the rule nor
    # the listing's half, and equals the product of the listing, read once
    # they are back.  Spaces repeat, so a piece often has several vertices
    rng = random.Random(6211)
    supported = (S(2), S(3), CP_INFINITY, Susp(S(2)), PX, POINT)
    cases, several = [], 0
    for i in range(150):
        m, N = rng.randint(1, 6), rng.randint(2, 12)
        spaces = [rng.choice(supported[:rng.randint(2, 6)]) for _ in range(m)]
        several += len(set(spaces)) < m
        if i % 3 == 0:
            cases.append((partial(hilton_milnor, spaces, rng.choice((rng.randint(1, 4), N + 1)),
                                  degree_bound=rng.choice((None, N))), N))
        elif i % 3 == 1:
            cases.append((partial(loop_decompose_wedge, simplex(m), spaces, rng.randint(1, 3),
                                  degree_bound=rng.choice((None, N))), N))
        else:
            cases.append((partial(loop_decompose, simplex(m), const(spaces), rng.randint(1, 2)), N))
    got = []
    with monkeypatch.context() as patch:
        for name in ("_census", "_bracket_rule"):
            patch.setattr(polyco.decomp, name, refusing(name))
        for make, N in cases:
            got.append((dec := make()).series_product(N))
            assert "_kept_supports" not in vars(dec), make
    for (make, N), series in zip(cases, got):
        want = reference_series_product(make(), N)
        assert series == want and not isinstance(want, Unsupported), make
    assert several > 80, several


def test_a_face_series_off_the_simplex_takes_one_census_and_no_rule(monkeypatch):
    # off the full simplex, point codomains need the census for the types
    # that cut the counter: a fresh decomposition's series takes it once
    # and runs neither the rule nor the listing's half, and the listing
    # reads that census again, through no rule, and no second census
    rng = random.Random(6217)
    supported = (S(2), S(3), CP_INFINITY, PX, POINT)
    compared = 0
    while compared < 150:
        K = random_complex(rng, 6)
        if K.facets == (tuple(range(1, K.m + 1)),):
            continue
        N = rng.randint(2, 12)
        spaces = [rng.choice(supported) for _ in range(K.m)]
        if compared % 2:
            make = partial(loop_decompose_wedge, K, spaces, rng.randint(1, 3), degree_bound=rng.choice((None, N)))
        else:
            make = partial(loop_decompose, K, const(spaces), rng.randint(1, 2))
        taken = []
        real = polyco.decomp._census
        with monkeypatch.context() as patch:
            patch.setattr(polyco.decomp, "_census", lambda *args: taken.append(1) or real(*args))
            patch.setattr(polyco.decomp, "_bracket_rule", refusing("_bracket_rule"))
            dec = make()
            series = dec.series_product(N)
        assert taken == [1] and "_kept_supports" not in vars(dec), make
        want = make().factors
        with monkeypatch.context() as patch:
            for name in ("_census", "_bracket_rule"):
                patch.setattr(polyco.decomp, name, refusing(name))
            assert dec.factors == want
        assert series == reference_series_product(dec, N) == dec.series_product(N), make
        compared += 1


def listing_tallies(dec, grading, shape_of) -> dict:
    """Each support type's [(count, shape)] read off the listing: its
    distinct supports in order of first entry, tallied by shape_of(support)
    in order of first support."""
    pieces = max((p for p in grading if p is not None), default=-1) + 1
    supports: dict = {}
    for f in dec.bracket_factors():
        support = f.provenance.support
        s = tuple(sum(grading[j - 1] == p for j in support) for p in range(pieces))
        supports.setdefault(s, {}).setdefault(support)
    return {s: [(n, shape) for shape, n in Counter(map(shape_of, listed)).items()]
            for s, listed in supports.items()}


def test_each_tally_is_the_tally_of_the_listing_on_every_preset():
    # a preset's (count, shape) per support type against the listing it
    # expands, on seeded inputs of every preset, full simplices included;
    # and its series, Unsupported text included (X1 declares no series),
    # reads the same before the listing is read, when an Unsupported value
    # makes its first entry, and after
    rng = random.Random(6229)
    cases = [(label, make, N) for label, make, N in seeded_presets(6229, 320)]
    for i in range(80):
        m, N = rng.randint(1, 5), rng.randint(2, 12)
        spaces = [rng.choice(WEDGE_POOL) for _ in range(m)]
        cases.append((f"wedge simplex {spaces}", partial(loop_decompose_wedge, simplex(m), spaces, rng.randint(1, 3),
                                                         degree_bound=rng.choice((None, N))), N))
    kinds, unsupported = Counter(), Counter()
    for label, make, N in cases:
        dec = make()
        before = dec.series_product(N)
        *_, tallies = dec._groups
        engine, args = make.func, make.args
        if engine is hilton_milnor:
            grading, shape_of = reference_live_grading(const(args[0])), lambda support: "point"
        else:
            K, data = args[:2]
            pairs = const(data) if engine is loop_decompose_wedge else data
            grading = reference_live_grading(pairs)
            shape_of = partial(bracket_rule, K, _vertex_pieces(_normal_pairs(K, pairs)))
        assert {s: tally for s, tally in tallies.items() if tally} == listing_tallies(dec, grading, shape_of), label
        after = dec.series_product(N)
        want = reference_series_product(dec, N)
        assert before == after == want, label
        if isinstance(want, Unsupported):
            assert before.reason == after.reason == want.reason, label
            unsupported[label.split()[0]] += 1
        kinds[label.split()[0]] += 1
    assert min(kinds.values()) >= 60 and min(unsupported[k] for k in ("hm", "wedge", "general")) >= 5, (
        kinds, unsupported)


def test_the_index_keys_a_mixed_support_by_its_atom_connectivity():
    # one piece table and one support {1,2,3}, on the triangle (top 3) and
    # on three points (top 1): its weight-1 factor, the loop of an atom of
    # connectivity 0 or 2, is unsupported at N=1 on the triangle and reads
    # 1 on the points, where the first unsupported entry is over {1,2};
    # whichever call fills the index first, the other's series is its own
    pairs = PairAssignment.of([(S(3), S(2))] * 3)
    triangle, points = simplex(3), build(3, [[1], [2], [3]])
    for order in ((triangle, points), (points, triangle)):
        _group_log.cache_clear()
        for K in order:
            dec = loop_decompose(K, pairs, 1)
            assert dec.series_product(1) == reference_series_product(dec, 1), K
    assert "K_{1,2,3}" in loop_decompose(triangle, pairs, 1).series_product(1).reason
    assert "[group w=1 {1}:1 {2}:1]" in loop_decompose(points, pairs, 1).series_product(1).reason


def test_a_decomposition_pickles_and_copies_as_its_listing():
    # a preset's decomposition, its listing read or not, pickles and
    # deep-copies as the decomposition of its listing: the copy has the
    # same factors, theorem, cuts and series
    square = build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    presets = (
        partial(hilton_milnor, [S(2), S(3)], 4),
        partial(loop_decompose_wedge, build(4, [[1, 2, 3], [3, 4]]), [S(2), S(3), CP_INFINITY, S(2)], 3,
                degree_bound=12),
        partial(loop_decompose, square, PairAssignment.of([(S(3), S(2)), (S(3), A1), (S(3), POINT), (X2, S(2))]), 2),
        partial(loop_decompose_contractible, square, path_pairs([S(2), S(3), S(2), CP_INFINITY]), 3),
    )
    copies = (copy.deepcopy, lambda dec: pickle.loads(pickle.dumps(dec)))
    for make in presets:
        want = make()
        assert want.bracket_factors() and want.truncation is not None, make
        for copy_of in copies:
            for read_first in (False, True):
                dec = make()
                if read_first:
                    assert dec.factors == want.factors
                got = copy_of(dec)
                assert type(got) is Decomposition and got == want, make
                assert (got.truncation, got.degree_bound) == (want.truncation, want.degree_bound)
                assert got.series_product(8) == want.series_product(8), make


def test_each_bad_bound_is_rejected_before_any_census_step(monkeypatch):
    # the polyhedral presets check their bounds as the class counter does,
    # with its messages, before the census walks a support: on ∂Δ¹⁷, whose
    # census takes a visible fraction of a second, as on a square
    def census(*args, **kwargs):
        raise AssertionError("a census step ran before the bounds were checked")

    monkeypatch.setattr(polyco.decomp, "_census", census)
    boundary17 = build(18, [list(f) for f in combinations(range(1, 19), 17)])
    square = build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    bad = (
        (0, None, "weight_bound must be an integer >= 1, got 0"),
        (True, None, "weight_bound must be an integer >= 1, got True"),
        (2.0, None, "weight_bound must be an integer >= 1, got 2.0"),
        (2, "5", "degree_bound must be an integer, got '5'"),
        (2, 5.0, "degree_bound must be an integer, got 5.0"),
        (2, False, "degree_bound must be an integer, got False"),
    )
    for W, cut, message in bad:
        calls = [partial(loop_decompose_wedge, boundary17, [S(3)] * 18, W, degree_bound=cut),
                 partial(loop_decompose_wedge, square, [S(2)] * 4, W, degree_bound=cut),
                 partial(hilton_milnor, [S(2), S(3)], W, degree_bound=cut)]
        if cut is None:
            calls += [partial(loop_decompose, square, const([S(2)] * 4), W),
                      partial(loop_decompose_contractible, square, path_pairs([S(2)] * 4), W)]
        for call in calls:
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message, (call, W, cut)


# ---------------------------------------------------------------------------
# counted classes against the enumerated brackets they replace
# ---------------------------------------------------------------------------

PX = Atom("PX", 0, contractible=True)
WEDGE_POOL = (S(2), S(3), X1, CP_INFINITY, PX)
DOMAIN_POOL = (S(3), X2, CP_INFINITY, POINT, PX)
CODOMAIN_POOL = (S(2), A1, CP_INFINITY, POINT)


def group_listing(dec, m, grading):
    """{((weight, support, piece content), expr): brackets} for bracket
    factors, whether listed per group or per enumerated bracket, and
    {(vertex, expr): 1} otherwise."""
    out = Counter()
    for f in dec.factors:
        p = f.provenance
        if isinstance(p, BracketGroup):
            out[(group_key(p, grading), f.expr)] += f.multiplicity
        elif isinstance(p, Bracket):
            if p.leaves()[0].subset is None:
                l = multidegree(p, plain_alphabet(m))
            else:
                l = stats(p, m).l
            out[(group_of(p.weight, l, grading), f.expr)] += f.multiplicity
        else:
            out[(p, f.expr)] += f.multiplicity
    return out


def assert_counted_matches(counted, enumerated, m, grading):
    assert counted.factor_multiset() == enumerated.factor_multiset()
    assert group_listing(counted, m, grading) == group_listing(enumerated, m, grading)
    assert (counted.theorem, counted.truncation) == (enumerated.theorem, enumerated.truncation)
    keys = [listing_order(group_key(f.provenance, grading), grading) for f in counted.bracket_factors()]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def affordable_weight(letters, cap=5, budget=5000):
    # the largest W <= cap whose enumerated basis stays small
    W = 1
    while W < cap and letters ** (W + 1) <= budget:
        W += 1
    return W


def test_counted_wedge_matches_enumerated():
    rng = random.Random(5051)
    for _ in range(40):
        K = random_complex(rng, 4)
        spaces = [rng.choice(WEDGE_POOL) for _ in range(K.m)]
        biggest = max((len(f) for f in K.facets), default=0)
        W = affordable_weight(max(1, (biggest - 2) * 2 ** (biggest - 1) + 1))
        bound = rng.choice((None, 3, 6, 9))
        counted = loop_decompose_wedge(K, spaces, W, degree_bound=bound)
        enumerated = enumerated_wedge(K, spaces, W, degree_bound=bound)
        grading = reference_grading(PairAssignment.constant_maps(spaces))
        assert_counted_matches(counted, enumerated, K.m, grading)


def test_counted_general_matches_enumerated():
    rng = random.Random(5059)
    for _ in range(30):
        K = random_complex(rng, 4)
        pairs = PairAssignment.of(
            [(rng.choice(DOMAIN_POOL), rng.choice(CODOMAIN_POOL)) for _ in range(K.m)]
        )
        W = affordable_weight(max(1, (K.m - 2) * 2 ** (K.m - 1) + 1))
        assert_counted_matches(
            loop_decompose(K, pairs, W), enumerated_general(K, pairs, W), K.m, reference_grading(pairs)
        )


def test_counted_contractible_matches_enumerated():
    # every other complex is a graph through every vertex, whose missing
    # faces have K_S two or three points or a circle, not only the empty
    # K_S of a support through a ghost vertex; the tally counts the K_S
    # types the listings reached
    rng = random.Random(5077)
    reached = Counter()
    for trial in range(40):
        K = random_complex(rng, 4)
        W = affordable_weight(max(1, (K.m - 2) * 2 ** (K.m - 1) + 1))
        if trial % 2:
            m = rng.randint(3, 4)
            edges = [rng.sample(range(1, m + 1), 2) for _ in range(rng.randint(2, 5))]
            K, W = build(m, [*([v] for v in range(1, m + 1)), *edges]), 2
        pairs = path_pairs([rng.choice(CODOMAIN_POOL) for _ in range(K.m)])
        counted = loop_decompose_contractible(K, pairs, W)
        assert_counted_matches(counted, enumerated_contractible(K, pairs, W), K.m, reference_grading(pairs))
        for f in counted.bracket_factors():
            reached[wedge_of_spheres_type(full_subcomplex(K, f.provenance.support))] += 1
    assert reached[(-1,)] >= 100 and reached[(0,)] >= 40 and reached[(1,)] >= 10, reached
    assert reached[(0, 0)] >= 10 and reached[None] >= 5, reached


def test_counted_hilton_milnor_matches_enumerated():
    rng = random.Random(5081)
    # ΣS^2 and S^3 are one summand after normalization
    pool = (S(2), S(3), S(4), X1, CP_INFINITY, Susp(S(2)))
    for _ in range(30):
        m = rng.randint(1, 4)
        spaces = [rng.choice(pool) for _ in range(m)]
        W = affordable_weight(m)
        bound = rng.choice((None, 4, 7, 10))
        counted = hilton_milnor(spaces, W, degree_bound=bound)
        enumerated = enumerated_hilton_milnor(spaces, W, degree_bound=bound)
        grading = summand_grading(spaces)
        assert_counted_matches(counted, enumerated, m, grading)


def test_presets_reject_float_and_bool_bounds():
    # the decompositions pass their bounds to the counter, which names them
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="weight_bound"):
            loop_decompose_wedge(simplex(3), [S(2)] * 3, bad)
        with pytest.raises(ValueError, match="weight_bound"):
            hilton_milnor([S(2), S(3)], bad)
        with pytest.raises(ValueError, match="weight_bound"):
            loop_decompose(two_points(), const([X1, X2]), bad)
    for bad in (4.5, True):
        with pytest.raises(ValueError, match="degree_bound"):
            loop_decompose_wedge(simplex(3), [S(2)] * 3, 3, degree_bound=bad)
        with pytest.raises(ValueError, match="degree_bound"):
            hilton_milnor([S(2), S(3)], 3, degree_bound=bad)


def recorded_census(monkeypatch):
    """Records each census the engine takes, as (grading, degrees, degree
    bound, most, census), in call order."""
    calls = []
    real = polyco.decomp._census

    def recording(facets, grading, degrees, degree_bound, rule=None, most=math.inf):
        census = real(facets, grading, degrees, degree_bound, rule, most)
        calls.append((grading, degrees, degree_bound, most, census))
        return census

    monkeypatch.setattr(polyco.decomp, "_census", recording)
    return calls


def listed_supports(census):
    # a census's supports, whose entries are bare faces or (support, shape)
    return {entry[0] if entry and type(entry[0]) is tuple else entry
            for entries in census.values() for entry in entries}


def bracket_rule(K, pieces, support):
    """The engine's rule on one support of K, over the piece table pieces
    (_vertex_pieces), its mask and face verdict read as the census reads
    them."""
    *_, to_point, from_point = pieces
    return _bracket_rule(K, to_point, from_point, support, sum(1 << j for j in support), K.has_face(support))


def test_contractible_rule_over_a_face_is_a_point(monkeypatch):
    # over a face the mapping space is out of a suspended simplex: the
    # per-l reference sends it to a point, and the census lists no face
    # for contractible domains, so none reaches the rule
    calls = recorded_census(monkeypatch)
    rng = random.Random(5087)
    faces = 0
    for _ in range(20):
        K = random_complex(rng, 5, allow_empty=False)
        pairs = path_pairs([rng.choice((S(2), A1, CP_INFINITY)) for _ in range(K.m)])
        loop_decompose_contractible(K, pairs, 1)
        listed = listed_supports(calls.pop()[-1])
        for face in K.faces():
            if len(face) < 2:
                continue
            l = tuple(rng.randint(1, 3) if j in face else 0 for j in range(1, K.m + 1))
            assert reference_bracket_factor(K, pairs, face, l) == POINT, (K, face)
            assert face not in listed, (K, face)
            faces += 1
    assert faces > 50, faces


def test_bracket_rule_matches_the_reference(monkeypatch):
    # the census and the rule together, on every support: a support the
    # census omits has the per-l reference factor POINT, and resolving a
    # listed support once gives the factor the per-l rule gives, built from
    # the piece content of l, for several contents on it; one (shape, piece
    # content) never stands for two factors, across all supports of a complex.
    # The listing is read first: over point codomains on the full simplex
    # only the listing takes the census
    calls = recorded_census(monkeypatch)
    rng = random.Random(5089)
    compared = omitted = 0
    for _ in range(40):
        K = random_complex(rng, 5)
        pairs = PairAssignment.of(
            [(rng.choice(DOMAIN_POOL), rng.choice(CODOMAIN_POOL)) for _ in range(K.m)]
        )
        loop_decompose(K, pairs, 1).factors
        listed = listed_supports(calls.pop()[-1])
        pieces = _vertex_pieces(_normal_pairs(K, pairs))
        grading = pieces[0]
        assert grading == reference_live_grading(pairs)
        keyed = {}
        for k in range(2, K.m + 1):
            for support in combinations(range(1, K.m + 1), k):
                resolved = bracket_rule(K, pieces, support) if support in listed else None
                for _ in range(3):
                    l = tuple(rng.randint(1, 4) if j in support else 0 for j in range(1, K.m + 1))
                    want = reference_bracket_factor(K, pairs, support, l)
                    compared += 1
                    if support not in listed:
                        omitted += 1
                        assert want == POINT, (K, pairs, l)
                        continue
                    q = [0] * len(pieces[1])  # a listed support's vertices all have a piece
                    for j in support:
                        q[grading[j - 1]] += l[j - 1]
                    q = tuple(q)
                    got = POINT if resolved is None else _bracket_factor(pieces[4], resolved, q, {})
                    assert got == want, (K, pairs, l)
                    if resolved is not None:
                        assert keyed.setdefault((resolved, q), want) == want, (K, pairs, l)
    assert compared > 1000 and 100 < omitted < compared - 100, (compared, omitted)


def test_mixed_point_codomains_list_no_mapping_space_into_a_point():
    # on the 4-cycle with path fibrations over S^2, S^2, S^2 and a point, the
    # supports through the point vertex give Map_*(Σ|K_S|, *), which is a point
    square = build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    pairs = PairAssignment.path_fibrations([S(2), S(2), S(2), POINT])
    dec = loop_decompose_contractible(square, pairs, 4)
    assert [(render(f.expr), f.provenance) for f in dec.factors] == [
        ("Ω^2Σ(ΩS^2^∧2)", BracketGroup(1, (1, 3), ((1, 3),), (2,)))
    ]


def test_point_codomains_drop_a_non_face_support_with_contractible_domains(monkeypatch):
    # on the 4-cycle with contractible domains and point codomains every
    # bracket factor is a mapping space into a point: no preset lists one
    square = build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    pairs = PairAssignment.of([(PX, POINT)] * 4)
    assert reference_bracket_factor(square, pairs, (1, 2, 3, 4), (1, 1, 1, 1)) == POINT
    calls = recorded_census(monkeypatch)
    for dec in (
        loop_decompose(square, pairs, 5),
        loop_decompose_contractible(square, pairs, 5),
        loop_decompose_wedge(square, [PX] * 4, 5),
    ):
        assert dec.factors == ()
        assert dec.series_product(6) == PoincareSeries.one(6)
    # every vertex's surviving space is a point: the census lists only the empty support
    assert [census for *_, census in calls] == [{(): [()]}] * 3


def test_mixed_atom_connectivity_reads_dim_off_the_facets():
    # each mixed atom's connectivity is max(0, Σq − (dim K_S + 1)) with K_S
    # built as the full subcomplex, on seeded complexes with ghost vertices
    rng = random.Random(6131)
    atoms = ghosts = 0
    for _ in range(100):
        K = random_complex(rng, 5)
        pairs = PairAssignment.of([(S(3), S(2))] + [
            (rng.choice(PARITY_DOMAINS), rng.choice(PARITY_CODOMAINS)) for _ in range(K.m - 1)])
        for f in loop_decompose(K, pairs, rng.randint(1, 3)).bracket_factors():
            atom = f.expr.child if isinstance(f.expr, Loop) else None
            if isinstance(atom, Atom) and atom.name.startswith("ŝ-coprod"):
                support, l = f.provenance.support, f.provenance.counts
                assert atom.connectivity == max(0, sum(l) - (full_subcomplex(K, support).dim() + 1))
                atoms += 1
                ghosts += len(set(support) - set(K.vertices())) > 0
    assert atoms > 5000 and ghosts > 1000, (atoms, ghosts)


def certificate_reads(monkeypatch) -> Counter:
    """The K_S that the bracket rule asks wedge_of_spheres_type for, counted
    by call, from an emptied certificate memo, whose misses then count the
    certificates read."""
    calls = Counter()

    def certifying(sub):
        calls[sub] += 1
        return wedge_of_spheres_type(sub)

    monkeypatch.setattr(polyco.decomp, "wedge_of_spheres_type", certifying)
    wedge_of_spheres_type.cache_clear()
    return calls


def test_full_subcomplex_built_once_per_support(monkeypatch):
    # the lemma tests and the full subcomplex are per support, not per l:
    # only the missing faces are listed for contractible domains, so each
    # is read off the facet bitmasks once (_full_sub) and no face reaches
    # the builder, and each distinct K_S is one certificate read (a miss
    # of wedge_of_spheres_type's memo), shared by the factors of every
    # support with that K_S.  In mixed data only a missing face whose domains are all
    # contractible is built: a mixed atom reads dim K_S off the facets, and
    # no face is built
    built = Counter()
    builder = polyco.decomp._full_sub

    def building(index, g):
        built[g] += 1
        return builder(index, g)

    monkeypatch.setattr(polyco.decomp, "_full_sub", building)
    certified = certificate_reads(monkeypatch)
    boundary = build(4, [list(f) for f in combinations(range(1, 5), 3)])
    dec = loop_decompose_contractible(boundary, path_pairs([S(2)] * 4), 8)
    assert {f.provenance.support for f in dec.bracket_factors()} == {(1, 2, 3, 4)}
    assert built == {0b11110: 1}  # the one missing face, where every support of 2+ vertices made 11
    assert certified == {full_subcomplex(boundary, (1, 2, 3, 4)): 1}
    assert wedge_of_spheres_type.cache_info().misses == 1
    # the pentagon: its five diagonals have one K_S (two points), and its
    # 21 missing faces 12 K_S, the pentagon itself uncertified; the
    # certificate memo reads each K_S once
    built.clear()
    certified = certificate_reads(monkeypatch)
    pentagon = build(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
    dec = loop_decompose_contractible(pentagon, path_pairs([S(2)] * 5), 3)
    missing = {sum(1 << j for j in S) for k in (2, 3, 4, 5) for S in combinations(range(1, 6), k)
               if not pentagon.has_face(S)}
    assert set(built.values()) == {1} and set(built) == missing and len(built) == 21
    distinct = {reference_full_subcomplex(pentagon, S) for k in (2, 3, 4, 5) for S in combinations(range(1, 6), k)
                if not pentagon.has_face(S)}
    assert sum(certified.values()) == 21 and set(certified) == distinct and len(distinct) == 12
    assert wedge_of_spheres_type.cache_info().misses == 12
    by_total = {}
    for f in dec.bracket_factors():
        by_total.setdefault((len(f.provenance.support), sum(f.provenance.counts)), set()).add(id(f.expr))
    assert len(by_total[2, 2]) == 1  # the five diagonals' weight-2 groups, one factor
    subs = {id(e.child.complex) for f in dec.bracket_factors() if isinstance(e := f.expr, Loop)
            and isinstance(e.child, MapFromSusp)}
    assert len(subs) == 1  # the uncertified pentagon, one object for every content
    built.clear()
    pairs = PairAssignment.of([(S(3), S(2)), (PX, A1), (X2, POINT), (PX, CP_INFINITY)])
    dec = loop_decompose(boundary, pairs, 5)
    mixed = {f.provenance.support for f in dec.bracket_factors() if render(f.expr).startswith("Ωŝ-coprod")}
    assert mixed and not built  # {2, 4}, the one support with contractible domains, is a face
    square = build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    pairs = PairAssignment.of([(PX, A1), (S(3), S(2)), (PX, CP_INFINITY), (X2, POINT)])
    dec = loop_decompose(square, pairs, 5)
    mixed = {f.provenance.support for f in dec.bracket_factors() if render(f.expr).startswith("Ωŝ-coprod")}
    assert mixed and built == {0b1010: 1}  # the diagonal {1, 3}
    assert not {sum(1 << j for j in support) for support in mixed} & set(built)


def test_the_rule_reads_each_full_subcomplex_like_the_face_enumerating_reference(monkeypatch):
    # the bitmask builder behind the rule and full_subcomplex gives the face
    # verdict of has_face and the K_S of the face-enumerating reference on
    # every support; the rule resolves each missing face by the dims of the
    # face-enumerating certificate reference, and the certificate memo
    # misses once per distinct K_S
    rng = random.Random(3531)
    certified = certificate_reads(monkeypatch)
    reference_dims = {}
    ghosts = calls = 0
    for _ in range(300):
        K = random_complex(rng, 7)
        index, faces = _index(K), set(K.faces())
        pieces = _vertex_pieces(_normal_pairs(K, path_pairs([S(2)] * K.m)))
        for k in range(1, K.m + 1):
            for support in combinations(range(1, K.m + 1), k):
                sub = _full_sub(index, sum(1 << j for j in support))
                want = reference_full_subcomplex(K, support)
                assert (sub is None) == K.has_face(support) == (support in faces), (K, support)
                assert full_subcomplex(K, support) == want, (K, support)
                if sub is None:
                    assert want.facets == (tuple(range(1, k + 1)),), (K, support)
                    continue
                assert sub == want, (K, support)
                if (dims := reference_dims.get(want, 0)) == 0:
                    dims = reference_dims[want] = reference_wedge_of_spheres_type(want)
                resolved = bracket_rule(K, pieces, support)
                assert resolved is None if dims == () else resolved == (want if dims is None else dims)
                calls += 1
        ghosts += len(K.vertices()) < K.m
    assert set(certified) == set(reference_dims) and sum(certified.values()) == calls
    assert wedge_of_spheres_type.cache_info().misses == len(reference_dims)
    assert ghosts > 80 and len(reference_dims) > 300 and calls > 3 * len(reference_dims), (
        ghosts, len(reference_dims), calls)


def _dims_shape(dims) -> str:
    if dims is None or len(dims) < 2:
        return {None: "uncertified", (): "contractible", (-1,): "empty"}.get(dims, "one sphere")
    return "equal spheres" if len(set(dims)) == 1 else "mixed spheres"


def test_factors_assembled_from_dims_match_the_certificate_path(monkeypatch):
    # the rule builds a certified factor from the dims it read: on every
    # support with contractible domains that the census lists, it equals
    # the factor through _map_from_susp on the reference K_S, which reads
    # the certificate again, and (certified) the product plan that a lone
    # sphere skips, on contractible and general pairs, for dims of every
    # shape; a support that the census omits (a face, one through a vertex
    # whose surviving space is a point, or one that the rule drops, which
    # has dims ()) has the per-l reference factor POINT
    calls = recorded_census(monkeypatch)
    rng = random.Random(3533)
    shapes, seen = Counter(), Counter()
    hollow_and_points = build(6, [[1, 2], [2, 3], [1, 3], [4], [5]])  # S^0 v S^0 v S^1 on {1..5}
    for trial in range(160):
        # sparse complexes of edges, triangles and points, often with ghosts
        m = rng.randint(2, 6)
        K = hollow_and_points if trial < 2 else build(
            m, [rng.sample(range(1, m + 1), min(m, rng.choice((1, 2, 2, 3)))) for _ in range(rng.randint(0, m + 1))])
        if trial % 2:
            pairs = path_pairs([rng.choice((S(2), A1, CP_INFINITY)) for _ in range(K.m)])
        else:
            pairs = PairAssignment.of([(rng.choice((PX, PX, S(3))), rng.choice(CODOMAIN_POOL)) for _ in range(K.m)])
        loop_decompose(K, pairs, 1)
        listed = listed_supports(calls.pop()[-1])
        normal = _normal_pairs(K, pairs)
        pieces = _vertex_pieces(normal)
        grading, spaces, _, _, smash, *_ = pieces
        for k in range(1, K.m + 1):
            for support in combinations(range(1, K.m + 1), k):
                on = [normal[j - 1] for j in support]
                if not all(isinstance(x, Point) for x, _ in on) or all(isinstance(a, Point) for _, a in on):
                    continue
                sub = reference_full_subcomplex(K, support)
                dims = reference_wedge_of_spheres_type(sub)
                shapes[_dims_shape(dims)] += 1
                if support not in listed:
                    through_point = None in [grading[j - 1] for j in support]
                    kind = "face" if K.has_face(support) else "point vertex" if through_point else "contractible"
                    seen[kind] += 1
                    l = tuple(rng.randint(1, 2) if j in support else 0 for j in range(1, K.m + 1))
                    assert reference_bracket_factor(K, pairs, support, l) == POINT, (K, support)
                    assert kind != "contractible" or dims == (), (K, support)
                    continue
                resolved = bracket_rule(K, pieces, support)
                used = sorted({grading[j - 1] for j in support})
                for _ in range(2):
                    q = tuple(rng.randint(1, 2) if p in used else 0 for p in range(len(spaces)))
                    c = _susp(smash(q))
                    want = _loop(_map_from_susp(sub, c), 1)
                    got = _bracket_factor(smash, resolved, q, {})
                    assert got == want, (K, support, q)
                    if dims is not None:
                        loops = [c if d < 0 else _loop(c, d + 1) for d in dims]
                        assert got == _loop(_plan(Product, loops)([1] * len(loops)), 1), (K, support, q)
    assert len(shapes) == 6 and min(shapes.values()) >= 5, shapes
    assert len(seen) == 3 and min(seen.values()) >= 5, seen


# ---------------------------------------------------------------------------
# the factor memo: one build per key, against the listing that builds per l
# ---------------------------------------------------------------------------

X_PLAIN = Atom("X", 1)
X_SERIES = Atom("X", 1, series=((1,), (1, 0, -1)))
X_LOOP = Atom("X", 1, loop=S(1))
# the full subcomplexes on {1,2,3,4} and {1,2,3,4,5} are both uncertified
SQUARE_AND_APEX = build(5, [[1, 2], [2, 3], [3, 4], [1, 4], [1, 5], [3, 5]])
UNCERTIFIED = (
    build(4, [[1, 2], [2, 3], [3, 4], [1, 4]]),
    SQUARE_AND_APEX,
    build(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]),
)
MEMO_DOMAINS = (S(3), CP_INFINITY, POINT, PX, X_PLAIN, X_SERIES, X_LOOP)
MEMO_CODOMAINS = (S(2), S(3), CP_INFINITY, POINT, X_PLAIN, X_SERIES, X_LOOP)
MEMO_SPACES = (S(2), S(3), CP_INFINITY, PX, X_PLAIN, X_SERIES, X_LOOP)


def face_letters(faces, m):
    return [(tuple(int(j in J) for j in range(1, m + 1)), len(J) - 1) for J in faces if len(J) >= 2]


def bottom_degrees(spaces, offset):
    return [1 if conn(x) == math.inf else max(1, int(conn(x)) + offset) for x in spaces]


def per_group_references(K, pairs, spaces, hm_spaces, W, bound, only=None):
    """The four engines' group listings (or the one named only) with every
    class's factor built afresh, each with its number of classes per listed
    group."""
    everything = list(combinations(range(1, K.m + 1), k) for k in range(2, K.m + 1))
    all_letters = face_letters([J for js in everything for J in js], K.m)
    contractible = PairAssignment.path_fibrations([a for _, a in pairs.pairs])
    constant = PairAssignment.constant_maps(spaces)
    by_vertex = dict(enumerate(hm_spaces, start=1))

    def hm_factor(support, l):
        return normalize(Loop(Susp(_loop_smash_of_loops(by_vertex, l, looped=False))))

    n = len(hm_spaces)

    listings = {
        "general": lambda: per_group_listing(
            all_letters, W, partial(reference_bracket_factor, K, pairs), _base_factors(K, _normal_pairs(K, pairs)),
            "general-coproduct", reference_grading(pairs),
        ),
        "contractible": lambda: per_group_listing(
            all_letters, W, partial(reference_bracket_factor, K, contractible),
            _base_factors(K, _normal_pairs(K, contractible)), "contractible-domains",
            reference_grading(contractible),
        ),
        "wedge": lambda: per_group_listing(
            face_letters(frozenset(K.faces()), K.m), W,
            partial(reference_bracket_factor, K, constant), _base_factors(K, _normal_pairs(K, constant)),
            "wedge-coproduct", reference_grading(constant),
            bottom_degrees(spaces, 0) if bound is not None else None, bound,
        ),
        "hilton-milnor": lambda: per_group_listing(
            [(tuple(int(j == i) for j in range(n)), 1) for i in range(n)], W,
            hm_factor,
            [], "hilton-milnor", summand_grading(hm_spaces),
            bottom_degrees(hm_spaces, 1) if bound is not None else None, bound,
        ),
    }
    return {name: make() for name, make in listings.items() if only in (None, name)}


def test_factor_memo_matches_the_per_l_reference():
    # byte-identical text and JSON against the per-class listing regrouped by
    # (weight, support, piece content), on repeated vertex spaces, same-named
    # atoms and complexes with uncertified full subcomplexes; in the reduced
    # branches the memo must be doing work, with fewer objects than contents
    rng = random.Random(5101)
    objects = contents = 0
    for i in range(60):
        K = UNCERTIFIED[i % 3] if i % 3 == 0 else random_complex(rng, 5)
        W = rng.randint(1, {1: 5, 2: 5, 3: 5, 4: 3, 5: 2}[K.m])
        bound = rng.choice((None, 5, 8))
        domains, codomains = rng.sample(MEMO_DOMAINS, 2), rng.sample(MEMO_CODOMAINS, 2)
        pairs = PairAssignment.of(
            [(rng.choice(domains), rng.choice(codomains)) for _ in range(K.m)]
        )
        hm_pool = (S(2), X_PLAIN, X_SERIES, X_LOOP)
        hm_spaces = [rng.choice(hm_pool) for _ in range(rng.randint(1, 4))]
        wedge_spaces = [rng.choice(MEMO_SPACES) for _ in range(K.m)]
        refs = per_group_references(K, pairs, wedge_spaces, hm_spaces, W, bound)
        got = {
            "general": loop_decompose(K, pairs, W),
            "contractible": loop_decompose_contractible(
                K, PairAssignment.path_fibrations([a for _, a in pairs.pairs]), W
            ),
            "wedge": loop_decompose_wedge(K, wedge_spaces, W, degree_bound=bound),
            "hilton-milnor": hilton_milnor(hm_spaces, W, degree_bound=bound),
        }
        for name, dec in got.items():
            ref, classes = refs[name]
            assert dec.render() == ref.render(), (name, K, pairs)
            assert json.dumps(dec.to_json()) == json.dumps(ref.to_json()), (name, K)
            assert dec.factor_multiset() == ref.factor_multiset()
            if name in ("contractible", "wedge"):
                brackets = dec.bracket_factors()
                objects += len({id(f.expr) for f in brackets})
                contents += sum(classes.values())
    assert objects < contents / 2, (objects, contents)


GROUP_POOL = (S(2), S(3), CP_INFINITY, X_PLAIN, X_SERIES)


def test_grouped_listing_matches_the_regrouped_reference():
    # 200 seeded decompositions on m <= 6 vertices, each against the
    # per-class listing regrouped by (weight, support, piece content): a
    # few vertex spaces drawn with repeats (so pieces of several vertices
    # and one piece per vertex both occur), mixed pairs in the general
    # preset, with and without degree bounds
    rng = random.Random(5107)
    seen = Counter()
    for _ in range(200):
        K = random_complex(rng, 6)
        W = {1: 5, 2: 5, 3: 4, 4: 3, 5: 2, 6: 2}[K.m]
        pool = rng.sample(GROUP_POOL, rng.randint(1, 3))
        spaces = [rng.choice(pool) for _ in range(K.m)]
        bound = rng.choice((None, 5, 8, 12))
        name = rng.choice(("general", "contractible", "wedge", "hilton-milnor"))
        if name == "general":
            # mixed pairs, or constant maps or path fibrations over the pool
            pairs = rng.choice((
                PairAssignment.of(
                    [(rng.choice(DOMAIN_POOL), rng.choice(CODOMAIN_POOL)) for _ in range(K.m)]
                ),
                const(spaces),
                path_pairs(spaces),
            ))
            dec = loop_decompose(K, pairs, W)
        elif name == "contractible":
            pairs = path_pairs(spaces)
            dec = loop_decompose_contractible(K, pairs, W)
        elif name == "wedge":
            pairs = const(spaces)
            dec = loop_decompose_wedge(K, spaces, W, degree_bound=bound)
        else:
            pairs = const(spaces)
            dec = hilton_milnor(spaces, W, degree_bound=bound)
        ref, _ = per_group_references(K, pairs, spaces, spaces, W, bound, name)[name]
        assert dec.render() == ref.render(), (name, K, pairs, W, bound)
        assert dec.factor_multiset() == ref.factor_multiset()
        assert dec.series_product(6) == ref.series_product(6)
        grading = summand_grading(spaces) if name == "hilton-milnor" else reference_grading(pairs)
        seen[name, "coarse" if len(set(grading)) < K.m else "per vertex"] += 1
        seen["bounded"] += bound is not None and name in ("wedge", "hilton-milnor")
    assert len(seen) == 9 and min(seen.values()) >= 5, seen


def test_different_uncertified_subcomplexes_do_not_share_a_factor():
    # {1,2,3,4} and {1,2,3,4,5} carry different uncertified subcomplexes:
    # equal letter counts there must still give two factors, while
    # {1,2,3,5}, another square, shares the factors of {1,2,3,4}
    K = SQUARE_AND_APEX
    for support in ((1, 2, 3, 4), (1, 2, 3, 4, 5)):
        assert wedge_of_spheres_type(full_subcomplex(K, support)) is None
    dec = loop_decompose_contractible(K, path_pairs([S(2)] * 5), 3)
    by_total = {}
    for f in dec.bracket_factors():
        total = sum(f.provenance.counts)
        by_total.setdefault((f.provenance.support, total), set()).add(id(f.expr))
    both = [t for s, t in by_total if s == (1, 2, 3, 4) and ((1, 2, 3, 4, 5), t) in by_total]
    assert both
    for t in both:
        assert not by_total[((1, 2, 3, 4), t)] & by_total[((1, 2, 3, 4, 5), t)]
        if ((1, 2, 3, 5), t) in by_total:
            assert by_total[((1, 2, 3, 5), t)] == by_total[((1, 2, 3, 4), t)]


def count_builds(monkeypatch):
    """Counts each (shape, piece content) key's builds through a wrapper
    around the factor maker; a build that gives a point is counted under
    the key "point"."""
    builds = Counter()
    make = polyco.decomp._bracket_factor

    def counted(smash, shape, q, suspended):
        builds[(shape, q)] += 1
        expr = make(smash, shape, q, suspended)
        builds["point"] += isinstance(expr, Point)
        return expr

    monkeypatch.setattr(polyco.decomp, "_bracket_factor", counted)
    return builds


def listed_contents(dec, m, W, grading):
    """The vertex contents l of the face-alphabet classes in dec's groups."""
    listed = {group_key(f.provenance, grading) for f in dec.bracket_factors()}
    classes = reference_class_counts(all_face_letters(m), W)
    return {l for w, l in classes if group_of(w, l, grading) in listed}


def test_contractible_factor_built_once_per_key(monkeypatch):
    builds = count_builds(monkeypatch)
    boundary3 = build(4, [list(f) for f in combinations(range(1, 5), 3)])
    dec = loop_decompose_contractible(boundary3, path_pairs([S(2)] * 4), 8)
    brackets = dec.bracket_factors()
    assert builds.pop("point", 0) == 0
    assert set(builds.values()) == {1}
    assert len(builds) == len({id(f.expr) for f in brackets}) == len({f.expr for f in brackets})
    assert len(listed_contents(dec, 4, 8, [0] * 4)) > 20 * len(builds)
    builds.clear()
    # ∂Δ⁶ at W=2: 128 contents, so building per l takes 128 builds
    boundary6 = build(7, [list(f) for f in combinations(range(1, 8), 6)])
    dec = loop_decompose_contractible(boundary6, path_pairs([S(2)] * 4 + [S(3)] * 3), 2)
    brackets = dec.bracket_factors()
    assert len(listed_contents(dec, 7, 2, [0] * 4 + [1] * 3)) == 128
    assert builds.pop("point", 0) == 0
    assert set(builds.values()) == {1} and sum(builds.values()) <= 30
    assert len({id(f.expr) for f in brackets}) == len({f.expr for f in brackets})


def as_pairs(engine, K, data):
    """The (complex, pairs) whose reference census the engine takes: the
    wedge preset's spaces as constant maps, hilton_milnor's summands as
    constant maps on the simplex."""
    if engine is hilton_milnor:
        return simplex(len(data)), const(data)
    return K, const(data) if engine is loop_decompose_wedge else data


def census_listings(monkeypatch, cases):
    """The text and sorted JSON of each (engine, K, data, W, degree bound)
    listing, then of the same listing with the census taken from
    reference_census, filtered through reference_rule when the engine
    classifies its supports by its rule."""
    def listings():
        out = []
        for engine, K, data, W, cut in cases:
            current[:] = as_pairs(engine, K, data)
            args = (data, W) if engine is hilton_milnor else (K, data, W)
            dec = engine(*args) if cut is None else engine(*args, degree_bound=cut)
            out.append((dec.render(), json.dumps(dec.to_json(), sort_keys=True)))
        return out

    def reference(facets, grading, degrees, degree_bound, rule=None, most=None):
        if rule is None:
            return reference_census(*current, degrees, degree_bound, most)
        return reference_shaped_census(*current, degrees, degree_bound)

    current = []
    census = listings()
    monkeypatch.setattr(polyco.decomp, "_census", reference)
    return census, listings()


def relabelled(dec, live):
    """dec, a listing over the full subcomplex on the vertices live, with
    its vertex j written live[j - 1]: in vertex and group provenance, and
    in the K_{...} label of each mixed atom."""
    back = lambda vs: tuple(live[j - 1] for j in vs)
    label = lambda match: "K_{" + ",".join(map(str, back(map(int, match[1].split(","))))) + "}"
    factors = []
    for e, n, p in dec.factors:
        if isinstance(p, BracketGroup):
            p = BracketGroup(p.weight, back(p.support), tuple(map(back, p.pieces)), p.counts)
            if isinstance(e, Loop) and isinstance(e.child, Atom) and e.child.name.startswith("ŝ-coprod"):
                e = _loop_node(_atom(re.sub(r"K_\{([\d,]+)\}", label, e.child.name), e.child.connectivity), 1)
        elif isinstance(p, int):
            p = live[p - 1]
        factors.append(Factor(e, n, p))
    return Decomposition(tuple(factors), dec.theorem, dec.truncation, dec.degree_bound)


def test_a_point_vertex_lists_like_the_full_subcomplex_without_it():
    # a vertex whose domain and codomain are points puts * into every object
    # of each diagram through it, in mixed data too: on seeded mixed inputs
    # with one or more such vertices, the listing equals that of the full
    # subcomplex on the other vertices with their pairs, mapped back to the
    # vertex numbers of K, in text and sorted JSON, order and cut included
    rng = random.Random(4517)
    listed = 0
    for trial in range(300):
        m = rng.randint(2, 5)
        facets = [rng.sample(range(1, m + 1), rng.randint(1, m)) for _ in range(rng.randint(0, m))]
        K = build(m, facets if trial % 3 else [range(1, m + 1)])
        dead = set(rng.sample(range(1, m + 1), rng.randint(1, max(1, m - 2))))
        live = [j for j in range(1, m + 1) if j not in dead]
        while True:  # the live pairs, with a non-point domain and a non-point codomain
            on = [(rng.choice(DOMAIN_POOL), rng.choice(CODOMAIN_POOL)) for _ in live]
            if any(not isinstance(normalize(x), Point) for x, _ in on) and any(a != POINT for _, a in on):
                break
        points = iter(on)
        pairs = PairAssignment.of([rng.choice(((POINT, POINT), (PX, POINT))) if j in dead else next(points)
                                   for j in range(1, m + 1)])
        W = rng.randint(1, 2)
        dec = loop_decompose(K, pairs, W)
        want = relabelled(loop_decompose(full_subcomplex(K, live), PairAssignment.of(on), W), live)
        assert dec.render() == want.render(), (K, pairs, W)
        assert json.dumps(dec.to_json(), sort_keys=True) == json.dumps(want.to_json(), sort_keys=True)
        listed += len(dec.bracket_factors())
    assert listed > 800, listed


def test_an_atom_whose_loops_are_a_point_must_be_declared_contractible():
    # a simply connected atom declared with a point as its loop space is
    # weakly contractible: the constructor rejects it, so no preset reads it
    # as a non-point domain; declared contractible, it is a point vertex
    for loop in (POINT, PX, Loop(PX)):
        with pytest.raises(ValueError, match=r"atom Q: its loop space is a point, so it is weakly "
                                             r"contractible; declare it contractible"):
            Atom("Q", 2, loop=loop)
    hollow = Atom("Q", 2, loop=POINT, contractible=True)
    assert normalize(hollow) == POINT and Atom("Q", 2, loop=S(1)).loop == S(1)
    pairs = PairAssignment.of([(hollow, S(2)), (PX, S(2))])
    assert PairAssignment.of([(hollow, S(2))]).domain_contractible(1)
    assert loop_decompose(two_points(), pairs, 2).factor_multiset() == \
        loop_decompose_contractible(two_points(), pairs, 2).factor_multiset()


def test_the_census_lists_what_every_support_lists(monkeypatch):
    # supports stay bitmasks until the census lists them: on seeded inputs
    # every listing equals the one whose census is every subset that the
    # reference rule keeps through has_face (reference_census, filtered
    # through reference_rule when the engine runs its rule), in text and
    # sorted JSON, order included.  The inputs cover the contractible and
    # general presets and hilton_milnor, ghost vertices (every support
    # through one is a missing face) and full simplices, under every preset
    rng = random.Random(4127)
    cases = []
    for i in range(330):
        K = simplex(rng.randint(1, 5)) if i % 6 == 0 else random_complex(rng, 6 if i % 3 else 4)
        codomains = [rng.choice(CODOMAIN_POOL) for _ in range(K.m)]
        if i % 4 == 0:
            pairs = PairAssignment.of([(rng.choice(DOMAIN_POOL), a) for a in codomains])
            cases.append((loop_decompose, K, pairs, rng.randint(1, 2), None))
        elif i % 4 == 1:
            cases.append((loop_decompose_contractible, K, path_pairs(codomains), rng.randint(1, 3), None))
        elif i % 4 == 2:
            cases.append((loop_decompose_wedge, K, [rng.choice(WEDGE_POOL + (POINT,)) for _ in range(K.m)], 2, None))
        else:
            spaces = [rng.choice(WEDGE_POOL + (POINT,)) for _ in range(rng.randint(1, 5))]
            cases.append((hilton_milnor, K, spaces, rng.randint(1, 4), rng.choice((None, 6))))
    census, reference = census_listings(monkeypatch, cases)
    assert census == reference
    ghosts = [K for engine, K, *_ in cases if engine is loop_decompose_contractible and len(K.vertices()) < K.m]
    simplices = [K for _, K, *_ in cases if K.facets == (tuple(range(1, K.m + 1)),) and K.m > 1]
    assert len(ghosts) > 25 and len(simplices) > 40, (len(ghosts), len(simplices))
    assert sum(len(dec.splitlines()) for dec, _ in census) > 5000


def face_census_cases(seed, count):
    """(engine, K, data, W, degree bound) for the face cut on seeded inputs:
    the wedge preset with and without a degree cut, and the general one
    with every codomain a point, over random complexes (ghost vertices
    among them), empty ones and full simplices, with point spaces and
    repeated spaces (pieces of several vertices)."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        m = rng.randint(2, 8)
        facets = [rng.sample(range(1, m + 1), rng.randint(1, min(m - 1, 5))) for _ in range(rng.randint(1, m + 2))]
        K = build(m, []) if i % 10 == 0 else simplex(m) if i % 20 == 1 else build(m, facets)
        if i % 4 == 3:
            pairs = PairAssignment.of([(rng.choice(DOMAIN_POOL), POINT) for _ in range(K.m)])
            cases.append((loop_decompose, K, pairs, rng.randint(1, 2), None))
            continue
        pool = rng.sample(WEDGE_POOL + (POINT,), rng.randint(1, 3))
        spaces = [rng.choice(pool) for _ in range(K.m)]
        cut = None if i % 4 == 0 else rng.randint(1, 9)
        cases.append((loop_decompose_wedge, K, spaces, 2 if cut is None else rng.randint(1, 5), cut))
    return cases


def test_the_face_census_lists_what_every_face_lists(monkeypatch):
    # the face cut walks up from the empty face only as far as the degree
    # cut: on seeded inputs every listing equals the one from every face of
    # K within the cut (reference_census), in text and sorted JSON, order
    # included; the walk skipped the faces past the cut, and those through
    # a vertex of no piece (a point space)
    cases = face_census_cases(4219, 330)
    walked = []
    real = polyco.decomp._census

    def recording(facets, grading, degrees, degree_bound, keep=None, most=math.inf):
        census = real(facets, grading, degrees, degree_bound, keep, most)
        uncut = real(facets, grading, degrees, None, keep, most)
        every = real(facets, [0] * len(grading), [1], None)
        walked.append(tuple(sum(map(len, c.values())) for c in (census, uncut, every)))
        return census

    monkeypatch.setattr(polyco.decomp, "_census", recording)
    census, reference = census_listings(monkeypatch, cases)
    assert census == reference
    ghosts = [K for _, K, *_ in cases if K.facets and len(K.vertices()) < K.m]
    assert len(ghosts) > 100 and sum(not K.facets for _, K, *_ in cases) >= 30, len(ghosts)
    assert sum(a < b for a, b, _ in walked) > 25 and sum(b < c for _, b, c in walked) > 100
    assert sum(a == c > 8 for a, _, c in walked) > 25
    assert sum(len(text.splitlines()) for text, _ in census) > 5000


def test_the_face_census_is_the_faces_within_the_cut():
    # _census alone, listing faces (keep None), against every face of K: a
    # face is listed under its type exactly when each vertex has a piece
    # (a vertex of no piece stands for a point space) and its degree is
    # within the cut, and the empty face always, under the zero type
    rng = random.Random(4253)
    checked = 0
    for _ in range(300):
        K = random_complex(rng, 8)
        labels = [rng.choice((None, 0, 1, 2)) for _ in range(K.m)]
        first = {}
        grading = [None if x is None else first.setdefault(x, len(first)) for x in labels]
        degrees = [rng.randint(1, 3) for _ in first]
        cut = rng.choice([None, rng.randint(0, 8)])
        spaces = [POINT if x is None else S(2 + x) for x in labels]
        want = reference_census(K, const(spaces), degrees, cut)
        got = polyco.decomp._census(_index(K).facets, grading, degrees, cut)
        assert got == want and got[(0,) * len(first)] == [()], (K, grading, degrees, cut)
        checked += len(want) > 3
    assert checked > 100


def census_mode_cases(seed, count):
    """(mode, engine, K, data, W, degree bound), count of each mode: point
    codomains (the wedge preset, with and without a degree cut, and the
    general one), contractible domains (either preset), mixed data and
    hilton_milnor, over random complexes with ghost vertices, empty ones
    and full simplices, with point spaces among the vertex data."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        m = rng.randint(1, 7)
        facets = [rng.sample(range(1, m + 1), rng.randint(1, m)) for _ in range(rng.randint(1, m + 1))]
        K = build(m, []) if i % 10 == 0 else simplex(m) if i % 10 == 1 else build(m, facets)
        codomains = [rng.choice(CODOMAIN_POOL) for _ in range(m)]
        spaces = [rng.choice(WEDGE_POOL + (POINT,)) for _ in range(m)]
        cut = rng.choice((None, rng.randint(2, 9)))
        cases += [
            ("faces", loop_decompose_wedge, K, spaces, 1, cut) if i % 2 else
            ("faces", loop_decompose, K, const(spaces), 1, None),
            ("contractible", loop_decompose_contractible if i % 2 else loop_decompose, K, path_pairs(codomains), 1,
             None),
            ("mixed", loop_decompose, K, PairAssignment.of(
                [(S(3), rng.choice(codomains))] + [(rng.choice(DOMAIN_POOL), a) for a in codomains[1:]]), 1, None),
            ("hilton-milnor", hilton_milnor, K, spaces, rng.randint(1, 3), cut),
        ]
    return cases


def test_the_census_is_what_the_reference_keeps_in_every_mode(monkeypatch):
    # each census the engine takes, against reference_census on the same
    # vertex data: the faces for point codomains, the missing faces for
    # contractible domains, each support by its own endpoints in mixed data
    # (never one through a vertex whose surviving space is a point, which
    # has no piece in any mode), and every support of at most W summands
    # for hilton_milnor.  Where a vertex with a piece has a non-point
    # codomain, the engine runs its rule, and the census is that reference
    # filtered through reference_rule, with each support's shape.  Each
    # listing is read, as over point codomains on the full simplex, and
    # for hilton_milnor, only the listing takes it
    calls = recorded_census(monkeypatch)
    seen = Counter()
    for mode, engine, K, data, W, cut in census_mode_cases(4261, 320):
        args = (data, W) if engine is hilton_milnor else (K, data, W)
        (engine(*args) if cut is None else engine(*args, degree_bound=cut)).factors
        grading, degrees, degree_bound, _, census = calls.pop()
        pairs = as_pairs(engine, K, data)
        if any(p is not None and not isinstance(normalize(a), Point) for p, (_, a) in zip(grading, pairs[1].pairs)):
            want = reference_shaped_census(*pairs, degrees, cut)
        else:
            want = reference_census(*pairs, degrees, cut, W if engine is hilton_milnor else None)
        assert census == want and degree_bound == cut, (mode, K, data, W, cut)
        seen[mode] += 1
        seen[mode, "ghosts"] += bool(K.facets) and len(K.vertices()) < K.m
        seen[mode, "points"] += None in grading
        seen[mode, "empty"] += not K.facets
        seen[mode, "simplex"] += K.facets == (tuple(range(1, K.m + 1)),)
        seen[mode, "cut"] += degree_bound is not None
    for mode in ("faces", "contractible", "mixed", "hilton-milnor"):
        assert seen[mode] >= 300, seen
        assert min(seen[mode, what] for what in ("ghosts", "points", "empty", "simplex")) >= 20, seen
    assert seen["faces", "cut"] >= 50 and seen["hilton-milnor", "cut"] >= 50, seen


def test_the_census_classifies_each_support_like_the_reference_rule():
    # _census with the engine's rule, the one reading of a support's kind,
    # on seeded vertex data mixing point codomains, contractible domains,
    # mixed pairs and point pairs (no piece), over random complexes with
    # ghost vertices, empty ones and full simplices, with and without a
    # degree cut: its (support, shape) entries are reference_census
    # filtered through reference_rule, each type's in lexicographic order
    rng = random.Random(4271)
    seen = Counter()
    for i in range(330):
        m = rng.randint(1, 6)
        facets = [rng.sample(range(1, m + 1), rng.randint(1, max(1, m - 1))) for _ in range(rng.randint(1, m + 1))]
        K = build(m, []) if i % 10 == 0 else simplex(m) if i % 10 == 1 else build(m, facets)
        kinds = [rng.choice(((1, 1, 1, 3), (0, 1, 2, 3), (0, 0, 2, 3))[i % 3]) for _ in range(m)]
        pairs = PairAssignment.of([
            ((rng.choice((S(3), X2, CP_INFINITY)), POINT), (PX, rng.choice((S(2), A1, CP_INFINITY))),
             (rng.choice((S(3), X2)), rng.choice((S(2), A1))), (POINT, POINT))[kind] for kind in kinds])
        grading, _, _, degrees, _, to_point, from_point = _vertex_pieces(_normal_pairs(K, pairs))
        assert grading == reference_live_grading(pairs)
        cut = rng.choice((None, rng.randint(2, 12)))
        rule = partial(_bracket_rule, K, to_point, from_point)
        census = polyco.decomp._census(_index(K).facets, grading, degrees, cut, rule)
        assert census == reference_shaped_census(K, pairs, degrees, cut), (K, pairs, cut)
        shapes = [shape for entries in census.values() for support, shape in entries if len(support) > 1]
        seen["point"] += "point" in shapes
        seen["contractible"] += any(type(shape) in (tuple, SimplicialComplex) for shape in shapes)
        seen["mixed"] += any(type(shape) is polyco.decomp._Mixed for shape in shapes)
        seen["ghosts"] += bool(K.facets) and len(K.vertices()) < K.m
        seen["simplex"] += K.facets == (tuple(range(1, K.m + 1)),)
        seen["points"] += None in grading
        seen["cut"] += cut is not None
    assert min(seen[what] for what in ("point", "contractible", "mixed")) >= 40, seen
    assert min(seen[what] for what in ("ghosts", "simplex", "points", "cut")) >= 25, seen


def test_hilton_milnor_walks_only_the_supports_within_the_weight(monkeypatch):
    # a word of weight W has at most W letters: over 30 summands at W=2 the
    # census walks the 466 supports of at most two summands, not all 2^30,
    # when the listing is read, which alone takes it
    calls = recorded_census(monkeypatch)
    dec = hilton_milnor([S(2 + i % 3) for i in range(30)], 2)
    assert len(dec.factors) == 30 + 435 and dec.truncation == 2
    (*_, census), = calls
    assert Counter(map(len, listed_supports(census))) == {0: 1, 1: 30, 2: 435}


def test_point_pieces_get_no_letters(monkeypatch):
    # every bracket through a piece whose surviving space is a point is a
    # point, in every mode, so the counter sees only the other pieces: hilton_milnor over
    # POINT, S², S³ counts the 30 groups of S², S³, not the 143 of three
    # letters, and the wedge preset does the same with point spaces.  The
    # listings and their weight cuts match the enumerated references
    counted = []
    real = polyco.decomp.lyndon_class_counts

    def counting(*args, **options):
        counted.append(len(out := real(*args, **options)))
        return out

    monkeypatch.setattr(polyco.decomp, "lyndon_class_counts", counting)
    spaces = [POINT, S(2), S(3)]
    dec = hilton_milnor(spaces, 8)
    assert counted == [30] and len(real([1, 1, 1], 8, alphabet="plain")) == 143
    assert_counted_matches(dec, enumerated_hilton_milnor(spaces, 8), 3, summand_grading(spaces))
    assert dec.truncation == 8 and len(dec.factors) == 30
    counted.clear()
    K = build(4, [[1, 2, 3], [2, 3, 4]])
    spaces = [S(2), POINT, S(3), POINT]
    dec = loop_decompose_wedge(K, spaces, 3, degree_bound=9)
    faces = {tuple(int(j in f) for j in (1, 3)) for f in K.faces()}
    assert counted == [len(real([1, 1], 3, types=faces, degrees=[1, 2], degree_bound=9))]
    assert counted[0] < len(real([1, 2, 1], 3, types={(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 2, 0),
                                                      (1, 2, 0), (0, 1, 1), (0, 2, 1), (0, 0, 0)}))
    assert_counted_matches(dec, enumerated_wedge(K, spaces, 3, degree_bound=9), 4,
                           reference_grading(PairAssignment.constant_maps(spaces)))
    # mixed data too: vertex 3 puts (Ω*)^l = * into every object of each
    # diagram through it, so the counter sees the two other pieces and no
    # listed support runs through vertex 3
    counted.clear()
    path = build(3, [[1, 2], [2, 3]])
    pairs = PairAssignment.of([(S(3), POINT), (POINT, S(2)), (POINT, POINT)])
    dec = loop_decompose(path, pairs, 2)
    assert counted == [len(real([1, 1], 2))]
    assert dec.bracket_factors() and not any(3 in f.provenance.support for f in dec.bracket_factors())
    assert_counted_matches(dec, enumerated_general(path, pairs, 2), 3, reference_grading(pairs))


def test_the_weight_cut_is_read_once_per_support_type(monkeypatch):
    # two triangles of vertex degrees 1, 2, 2 and 2, 2, 8 under the degree
    # cut 13: each lists its weight-1 groups, and only the first has a
    # weight-2 word within the cut (degree 6 against 14), so the listing is
    # cut at W = 1.  The least degree is read once per listed support type,
    # until one is within the cut
    reads = Counter()
    real = polyco.decomp._least_face_degree

    def reading(degrees, w):
        reads[tuple(sorted(degrees)), w] += 1
        return real(degrees, w)

    monkeypatch.setattr(polyco.decomp, "_least_face_degree", reading)
    K = build(4, [[1, 2, 3], [2, 3, 4]])
    make = partial(loop_decompose_wedge, K, [S(2), S(3), S(3), S(9)], degree_bound=13)
    dec = make(1)
    assert {f.provenance.support for f in dec.bracket_factors()} >= {(1, 2, 3), (2, 3, 4)}
    assert reads == {((1, 2, 2), 2): 1}
    assert dec.truncation == 1 and len(make(4).factors) > len(dec.factors)
    # degrees 2, 2, 2 and 2, 2, 3 under the cut 7: both list weight 1 (6, 7)
    # and neither weight 2 (8, 9), so each type is read once, and no cut
    reads.clear()
    make = partial(loop_decompose_wedge, K, [S(3), S(3), S(3), S(4)], degree_bound=7)
    dec = make(1)
    assert {f.provenance.support for f in dec.bracket_factors()} >= {(1, 2, 3), (2, 3, 4)}
    assert reads == {((2, 2, 2), 2): 1, ((2, 2, 3), 2): 1}
    assert dec.truncation is None and len(make(4).factors) == len(dec.factors)
    # the pentagon lists five supports of type {i, i+1, i+3} and itself:
    # with no degree cut, a listed type of three vertices cuts unread
    reads.clear()
    pentagon = build(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
    dec = loop_decompose_contractible(pentagon, path_pairs([S(2)] * 5), 3)
    assert Counter(len(S) for S in {f.provenance.support for f in dec.bracket_factors()}) == {2: 5, 3: 5, 5: 1}
    assert not reads and dec.truncation == 3


def test_contractible_realization_builds_no_factor(monkeypatch):
    # on the path 1-2-3 the missing face {1,2,3} has a contractible full
    # subcomplex: the rule drops it, so no build gives a point
    path = build(3, [[1, 2], [2, 3]])
    pairs = path_pairs([S(2), S(3), CP_INFINITY])
    assert wedge_of_spheres_type(path) == ()
    assert reference_bracket_factor(path, pairs, (1, 2, 3), (1, 2, 1)) == POINT
    assert bracket_rule(path, _vertex_pieces(_normal_pairs(path, pairs)), (1, 2, 3)) is None
    builds = count_builds(monkeypatch)
    dec = loop_decompose_contractible(path, pairs, 6)
    assert {f.provenance.support for f in dec.bracket_factors()} == {(1, 3)}
    assert builds.pop("point", 0) == 0 and set(builds.values()) == {1}


SYMBOLIC_NAME = re.compile(r"ŝ-coprod\[K_\{([\d,]+)\}; weights \[([\d, ]+)\]\]")


def test_class_diagram_matches_the_symbolic_atom():
    # the diagram built on demand has the complex and the weights that the
    # symbolic factor's atom names, and is the smash coproduct over the full
    # subcomplex on the support with the pairs restricted there
    rng = random.Random(5099)
    seen = 0
    for _ in range(15):
        K = random_complex(rng, 4)
        pairs = PairAssignment.of(
            [(rng.choice(DOMAIN_POOL), rng.choice(CODOMAIN_POOL)) for _ in range(K.m)]
        )
        for f in loop_decompose(K, pairs, rng.randint(1, 4)).bracket_factors():
            if not (isinstance(f.expr, Loop) and isinstance(f.expr.child, Atom)):
                continue
            match = SYMBOLIC_NAME.fullmatch(f.expr.child.name)
            if match is None:
                continue
            seen += 1
            support = tuple(int(v) for v in match.group(1).split(","))
            weights = tuple(int(k) for k in match.group(2).split(","))
            assert support == f.provenance.support
            sub = full_subcomplex(K, support)
            d = class_diagram(K, pairs, f.provenance)
            assert (d.complex, d.weights) == (sub, weights)
            total = sum(f.provenance.counts)
            assert f.expr.child.connectivity == max(0, total - sub.dim() - 1)
            restricted = PairAssignment.of([pairs.pairs[j - 1] for j in support])
            assert d == smash_coproduct(sub, restricted, weights)
    assert seen > 0


def test_class_diagram_needs_one_vertex_per_piece():
    # a group over a piece of several vertices fixes only their total letter
    # count, so no one weighted diagram stands for it; with one vertex per
    # piece the counts are the weights
    K = build(4, [list(f) for f in combinations(range(1, 5), 3)])
    pairs = path_pairs([S(2)] * 4)
    group = loop_decompose_contractible(K, pairs, 2).bracket_factors()[0].provenance
    assert group.pieces == ((1, 2, 3, 4),)
    with pytest.raises(ValueError, match="is summed"):
        class_diagram(K, pairs, group)
    distinct = path_pairs([S(2), S(3), S(4), CP_INFINITY])
    group = loop_decompose_contractible(K, distinct, 2).bracket_factors()[0].provenance
    assert group.pieces == ((1,), (2,), (3,), (4,))
    d = class_diagram(K, distinct, group)
    assert (d.complex, d.weights) == (K, group.counts)
    assert d == smash_coproduct(K, distinct, group.counts)


def test_mixed_decomposition_builds_no_diagrams():
    # 2,343 symbolic classes at the default weight bound: naming them must
    # not cost a diagram each (building them all takes about 0.7 s of CPU)
    pairs = PairAssignment.of(
        [(Atom("P(S^2)", 0, contractible=True), S(2)), (S(3), POINT), (S(3), S(2))]
    )
    start = time.process_time()
    dec = loop_decompose(simplex(3), pairs, 13)
    elapsed = time.process_time() - start
    assert len(dec.bracket_factors()) == 2343
    assert elapsed < 0.3, elapsed


def test_contractible_listing_json_stays_small():
    # the 6,420 classes with support {1,2,3,4} fall into 78 groups over 29
    # expressions: each smash power is one child, so the JSON does not spell
    # out up to 32 copies of each loop space
    K = build(4, [list(f) for f in combinations(range(1, 5), 3)])
    dec = loop_decompose_contractible(K, PairAssignment.path_fibrations([S(2)] * 4), 8)
    text = json.dumps(dec.to_json(), sort_keys=True, indent=2)
    classes = {
        wl: n for wl, n in reference_class_counts(all_face_letters(4), 8).items()
        if all(wl[1])
    }
    groups = regrouped(classes, [0] * 4)
    assert len(classes) == 6420 and len(groups) == 78
    assert len(dec.factors) == len(groups)
    assert sum(f.multiplicity for f in dec.factors) == sum(classes.values())
    assert len({f.expr for f in dec.factors}) == 29
    assert len(text) < 6_000_000


# ---------------------------------------------------------------------------
# factors built in normal form against the raw trees normalized from the root
# ---------------------------------------------------------------------------

# atoms whose loop replacement is a product or a smash (the smash flattens
# into the smash of a bracket factor); Susp(S^2) normalizes to S^3, so it
# shares S^3's piece and builds the same factors
T_PRODUCT = Atom("T", 2, loop=Product((Loop(S(3)), Loop(S(5)))))
U_SMASH = Atom("U", 1, loop=Smash((S(1), Atom("V", 1))))
PARITY_DOMAINS = (S(3), CP_INFINITY, T_PRODUCT, U_SMASH, POINT, PX)
PARITY_CODOMAINS = (S(2), CP_INFINITY, T_PRODUCT, U_SMASH, POINT)
PARITY_SPACES = (S(2), S(3), CP_INFINITY, T_PRODUCT, U_SMASH, X_PLAIN, PX)
PARITY_SUMMANDS = (S(2), S(3), Susp(S(2)), CP_INFINITY, T_PRODUCT, U_SMASH, X_PLAIN, PX)


def parity_decompositions():
    """About 200 seeded decompositions with m <= 5, each with the reference
    build of its groups: repeated and distinct spaces, point domains and
    codomains, and complexes with uncertified full subcomplexes."""
    rng = random.Random(5113)
    out = []
    for i in range(50):
        K = UNCERTIFIED[i % 3] if i % 5 == 0 else random_complex(rng, 5)
        W = rng.randint(1, {1: 5, 2: 5, 3: 4, 4: 3, 5: 2}[K.m])
        bound = rng.choice((None, 6, 9))
        domains, codomains = rng.sample(PARITY_DOMAINS, 3), rng.sample(PARITY_CODOMAINS, 3)
        pairs = PairAssignment.of(
            [(rng.choice(domains), rng.choice(codomains)) for _ in range(K.m)]
        )
        contractible = PairAssignment.path_fibrations([a for _, a in pairs.pairs])
        spaces = [rng.choice(PARITY_SPACES) for _ in range(K.m)]
        summands = [rng.choice(PARITY_SUMMANDS) for _ in range(rng.randint(1, 5))]
        out += [
            (loop_decompose(K, pairs, W), partial(reference_group_factor, K, pairs)),
            (
                loop_decompose_contractible(K, contractible, W),
                partial(reference_group_factor, K, contractible),
            ),
            (
                loop_decompose_wedge(K, spaces, W, degree_bound=bound),
                partial(reference_group_factor, K, const(spaces)),
            ),
            (
                hilton_milnor(summands, W, degree_bound=bound),
                partial(reference_summand_factor, summands),
            ),
        ]
    return out


def test_normal_form_builds_match_the_normalized_reference():
    # every factor equals the raw tree normalized from the root, and is a
    # fixed point of normalize and of the independent reference normalizer
    decs = parity_decompositions()
    assert len(decs) == 200
    compared = symbolic = spheres = 0
    for dec, reference in decs:
        for f in dec.factors:
            assert normalize(f.expr) == f.expr, render(f.expr)
            assert reference_normalize(f.expr) == f.expr, render(f.expr)
            if isinstance(f.provenance, BracketGroup):
                assert f.expr == reference(f.provenance), (dec.theorem, f.provenance)
                compared += 1
                symbolic += "Map_*" in render(f.expr)
                spheres += isinstance(f.expr, Loop) and isinstance(f.expr.child, Sphere)
    assert compared > 2000 and symbolic > 20 and spheres > 20, (compared, symbolic, spheres)


def _nodes(e, seen: dict) -> None:
    # every node reachable from e, each object once, keyed by id
    if id(e) in seen:
        return
    seen[id(e)] = e
    if isinstance(e, _Compound):
        kids = e.children
    elif isinstance(e, Atom):
        kids = () if e.loop is None else (e.loop,)
    else:
        kids = (e.child,) if isinstance(e, (Susp, Loop, MapFromSusp)) else ()
    for c in kids:
        _nodes(c, seen)


def test_helper_built_nodes_are_what_the_public_constructors_make():
    # _plan's builds and _loop make their nodes past the public constructors;
    # rebuilt through those, every node reachable from a listing, a fiber, a
    # face diagram or a normal form comes back with the same children and
    # powers (or child and count): no merge or check would have fired
    rng = random.Random(3317)
    roots = [f.expr for dec, _ in parity_decompositions() for f in dec.factors]
    for _ in range(60):
        summands = rng.sample(PARITY_SUMMANDS, rng.randint(1, 4))
        roots += [f.expr for f in porter_loop_decomp(summands).factors] + [porter_fiber(summands)]
        roots += [normalize(with_repeats(rng, random_expr(rng, 3))) for _ in range(5)]
        K = random_complex(rng, 4)
        pairs = PairAssignment.of(
            [(rng.choice(PARITY_DOMAINS), rng.choice(PARITY_CODOMAINS)) for _ in range(K.m)]
        )
        weights = [rng.randint(0, 2) for _ in range(K.m - 1)] + [1]
        for diagram in (coproduct_diagram(K, pairs), smash_coproduct(K, pairs, weights)):
            roots += diagram.objects.values()
    seen: dict = {}
    for e in roots:
        _nodes(e, seen)
    compounds = loops = repeated = 0
    for e in seen.values():
        if isinstance(e, _Compound):
            again = type(e)(e.children, e.powers)
            assert (again.children, again.powers) == (e.children, e.powers), render(e)
            compounds += 1
            repeated += any(p > 1 for p in e.powers)
        elif isinstance(e, Loop):
            again = Loop(e.child, e.count)
            assert (again.child, again.count) == (e.child, e.count), render(e)
            loops += 1
    assert compounds > 1000 and repeated > 500 and loops > 1000, (compounds, repeated, loops)


def test_a_listing_makes_no_node_through_the_checked_constructor(monkeypatch):
    # the engine builds from normal pieces, so its spheres, atoms,
    # suspensions, loops and compounds never need the public constructors'
    # checks and merge scan
    K = build(5, [[1, 2, 3], [3, 4], [4, 5], [2, 5]])
    spaces = [S(2), T_PRODUCT, U_SMASH, S(2), Wedge((S(3), S(3), S(5)))]
    pairs = PairAssignment.of([(x, a) for x, a in zip(spaces, PARITY_CODOMAINS)])
    contractible = PairAssignment.path_fibrations(spaces)
    calls = []
    for cls in (Sphere, Atom, Susp, Loop, _Compound):
        def counted(e, *args, _init=cls.__init__, **kwargs):
            calls.append(type(e))
            _init(e, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    listings = [loop_decompose_wedge(K, spaces, 4), loop_decompose(K, pairs, 3),
                loop_decompose_contractible(K, contractible, 4), hilton_milnor(spaces, 4)]
    for dec in listings:
        dec.to_json(), dec.render()
    assert all(len(dec.factors) > 20 for dec in listings), [len(dec.factors) for dec in listings]
    assert any(isinstance(getattr(f.expr, "child", None), Atom) for f in listings[1].factors)  # mixed
    assert calls == []
    # the patches are live: the public constructors still check
    Wedge((S(2), S(2))), Loop(Susp(Atom("A", 1)), 2)
    assert calls == [Sphere, Sphere, Wedge, Atom, Susp, Loop]


def maker_mismatches(sphere, susp, loop, atom) -> tuple[Counter, list[str]]:
    """(compared per kind, mismatches) of the makers against the public constructors
    on seeded degrees, names, connectivities and normal children: each made
    node must be equal, with the same hash, repr, sort_key and conn, and be
    its own normal form."""
    rng = random.Random(3829)
    pairs = []  # (made, constructed)
    for _ in range(300):
        n = rng.randint(0, 40)
        pairs.append((lambda n=n: sphere(n), Sphere(n)))
        name = "".join(rng.choice("ŝXY[]{},; 0123") for _ in range(rng.randint(1, 12)))
        c = rng.randint(0, 30)
        pairs.append((lambda name=name, c=c: atom(name, c), Atom(name, c)))
        child = normalize(with_repeats(rng, random_expr(rng, 3)))
        if not isinstance(child, (Point, Sphere)):
            pairs.append((lambda child=child: susp(child), Susp(child)))
        looped = isinstance(child, Atom) and child.loop is not None
        if not (looped or isinstance(child, (Point, Loop, Product))):
            k = rng.randint(1, 4)
            pairs.append((lambda child=child, k=k: loop(child, k), Loop(child, k)))
    compared = Counter(type(want).__name__ for _, want in pairs)
    bad = []
    for make, want in pairs:
        try:
            got = make()
            same = (got == want and hash(got) == hash(want) and repr(got) == repr(want)
                    and sort_key(got) == sort_key(want) and conn(got) == conn(want)
                    and normalize(got) == got)
        except AttributeError:  # a slot left unset
            same = False
        if not same:
            bad.append(repr(want))
    return compared, bad


def test_each_maker_makes_what_its_checked_constructor_makes():
    compared, bad = maker_mismatches(_sphere, _susp_node, _loop_node, _atom)
    assert min(compared.values()) >= 60 and len(compared) == 4 and bad == [], (compared, bad[:3])
    # the engine's direct tuples are the named tuples, and every factor
    # comes back through the public constructors from its JSON
    groups = 0
    for dec, _ in parity_decompositions():
        for f in dec.factors:
            e, n, p = f
            assert type(f) is Factor and f == Factor(e, n, p) and f.expr is e
            if isinstance(p, BracketGroup):
                assert type(p) is BracketGroup and p == BracketGroup(*p), p
                assert (p.weight, p.support, p.pieces, p.counts) == tuple(p)
                groups += 1
            assert expr_from_json(expr_to_json(e)) == e, render(e)
    assert groups > 2000


def test_a_maker_that_skips_a_slot_is_caught():
    def sphere_unset(n):
        return _new(Sphere)

    def susp_unset(c):
        return _new(Susp)

    def loop_without_count(c, k):
        e = _new(Loop)
        Loop.child.__set__(e, c)
        return e

    def atom_without_series(name, c):
        e = _new(Atom)
        for field, value in (("name", name), ("connectivity", c), ("loop", None), ("contractible", False)):
            getattr(Atom, field).__set__(e, value)
        return e

    def atom_contractible_none(name, c):
        e = _atom(name, c)
        Atom.contractible.__set__(e, None)
        return e

    makers = {"sphere": _sphere, "susp": _susp_node, "loop": _loop_node, "atom": _atom}
    for kind, broken in (("sphere", sphere_unset), ("susp", susp_unset), ("loop", loop_without_count),
                         ("atom", atom_without_series), ("atom", atom_contractible_none)):
        compared, bad = maker_mismatches(**{**makers, kind: broken})
        assert len(bad) == compared[kind.capitalize()], (broken.__name__, len(bad))


def test_series_product_evaluates_each_normal_factor_as_series_of_does():
    # the product of series_of over the factor multiset, or the reason for
    # the first unsupported factor, exactly as series_of words it.  A factor
    # of connectivity at least N reads 1 through N: where series_of has a
    # rule for it, that rule agrees, and where it has none, it is not the
    # first unsupported factor
    supported = unsupported = high = high_unsupported = 0
    rng = random.Random(6141)
    porter = [porter_loop_decomp(rng.sample(PARITY_SUMMANDS, rng.randint(1, 4))) for _ in range(30)]
    for i, dec in enumerate([dec for dec, _ in parity_decompositions()] + porter):
        N = 4 + i % 7
        want = PoincareSeries.one(N)
        for e, k in dec.factor_multiset().items():
            p = series_of(e, N)
            if _reference_safe_conn(e) >= N:
                assert isinstance(p, Unsupported) or p == PoincareSeries.one(N), render(e)
                high += 1
                high_unsupported += isinstance(p, Unsupported)
                continue
            if isinstance(want, Unsupported):
                continue
            if isinstance(p, Unsupported):
                first = next(f for f in dec.factors if f.expr == e)
                where = polyco.decomp._provenance_text(first.provenance, {})
                want = Unsupported(f"factor {render(e)} [{where}]: {p.reason}")
            else:
                want = want * p**k
        got = dec.series_product(N)
        assert got == want, (dec.theorem, N)
        supported += isinstance(got, PoincareSeries)
        unsupported += isinstance(got, Unsupported)
        with pytest.raises(ValueError, match="truncation degree"):
            dec.series_product(-1)
    assert supported > 50 and unsupported > 50, (supported, unsupported)
    assert high > 500 and high_unsupported > 500, (high, high_unsupported)


def test_series_product_matches_repeated_multiplication_at_verify_sizes():
    # summed log-derivatives against one multiplication per unit of
    # multiplicity, on the Hilton-Milnor products verify builds at N = 36
    # and on wedge and contractible listings with large multiplicities
    N = 36
    cases = [hilton_milnor(xs, N + 1, degree_bound=N) for xs in ([S(3), S(5)], [S(2), S(4)], [S(3), S(4)])]
    cases.append(hilton_milnor([S(2), S(3), S(4)], 20, degree_bound=19))
    boundary3 = build(4, [list(f) for f in combinations(range(1, 5), 3)])
    cases += [
        loop_decompose_wedge(boundary3, [S(2), S(3), S(2), CP_INFINITY], 4),
        loop_decompose_contractible(boundary3, path_pairs([CP_INFINITY] * 4), 3),
    ]
    for dec in cases:
        assert max(f.multiplicity for f in dec.factors) > 8, dec.theorem
        for n in (N, 12):
            assert dec.series_product(n) == repeated_product(dec, n), (dec.theorem, n)


# ---------------------------------------------------------------------------
# size guards: inputs that stalled while every support was counted
# ---------------------------------------------------------------------------

OCTAHEDRON = [(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)]
DECOMPOSITION_SIZE_GUARD_CASES = {
    # name: (engine, K, vertex data, W, entries, seconds of process time)
    "boundary_8_simplex_contractible_w13": (
        loop_decompose_contractible, lambda: build(9, list(combinations(range(1, 10), 8))),
        lambda: path_pairs([S(2)] * 9), 13, 634, 1.0,
    ),
    "octahedron_distinct_spheres_wedge_w13": (
        loop_decompose_wedge, lambda: build(6, OCTAHEDRON), lambda: [S(d) for d in range(2, 8)], 13,
        18_738, 3.0,
    ),
    "cycle_10_contractible_w6": (
        loop_decompose_contractible, lambda: build(10, [(i, i % 10 + 1) for i in range(1, 11)]),
        lambda: path_pairs([S(2)] * 10), 6, 60_199, 2.0,
    ),
    # 65,519 supports of two or more vertices and one missing face: the
    # census drops the faces as masks in 0.13 s (0.37-0.66 s when each
    # reached the rule)
    "boundary_15_simplex_contractible_w2": (
        loop_decompose_contractible, lambda: build(16, list(combinations(range(1, 17), 15))),
        lambda: path_pairs([S(2)] * 16), 2, 18, 0.3,
    ),
    # 262,143 supports and one missing face: one and of facet bitsets per
    # step of the walk takes 0.16-0.18 s, where a star scan per support
    # took 0.58-0.84 s (process time, Python 3.11, 2-vCPU VM)
    "boundary_17_simplex_contractible_w2": (
        loop_decompose_contractible, lambda: build(18, list(combinations(range(1, 19), 17))),
        lambda: path_pairs([S(2)] * 18), 2, 20, 0.5,
    ),
    # the degree cut needs only the faces of at most six of the 18 vertices:
    # listing all 2^18 faces as tuples took 1.63-1.78 s of process time, and
    # the walk up to the cut 0.42-0.45 s (Python 3.11, 2-vCPU VM)
    "boundary_17_simplex_spheres_wedge_degree_12": (
        partial(loop_decompose_wedge, degree_bound=12), lambda: build(18, list(combinations(range(1, 19), 17))),
        lambda: [S(3)] * 18, 13, 109_515, 1.2,
    ),
    # two pieces of 4,000 vertices, whose face types hold at most one vertex of each
    "path_8000_alternating_spheres_wedge_w1": (
        loop_decompose_wedge, lambda: build(8000, [(i, i + 1) for i in range(1, 8000)]),
        lambda: [S(2 + i % 2) for i in range(8000)], 1, 15_999, 2.0,
    ),
}


def test_serializing_a_large_listing_is_fast():
    # the per-entry path of to_json and render over the 10-cycle's 60,199
    # entries: each took about 0.2 s; a per-entry cost that grows with the
    # listing, such as a provenance cache keyed per entry, shows here
    engine, make_complex, make_data, W, entries, seconds = DECOMPOSITION_SIZE_GUARD_CASES["cycle_10_contractible_w6"]
    dec = engine(make_complex(), make_data(), W)
    assert len(dec.factors) == entries
    for serialize in (dec.to_json, dec.render):
        start = time.process_time()
        serialize()
        assert time.process_time() - start < seconds, serialize.__name__


@pytest.mark.parametrize("name", list(DECOMPOSITION_SIZE_GUARD_CASES))
def test_decompositions_that_counted_every_support_are_fast(name):
    # counting per support took 10-19 s on each of the first three: the one
    # missing face of the 8-simplex's boundary, the octahedron's face
    # supports among 1.68 million counted groups, and the 10-cycle's missing
    # faces; the long path's class options took 4.4 s
    engine, make_complex, make_data, W, entries, seconds = DECOMPOSITION_SIZE_GUARD_CASES[name]
    K, data = make_complex(), make_data()
    start = time.process_time()
    dec = engine(K, data, W)
    assert time.process_time() - start < seconds
    assert len(dec.factors) == entries


# ---------------------------------------------------------------------------
# one walk per listing: the forms against two recursive walks with no memo
# ---------------------------------------------------------------------------


def form_mismatches(tmp_path, decs):
    """(compared, mismatches) of the text and sorted JSON of the listings
    decs, Porter listings, both face diagrams and the command line's bbcg
    listing, each against its recursive reference, on seeded inputs."""
    rng = random.Random(6121)
    checks = []  # (what, got, want)
    for dec in decs:
        checks.append((dec.theorem, dec.render(), recursive_listing_text(dec)))
        checks.append((dec.theorem, json.dumps(dec.to_json(), sort_keys=True),
                       json.dumps(recursive_listing_json(dec), sort_keys=True)))
    for i in range(30):
        K = random_complex(rng, 4, allow_empty=False)
        pairs = PairAssignment.of([(rng.choice(PARITY_DOMAINS), rng.choice(PARITY_CODOMAINS))
                                   for _ in range(K.m)])
        porter = porter_loop_decomp([rng.choice(PARITY_SUMMANDS) for _ in range(rng.randint(1, 4))])
        weights = [rng.randint(1, 3) for _ in range(K.m)]
        for what, x in (("porter", porter), ("wedge diagram", coproduct_diagram(K, pairs)),
                        ("smash diagram", smash_coproduct(K, pairs, weights))):
            ref_text, ref_json = (recursive_listing_text, recursive_listing_json) if what == "porter" \
                else (recursive_diagram_text, recursive_diagram_json)
            checks.append((what, x.render(), ref_text(x)))
            checks.append((what, json.dumps(x.to_json(), sort_keys=True),
                           json.dumps(ref_json(x), sort_keys=True)))
        if i % 3 == 0:
            spaces = [rng.choice(PARITY_SPACES) for _ in range(K.m)]
            files = {"complex": {"m": K.m, "facets": [list(f) for f in K.facets]},
                     "spaces": {str(j): expr_to_json(x) for j, x in enumerate(spaces, start=1)}}
            for name, data in files.items():
                (tmp_path / f"{name}.json").write_text(json.dumps(data))
            argv = ["bbcg", "--complex", str(tmp_path / "complex.json"), "--spaces",
                    str(tmp_path / "spaces.json"), "--output", str(tmp_path / "out.txt")]
            wedge, cone = bbcg_wedge_splitting(K, spaces), bbcg_cone_splitting(K, spaces)
            want_json = {
                "complex": {"m": K.m, "facets": [list(f) for f in K.facets]},
                "wedge_splitting": [{"face": list(f), "summand": recursive_expr_to_json(e),
                                     "text": recursive_render(e)} for f, e in wedge],
                "cone_splitting": [{"missing": list(f), "summand": recursive_expr_to_json(e),
                                    "text": recursive_render(e)} for f, e in cone],
            }
            want_text = "\n".join(
                ["suspension splitting over faces:"]
                + [f"  {{{','.join(map(str, f))}}}: {recursive_render(e)}" for f, e in wedge]
                + ["suspension splitting over missing subsets:"]
                + [f"  {{{','.join(map(str, f))}}}: {recursive_render(e)}" for f, e in cone]
            )
            for fmt, want in (("json", json.dumps(want_json, sort_keys=True, indent=2)), ("text", want_text)):
                assert polyco.cli.main(argv + ["--format", fmt]) == 0
                checks.append(("bbcg", (tmp_path / "out.txt").read_text(), want + "\n"))
    return len(checks), [what for what, got, want in checks if got != want]


def test_listing_forms_match_two_recursive_walks(tmp_path):
    # one memoized walk per listing or diagram gives the text and JSON that
    # rendering and serializing each factor from its root gave
    decs = [dec for dec, _ in parity_decompositions()]
    compared, mismatches = form_mismatches(tmp_path, decs)
    assert (compared, mismatches) == (600, [])
    rng = random.Random(6122)
    for _ in range(300):
        e = with_repeats(rng, random_expr(rng))
        assert (expr_to_json(e), render(e)) == (recursive_expr_to_json(e), recursive_render(e))


def test_the_walk_runs_once_per_node_on_a_memo_miss(tmp_path, monkeypatch):
    # over the same listings, diagrams and bbcg summands, whoever meets a
    # node looks it up: expr_forms is entered only for a node absent from
    # the memo, and once per node of each memo (each kept alive here, so
    # that no id is reused)
    walk = polyco.spacexpr.expr_forms
    memos: dict = {}  # id(memo) -> (memo, ids entered)
    hits = []

    def counted(e, memo):
        if id(e) in memo:
            hits.append(render(e))
        memos.setdefault(id(memo), (memo, []))[1].append(id(e))
        return walk(e, memo)

    for module in (polyco.spacexpr, polyco.decomp, polyco.cli):
        monkeypatch.setattr(module, "expr_forms", counted)
    assert form_mismatches(tmp_path, [dec for dec, _ in parity_decompositions()]) == (600, [])
    assert hits == []
    entered = [ids for _, ids in memos.values()]
    assert sum(map(len, entered)) > 10_000 and all(len(set(ids)) == len(ids) for ids in entered)


def test_a_walk_memo_that_ignores_powers_is_caught(tmp_path, monkeypatch):
    # keyed by a compound's kind and children alone, the memo gives S^2 ∧ S^2
    # the pair of a lone-power smash over the same children: the same
    # comparison must then find differences
    walk = polyco.spacexpr.expr_forms

    def powers_blind(e, memo):
        if isinstance(e, _Compound):
            key = (type(e), tuple(map(id, e.children)))
            if key not in memo:
                memo[key] = polyco.spacexpr._FORMS[type(e)](e, memo)
            return memo[key]
        return walk(e, memo)

    for module in (polyco.spacexpr, polyco.decomp, polyco.cli):
        monkeypatch.setattr(module, "expr_forms", powers_blind)
    _, mismatches = form_mismatches(tmp_path, [dec for dec, _ in parity_decompositions()])
    presets = {"general-coproduct", "contractible-domains", "wedge-coproduct", "hilton-milnor"}
    assert set(mismatches) == presets | {"porter", "wedge diagram", "smash diagram", "bbcg"}
