"""The decomposition operations: diagrams, special cases, theorems, structure."""

import json
import random
import re
import time
from collections import Counter
from itertools import combinations

import pytest

import polyco.decomp
from _helpers import (
    enumerated_contractible,
    enumerated_general,
    enumerated_hilton_milnor,
    enumerated_wedge,
    random_complex,
    reference_bracket_factor,
    reference_series_product,
)
from polyco.decomp import (
    BracketClass,
    Decomposition,
    Factor,
    bbcg_cone_splitting,
    bbcg_wedge_splitting,
    class_diagram,
    coproduct_diagram,
    disjoint_union_decomp,
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
    _bracket_rule,
)
from polyco.liealg import Bracket, stats
from polyco.scomplex import build, disjoint_union, full_subcomplex, join
from polyco.series import PoincareSeries, Unsupported, series_of
from polyco.spacexpr import (
    CP_INFINITY,
    POINT,
    Atom,
    Loop,
    MapFromSusp,
    PairAssignment,
    Product,
    Smash,
    Sphere,
    Susp,
    Wedge,
    conn,
    expr_equal,
    normalize,
    render,
    two_points,
)

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


def test_porter_loop_decomp():
    dec = porter_loop_decomp([S(3), S(3)])
    assert [render(f.expr) for f in dec.factors] == [
        "ΩS^3",
        "ΩS^3",
        "ΩΣ(ΩS^3^∧2)",
    ]
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


def test_loop_decompose_connectivity_validation():
    with pytest.raises(ValueError, match="vertex 1"):
        loop_decompose(two_points(), const([S(1), X2]), 1)


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
    dec = loop_decompose_wedge(simplex(3), [S(2), S(3), S(2)], 3)
    for f in dec.bracket_factors():
        assert conn(f.expr) >= f.provenance.weight


# ---------------------------------------------------------------------------
# the contractible-domain decomposition
# ---------------------------------------------------------------------------


def path_pairs(codomains):
    return PairAssignment.path_fibrations(codomains)


def test_contractible_simplex_has_no_factors():
    dec = loop_decompose_contractible(simplex(3), path_pairs([A1, A2, Atom("A3", 1)]), 3)
    assert dec.factors == ()


def test_contractible_two_points_cojoin():
    dec = loop_decompose_contractible(two_points(), path_pairs([A1, A2]), 1)
    assert len(dec.factors) == 1
    f = dec.factors[0]
    assert f.expr == Loop(Susp(Smash((Loop(A1), Loop(A2)))), 2)
    # structurally equal to looping the special-case evaluation
    special = evaluate_special(two_points(), path_pairs([A1, A2]))
    assert expr_equal(f.expr, Loop(special))


def test_contractible_missing_face_filter():
    K = build(3, [[1, 2], [1, 3], [2, 3]])
    dec = loop_decompose_contractible(K, path_pairs([A1, A2, Atom("A3", 1)]), 3)
    assert len(dec.factors) > 0
    for f in dec.factors:
        assert f.provenance.support == (1, 2, 3)


def test_contractible_rejects_solid_domain():
    pairs = PairAssignment.of([(X1, A1), (POINT, A2)])
    with pytest.raises(ValueError, match="vertex 1"):
        loop_decompose_contractible(two_points(), pairs, 1)


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


def test_bbcg_cone_splitting_boundary_triangle():
    out = bbcg_cone_splitting(build(3, [[1, 2], [1, 3], [2, 3]]), [S(1)] * 3)
    # |K| = S^1, so the only summand is Susp(S^1 smash S^3) = S^5
    assert out == [((1, 2, 3), S(5))]


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


def test_disjoint_union_decomp_is_component_union():
    spaces = [X1, X2, X3, Atom("X4", 1), Atom("X5", 1)]
    # the second pair gives both components bracket classes, so the
    # second component's classes are padded on the left
    for K1, K2 in (
        (build(2, [[1, 2]]), build(2, [[1], [2]])),
        (build(2, [[1, 2]]), build(3, [[1, 2, 3]])),
    ):
        sp = spaces[: K1.m + K2.m]
        du = disjoint_union_decomp(K1, K2, sp, 3)
        d1 = loop_decompose_wedge(K1, sp[: K1.m], 3)
        d2 = loop_decompose_wedge(K2, sp[K1.m :], 3)
        assert du.factor_multiset() == d1.factor_multiset() + d2.factor_multiset()
        # and it agrees with decomposing the union complex directly
        full = loop_decompose_wedge(disjoint_union(K1, K2), sp, 3)
        assert du.factor_multiset() == full.factor_multiset()
        assert [str(f.provenance) for f in du.factors] == [
            str(f.provenance) for f in full.factors
        ]


def test_disjoint_union_two_vertices():
    du = disjoint_union_decomp(build(1, [[1]]), build(1, [[1]]), [X1, X2], 2)
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
    hm = hilton_milnor([_desuspend(c) for c in summands], N + 1, degree_bound=N)
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
    # over its five face letters, in 2,343 classes, so the multiset must not
    # expand multiplicities
    a = loop_decompose(simplex(3), const([S(2)] * 3), 13)
    b = loop_decompose_wedge(simplex(3), [S(2)] * 3, 13)
    assert a.factor_multiset() == b.factor_multiset()
    assert len(b.bracket_factors()) == 2_343
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
    union = disjoint_union_decomp(
        build(2, [[1, 2]]), build(2, [[1], [2]]), [S(2), S(3), S(2), S(2)], N + 1, degree_bound=N
    )
    for dec in (wedge, union):
        assert len(dec.factor_multiset()) < sum(f.multiplicity for f in dec.factors)
        assert dec.series_product(N) == reference_series_product(dec, N)


def test_series_product_repeated_multiplicities():
    dec = Decomposition((Factor(Loop(S(3)), 3), Factor(S(2), 2), Factor(Loop(S(3)), 4)), "test")
    assert dec.series_product(10) == reference_series_product(dec, 10)


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


# ---------------------------------------------------------------------------
# counted classes against the enumerated brackets they replace
# ---------------------------------------------------------------------------

PX = Atom("PX", 0, contractible=True)
WEDGE_POOL = (S(2), S(3), X1, CP_INFINITY, PX)
DOMAIN_POOL = (S(3), X2, CP_INFINITY, POINT, PX)
CODOMAIN_POOL = (S(2), A1, CP_INFINITY, POINT)


def class_listing(dec, m):
    """{(weight, l, expr): brackets} for bracket factors, {(vertex, expr): 1} otherwise."""
    out = Counter()
    for f in dec.factors:
        p = f.provenance
        if isinstance(p, BracketClass):
            out[(p.weight, p.l, f.expr)] += f.multiplicity
        elif isinstance(p, Bracket):
            if p.leaves()[0].subset is None:
                md = p.multidegree()
                l = tuple(sum(n for g, n in md.items() if g.index == j) for j in range(1, m + 1))
            else:
                l = stats(p, m).l
            out[(p.weight, l, f.expr)] += f.multiplicity
        else:
            out[(p, f.expr)] += f.multiplicity
    return out


def assert_counted_matches(counted, enumerated, m):
    assert counted.factor_multiset() == enumerated.factor_multiset()
    assert class_listing(counted, m) == class_listing(enumerated, m)
    assert (counted.theorem, counted.truncation) == (enumerated.theorem, enumerated.truncation)
    keys = [f.provenance.sort_key() for f in counted.bracket_factors()]
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
        assert_counted_matches(counted, enumerated, K.m)


def test_counted_general_matches_enumerated():
    rng = random.Random(5059)
    for _ in range(30):
        K = random_complex(rng, 4)
        pairs = PairAssignment.of(
            [(rng.choice(DOMAIN_POOL), rng.choice(CODOMAIN_POOL)) for _ in range(K.m)]
        )
        W = affordable_weight(max(1, (K.m - 2) * 2 ** (K.m - 1) + 1))
        assert_counted_matches(loop_decompose(K, pairs, W), enumerated_general(K, pairs, W), K.m)


def test_counted_contractible_matches_enumerated():
    rng = random.Random(5077)
    for _ in range(30):
        K = random_complex(rng, 4)
        pairs = path_pairs([rng.choice(CODOMAIN_POOL) for _ in range(K.m)])
        W = affordable_weight(max(1, (K.m - 2) * 2 ** (K.m - 1) + 1))
        assert_counted_matches(
            loop_decompose_contractible(K, pairs, W), enumerated_contractible(K, pairs, W), K.m
        )


def test_counted_hilton_milnor_matches_enumerated():
    rng = random.Random(5081)
    pool = (S(2), S(3), S(4), X1, CP_INFINITY)
    for _ in range(30):
        m = rng.randint(1, 4)
        spaces = [rng.choice(pool) for _ in range(m)]
        W = affordable_weight(m)
        bound = rng.choice((None, 4, 7, 10))
        counted = hilton_milnor(spaces, W, degree_bound=bound)
        enumerated = enumerated_hilton_milnor(spaces, W, degree_bound=bound)
        assert_counted_matches(counted, enumerated, m)


def test_contractible_rule_over_a_face_is_a_point():
    # over a face the mapping space is out of a suspended simplex: the
    # per-l reference sends it to a point, and the rule drops the support
    rng = random.Random(5087)
    for _ in range(20):
        K = random_complex(rng, 5, allow_empty=False)
        pairs = path_pairs([rng.choice((S(2), A1, CP_INFINITY)) for _ in range(K.m)])
        for face in K.faces():
            if len(face) < 2:
                continue
            l = tuple(rng.randint(1, 3) if j in face else 0 for j in range(1, K.m + 1))
            assert reference_bracket_factor(K, pairs, face, l) == POINT, (K, face)
            assert _bracket_rule(K, pairs, face) is None, (K, face)


def _map_into_a_point(e):
    # the reference's form of a contractible-domain factor whose codomains
    # are points over a support with an uncertified full subcomplex
    return isinstance(e, Loop) and isinstance(e.child, MapFromSusp) and e.child.child == POINT


def test_bracket_rule_matches_the_reference():
    # resolving a support once gives the factor the per-l rule gives, for
    # every support and several contents on it; where every domain is
    # contractible and every codomain a point, the point-codomain lemma
    # decides first and drops a non-face support whose mapping space into
    # a point the reference leaves symbolic
    rng = random.Random(5089)
    compared = 0
    for _ in range(40):
        K = random_complex(rng, 5)
        pairs = PairAssignment.of(
            [(rng.choice(DOMAIN_POOL), rng.choice(CODOMAIN_POOL)) for _ in range(K.m)]
        )
        for k in range(2, K.m + 1):
            for support in combinations(range(1, K.m + 1), k):
                factor_of = _bracket_rule(K, pairs, support)
                for _ in range(3):
                    l = tuple(rng.randint(1, 4) if j in support else 0 for j in range(1, K.m + 1))
                    got = POINT if factor_of is None else factor_of(l)
                    want = reference_bracket_factor(K, pairs, support, l)
                    compared += 1
                    if got != want:
                        assert factor_of is None and _map_into_a_point(want), (K, pairs, l)
    assert compared > 1000


def test_point_codomains_drop_a_non_face_support_with_contractible_domains():
    # on the 4-cycle with contractible domains and point codomains every
    # bracket factor is a mapping space into a point: no preset lists one
    square = build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    pairs = PairAssignment.of([(PX, POINT)] * 4)
    assert reference_bracket_factor(square, pairs, (1, 2, 3, 4), (1, 1, 1, 1)) == Loop(
        MapFromSusp(square, POINT)
    )
    assert _bracket_rule(square, pairs, (1, 2, 3, 4)) is None
    for dec in (
        loop_decompose(square, pairs, 5),
        loop_decompose_contractible(square, pairs, 5),
        loop_decompose_wedge(square, [PX] * 4, 5),
    ):
        assert dec.factors == ()
        assert dec.series_product(6) == PoincareSeries.one(6)


def test_full_subcomplex_built_once_per_support(monkeypatch):
    # the lemma tests and the full subcomplex are per support, not per l:
    # on ∂Δ³ the one missing face {1,2,3,4} is the only surviving support
    built = Counter()

    def counting(K, support):
        built[tuple(support)] += 1
        return full_subcomplex(K, support)

    monkeypatch.setattr(polyco.decomp, "full_subcomplex", counting)
    boundary = build(4, [list(f) for f in combinations(range(1, 5), 3)])
    dec = loop_decompose_contractible(boundary, path_pairs([S(2)] * 4), 8)
    assert {f.provenance.support for f in dec.bracket_factors()} == {(1, 2, 3, 4)}
    assert built == {(1, 2, 3, 4): 1}
    built.clear()
    pairs = PairAssignment.of([(S(3), S(2)), (PX, A1), (X2, POINT), (PX, CP_INFINITY)])
    dec = loop_decompose(boundary, pairs, 5)
    assert dec.bracket_factors() and max(built.values()) == 1


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
            sub = full_subcomplex(K, support).complex
            d = class_diagram(K, pairs, f.provenance)
            assert (d.complex, d.weights) == (sub, weights)
            assert f.expr.child.connectivity == max(0, sum(f.provenance.l) - sub.dim() - 1)
            restricted = PairAssignment.of([pairs.pairs[j - 1] for j in support])
            assert d == smash_coproduct(sub, restricted, weights)
    assert seen > 0


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
    # 6,420 entries over 29 expressions: each smash power is one child, so
    # the JSON does not spell out up to 32 copies of each loop space
    K = build(4, [list(f) for f in combinations(range(1, 5), 3)])
    dec = loop_decompose_contractible(K, PairAssignment.path_fibrations([S(2)] * 4), 8)
    text = json.dumps(dec.to_json(), sort_keys=True, indent=2)
    assert len(dec.factors) == 6420
    assert len(text) < 6_000_000
