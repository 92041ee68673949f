"""Series checks against their independent oracles."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import polyco.verify
from _helpers import polyco_memos, random_complex
from polyco.decomp import loop_decompose_wedge
from polyco.scomplex import build
from polyco.series import PoincareSeries, Unsupported
from polyco.spacexpr import CP_INFINITY, POINT, Atom, Product, Sphere, Susp, Wedge
from polyco.verify import (
    Equal,
    FirstDifference,
    Skipped,
    _verdict,
    check_counterexample,
    check_disjoint_union,
    check_gluing,
    check_hilton_milnor,
    check_porter,
    check_wedge_case,
)

S = Sphere


def closed_form(num, den, N):
    return PoincareSeries.from_rational(num, den, N)


def test_hilton_milnor_two_odd_spheres():
    r = check_hilton_milnor([S(3), S(5)], 14)
    assert isinstance(r.verdict, Equal)
    assert r.W == 15
    assert r.lhs.compare(closed_form([1], [1, 0, -1, 0, -1], 14)) is None


def test_hilton_milnor_single_summand():
    r = check_hilton_milnor([S(4)], 10)
    assert isinstance(r.verdict, Equal)


def test_hilton_milnor_even_spheres():
    r = check_hilton_milnor([S(2), S(2)], 10)
    assert isinstance(r.verdict, Equal)
    assert r.rhs.compare(closed_form([1], [1, -2], 10)) is None


def test_hilton_milnor_suspension_inputs():
    # an atom with the homology of S^2, given as a declared series
    w = Atom("W", 1, series=((1, 0, 1), (1,)))
    r = check_hilton_milnor([Susp(w), S(3)], 8)
    assert isinstance(r.verdict, Equal)


def test_hilton_milnor_reads_a_point_summand_as_the_suspended_point():
    # * = Σ*, so a point summand desuspends to a point, whose Hall factors
    # are points: the check agrees with both oracles, alone or with a sphere
    for summands in ([POINT, S(3)], [POINT], [S(3), POINT, S(5)]):
        r = check_hilton_milnor(summands, 8)
        assert isinstance(r.verdict, Equal), r.render()
    assert check_hilton_milnor([POINT, S(3)], 8).rhs == check_hilton_milnor([S(3)], 8).rhs
    assert check_hilton_milnor([POINT], 8).rhs == PoincareSeries.one(8)


def test_hilton_milnor_desuspends_a_wedge_of_suspensions_child_by_child():
    # S^2 v S^4 is Susp(S^1 v S^3); S^2 v S^2 v S^4 takes S^1 twice
    w = Atom("W", 1, series=((1, 0, 1), (1,)))
    for summands in ([Wedge((S(2), S(4))), S(3)], [Wedge((S(2), S(2), S(4))), S(3)],
                     [Wedge((S(3), Susp(w))), S(2)]):
        r = check_hilton_milnor(summands, 10)
        assert isinstance(r.verdict, Equal), r.render()
        assert r.notes[0].startswith(f"{len(summands)} summands;")
    # each wedge child counts once per power, as if listed as a summand
    r = check_hilton_milnor([Wedge((S(2), S(2), S(4))), S(3)], 10)
    assert r.rhs == check_hilton_milnor([S(2), S(2), S(4), S(3)], 10).rhs
    # S^0, a product, a bare atom and a wedge with such a child are no
    # wedge of suspensions
    for bad, name in ((S(0), r"S\^0"), (Product((S(2), S(3))), r"S\^2 × S\^3"), (Atom("A", 1), "A"),
                      (Wedge((S(0), S(3))), r"S\^0 ∨ S\^3")):
        with pytest.raises(ValueError, match=f"^summand {name} is not a suspension or a positive sphere$"):
            check_hilton_milnor([bad, S(3)], 6)


def test_hilton_milnor_skips_unsupported():
    r = check_hilton_milnor([Susp(Atom("B", 1))], 6)
    # the atom has no declared series anywhere in the three routes
    assert r.verdict == Skipped("lhs: loop of suspension of B: atom B has no declared homology series")
    # Y has a declared series and is connected, so every route reaches
    # 1/(1 - t), though Y is not simply connected
    r = check_hilton_milnor([Susp(Atom("Y", 0, series=((1, 1), (1,))))], 6)
    assert isinstance(r.verdict, Equal) and r.rhs.coeffs == (1,) * 7
    # S^1 desuspends to S^0, which is not connected
    r = check_hilton_milnor([S(1), S(3)], 6)
    assert r.verdict == Skipped(
        "lhs: Bott-Samelson needs a connected argument, S^0 ∨ S^2 has connectivity -1"
    )


def test_porter_cases():
    assert isinstance(check_porter([S(2), S(2)], 12).verdict, Equal)
    assert isinstance(check_porter([S(3)], 8).verdict, Equal)
    assert isinstance(check_porter([S(2), S(4)], 10).verdict, Equal)
    # three 3-spheres: reciprocals add to 3(1-t^2) - 2, so P = 1/(1-3t^2)
    r = check_porter([S(3), S(3), S(3)], 10)
    assert isinstance(r.verdict, Equal)
    assert r.rhs.compare(closed_form([1], [1, 0, -3], 10)) is None


def test_wedge_case_simplex():
    K = build(3, [[1, 2, 3]])
    r = check_wedge_case(K, [S(2)] * 3, 10)
    assert isinstance(r.verdict, Equal)
    assert r.lhs.compare(closed_form([1], [1, -3], 10)) is None


def test_wedge_case_requires_simplex():
    with pytest.raises(ValueError):
        check_wedge_case(build(2, [[1], [2]]), [S(2), S(2)], 6)


def test_counterexample_difference():
    r = check_counterexample(5)
    assert r.verdict == FirstDifference(3, Fraction(20), Fraction(24))
    # the degree of first difference is stable under deeper truncations
    for N in (3, 4, 8, 12):
        rn = check_counterexample(N)
        assert isinstance(rn.verdict, FirstDifference)
        assert rn.verdict.degree == 3


def test_counterexample_reads_its_listing_at_the_weight_bound_it_reports():
    # the square's listing is complete at W = 1 and at W = N + 1 under the
    # degree cut N, the bound every check uses and the report states: the
    # report is the one its W = 1 series gives, and at N = 8 its verdict is
    # the difference in degree 3
    square, spaces = polyco.verify.counterexample_inputs()
    for N in (2, 3, 5, 8, 12):
        at_one = loop_decompose_wedge(square, spaces, 1)
        at_bound = loop_decompose_wedge(square, spaces, N + 1, degree_bound=N)
        assert at_one.truncation is None and at_bound.truncation is None, N
        assert at_bound.factors == at_one.factors, N
        r = check_counterexample(N)
        assert r == polyco.verify._report(r.name, N, at_one.series_product(N), r.rhs, r.notes), N
        assert r.W == N + 1 and f"(N={N}, W={N + 1})" in r.render(), N
    assert check_counterexample(8).verdict == FirstDifference(3, Fraction(20), Fraction(24))


def test_counterexample_sides():
    r = check_counterexample(6)
    assert r.lhs.compare(closed_form([1], [1, -4, 6, -4, 1], 6)) is None
    assert r.rhs.compare(closed_form([1, 2, 1], [1, -2, -1], 6)) is None


def test_disjoint_union_trivial():
    r = check_disjoint_union(build(1, [[1]]), build(1, [[1]]), [S(2), S(3)], 8)
    assert isinstance(r.verdict, Equal)


def test_disjoint_union_randomized():
    rng = random.Random(515)
    for _ in range(3):
        m1, m2 = rng.randint(1, 4), rng.randint(1, 4)
        K1 = build(m1, [rng.sample(range(1, m1 + 1), rng.randint(1, m1))
                        for _ in range(rng.randint(1, 4))])
        K2 = build(m2, [rng.sample(range(1, m2 + 1), rng.randint(1, m2))
                        for _ in range(rng.randint(1, 4))])
        spaces = [S(rng.randint(2, 4)) for _ in range(m1 + m2)]
        r = check_disjoint_union(K1, K2, spaces, 8)
        assert isinstance(r.verdict, Equal), r.render()


def seeded_gluings(seed, count):
    # K1 and K2 on at most 4 vertices each, glued on o of them along L, the
    # intersection of their facet traces on the overlap (None for o = 0),
    # with spheres and CP^∞ at the vertices
    rng = random.Random(seed)
    for _ in range(count):
        K1, K2 = random_complex(rng, 4), random_complex(rng, 4)
        o = rng.randint(0, min(K1.m, K2.m))
        L = None
        if o:
            offset = K1.m - o
            traces1 = [{v - offset for v in f if v > offset} for f in K1.facets]
            traces2 = [{v for v in f if v <= o} for f in K2.facets]
            L = build(o, [a & b for a in traces1 for b in traces2 if a & b])
        yield K1, K2, L, [rng.choice((S(2), S(3), S(4), CP_INFINITY)) for _ in range(K1.m + K2.m - o)]


def test_gluing_check_is_equal_on_seeded_gluings():
    # P(ΩC_K)·P(ΩC_L) = P(ΩC_K1)·P(ΩC_K2) for point codomains
    overlaps = Counter()
    for K1, K2, L, spaces in seeded_gluings(3101, 300):
        r = check_gluing(K1, K2, L, spaces, 8)
        assert r.verdict == Equal(), (K1, K2, L, r.render())
        assert r.name == ("disjoint-union" if L is None else "gluing")
        overlaps[L is None, L is not None and L.dim() >= 1] += 1
    assert min(overlaps.values()) >= 30 and len(overlaps) == 3, overlaps


def test_gluing_check_rejects_an_overlap_smaller_than_the_intersection():
    # glued along two points, the edge's series would read
    # FirstDifference(degree 4: 11 vs 12), a false verdict
    edge = build(2, [[1, 2]])
    with pytest.raises(ValueError, match="L misses the overlap face"):
        check_gluing(edge, edge, build(2, [[1], [2]]), [S(3), S(3)], 8)
    assert check_gluing(edge, edge, edge, [S(3), S(3)], 8).verdict == Equal()


def keeps_every_support(K, spaces, W, *, degree_bound=None):
    # a mutant wedge preset whose bracket rule keeps non-faces: the groups of
    # the full simplex, with K's own vertex factors
    full = loop_decompose_wedge(build(K.m, [range(1, K.m + 1)]), spaces, W, degree_bound=degree_bound)
    covered = set(K.vertices())
    kept = [f for f in full.factors if not isinstance(f.provenance, int) or f.provenance in covered]
    return replace(full, factors=tuple(kept))


def test_gluing_check_catches_a_rule_that_keeps_non_faces(monkeypatch):
    # each corner on its own vertex set: on the full vertex set the mutant's
    # brackets on a corner's absent vertices cancel between the two sides
    monkeypatch.setattr(polyco.verify, "loop_decompose_wedge", keeps_every_support)
    caught = Counter()
    for K1, K2, L, spaces in seeded_gluings(3101, 300):
        caught[L is None, check_gluing(K1, K2, L, spaces, 8).verdict != Equal()] += 1
    assert caught[False, True] >= 20 and caught[True, False] == 0, caught


def test_equal_verdicts_reproduce_at_higher_degree():
    checks = [
        (lambda N: check_hilton_milnor([S(3), S(5)], N), (13,)),
        # N=30 took minutes while brackets were enumerated one by one
        (lambda N: check_hilton_milnor([S(2), S(4)], N), (30,)),
        (lambda N: check_porter([S(2), S(2)], N), (13,)),
        # N=16 took minutes with dense Fraction series and no memo
        (lambda N: check_wedge_case(build(3, [[1, 2, 3]]), [S(2)] * 3, N), (13, 16)),
    ]
    for make, degrees in checks:
        low = make(8)
        assert isinstance(low.verdict, Equal)
        for N in degrees:
            high = make(N)
            assert isinstance(high.verdict, Equal)
            # the deeper run restricts to the shallower one
            assert high.lhs.coeffs[:9] == low.lhs.coeffs[:9]


def test_report_json_shape():
    r = check_counterexample(4)
    data = r.to_json()
    assert data["verdict"]["kind"] == "first_difference"
    assert data["verdict"]["degree"] == 3
    assert data["N"] == 4 and data["W"] == 5


def test_skipped_reasons_name_their_side_and_w_follows_n():
    # a seeded matrix of the five checks, with atoms outside the series
    # rules mixed in so that each check meets unsupported sides
    bare, declared = Atom("B", 1), Atom("A", 1, series=((1, 0, 1), (1,)))
    suspensions = [S(2), S(3), S(4), Susp(bare), Susp(declared)]
    spaces = [S(2), S(3), CP_INFINITY, bare, Susp(bare), Susp(declared)]
    rng = random.Random(8080)
    kinds, late = Counter(), 0
    for _ in range(60):
        N = rng.randint(2, 7)
        late += N >= 3  # the counterexample differs from degree 3 on
        picks = [rng.choice(spaces) for _ in range(rng.randint(1, 3))]
        m = len(picks)
        K1 = build(1, [[1]])
        reports = [
            check_hilton_milnor([rng.choice(suspensions) for _ in range(rng.randint(1, 3))], N),
            check_porter(picks, N),
            check_wedge_case(build(m, [range(1, m + 1)]), picks, N),
            check_disjoint_union(K1, K1, [rng.choice(spaces), rng.choice(spaces)], N),
            check_counterexample(N),
        ]
        for r in reports:
            assert r.W == N + 1 and r.to_json()["W"] == N + 1
            kinds[type(r.verdict).__name__] += 1
            if isinstance(r.verdict, Skipped):
                assert r.verdict.reason.startswith(("lhs: ", "rhs: ")), r.render()
                side = r.lhs if r.verdict.reason.startswith("lhs: ") else r.rhs
                assert r.verdict.reason.endswith(side.reason)
    assert kinds["Skipped"] > 50 and kinds["Equal"] > 50 and kinds["FirstDifference"] == late


def test_unsupported_rhs_skips_and_a_non_suspension_summand_raises():
    verdict = _verdict(PoincareSeries((1, 0, 1)), Unsupported("no rule"))
    assert verdict == Skipped("rhs: no rule")
    with pytest.raises(ValueError, match="summand S\\^0 is not a suspension or a positive sphere"):
        check_hilton_milnor([S(2), S(0)], 4)


def test_porter_checks_simple_connectivity_before_the_oracle():
    # the loop series of T is declared, but T is not simply connected: the
    # fiber's precondition raises before the free-product oracle could skip
    T = Atom("T", 0, loop=S(3))
    with pytest.raises(ValueError, match="vertex 1: wedge summand T must be simply connected"):
        check_porter([T, S(2)], 5)


def test_porter_needs_a_component_and_hilton_milnor_reports_disagreeing_oracles(monkeypatch):
    # the free-product oracle takes no empty wedge; and a Hall product that
    # matches the tensor-algebra oracle while the free-product oracle does
    # not is reported as the two oracles' difference
    with pytest.raises(ValueError, match="free product needs at least one component"):
        check_porter([], 6)
    monkeypatch.setattr(polyco.verify, "_loops_on_wedge", lambda spaces, N: PoincareSeries.one(N))
    r = check_hilton_milnor([S(3), S(5)], 8)
    assert r.notes[-1] == "tensor-algebra and free-product oracles disagree"
    assert r.verdict == FirstDifference(2, 1, 0) and r.rhs == PoincareSeries.one(8)


def test_a_stream_of_distinct_inputs_keeps_every_memo_within_its_bound():
    # 4,600 distinct checks and decompositions with their series, in one
    # process: each memo with a bound stays within it all along,
    # normalize's memo and the preset memos reach their bounds and never
    # pass them, and the only memo without a bound is liealg's Moebius
    # table, keyed by one weight
    memos = polyco_memos()
    filled = ("polyco.spacexpr._normal_node", "polyco.decomp._hilton_milnor_groups",
              "polyco.decomp._coproduct_groups")
    assert set(filled) <= memos.keys()
    unbounded = {name for name, memo in memos.items() if memo.cache_info().maxsize is None}
    assert unbounded == {"polyco.liealg._mobius_divisors"}
    for memo in memos.values():
        memo.cache_clear()
    rng = random.Random(7207)
    seen, peak = set(), Counter()
    while len(seen) < 4600:
        kind, N = rng.randrange(3), rng.randint(3, 9)
        spaces = tuple(S(rng.randint(2, 7)) for _ in range(rng.randint(2, 3)))
        if kind == 2:
            K = random_complex(rng, 4, allow_empty=False)
            spaces = tuple(S(rng.randint(2, 5)) for _ in range(K.m))
        key = (kind, N, spaces, K if kind == 2 else None)
        if key in seen:
            continue
        seen.add(key)
        if kind == 0:
            check_hilton_milnor(list(spaces), N)
        elif kind == 1:
            check_wedge_case(build(len(spaces), [range(1, len(spaces) + 1)]), list(spaces), N)
        else:
            loop_decompose_wedge(K, list(spaces), N + 1, degree_bound=N).series_product(N)
        for name, memo in memos.items():
            info = memo.cache_info()
            if info.maxsize is not None:
                assert info.currsize <= info.maxsize, (name, info)
                peak[name] = max(peak[name], info.currsize)
    for name in filled:
        assert peak[name] == memos[name].cache_info().maxsize, peak
