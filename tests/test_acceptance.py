"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  All comparisons are exact: the series arithmetic is rational and
the structural checks are equalities of canonical forms.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product as iproduct

from _helpers import multidegree, random_expr, random_series, witt_dimension
from polyco.decomp import (
    evaluate_special,
    loop_decompose_contractible,
    loop_decompose_wedge,
)
from polyco.liealg import hall_basis, plain_alphabet
from polyco.scomplex import build, disjoint_union, homology
from polyco.series import PoincareSeries
from polyco.spacexpr import (
    Atom,
    Loop,
    PairAssignment,
    Smash,
    Sphere,
    Susp,
    conn,
    normalize,
)
from polyco.verify import (
    Equal,
    FirstDifference,
    check_counterexample,
    check_disjoint_union,
    check_hilton_milnor,
    check_porter,
    check_wedge_case,
    counterexample_inputs,
)

S = Sphere


def simplex(m):
    return build(m, [list(range(1, m + 1))])


def boundary_simplex(m):
    return build(m, [list(c) for c in combinations(range(1, m + 1), m - 1)])


def rational(num, den, N):
    return PoincareSeries.from_rational(num, den, N)


def test_criterion_1_hall_counts_equal_witt():
    checked = 0
    for k in (1, 2, 3):
        alphabet = plain_alphabet(k)
        counts = Counter()
        for b in hall_basis(alphabet, 8):
            counts[multidegree(b, alphabet)] += 1
        for total in range(1, 9):
            for md in iproduct(range(total + 1), repeat=k):
                if sum(md) != total:
                    continue
                assert counts.get(md, 0) == witt_dimension(md), md
                checked += 1
    print(f"PASS criterion 1: Lyndon counts match the Witt formula "
          f"({checked} multidegrees, alphabets of 1-3 letters, weight <= 8)")


def test_criterion_2_hilton_milnor_identity():
    r = check_hilton_milnor([S(3), S(5)], 24)
    assert isinstance(r.verdict, Equal), r.render()
    assert r.rhs.compare(rational([1], [1, 0, -1, 0, -1], 24)) is None
    # the same product computed at the stated weight bound directly
    from polyco.decomp import hilton_milnor

    prod = hilton_milnor([S(2), S(4)], 25, degree_bound=24).series_product(24)
    assert prod.compare(rational([1], [1, 0, -1, 0, -1], 24)) is None

    r2 = check_hilton_milnor([S(2), S(2)], 12)
    assert isinstance(r2.verdict, Equal), r2.render()
    assert r2.rhs.compare(rational([1], [1, -2], 12)) is None
    print("PASS criterion 2: Hilton-Milnor products equal 1/(1-t^2-t^4) at N=24 "
          "and 1/(1-2t) at N=12 exactly")


def test_criterion_3_porter_check():
    r = check_porter([S(2), S(2)], 12)
    assert isinstance(r.verdict, Equal), r.render()
    assert r.lhs.compare(rational([1], [1, -2], 12)) is None
    print("PASS criterion 3: Porter factorization of loops on S^2 v S^2 "
          "matches the free-product oracle at N=12")


def test_criterion_4_delta_degeneration():
    N = 10
    dec = loop_decompose_wedge(simplex(3), [S(2)] * 3, N + 1, degree_bound=N)
    prod = dec.series_product(N)
    assert prod.compare(rational([1], [1, -3], N)) is None
    r = check_wedge_case(simplex(3), [S(2)] * 3, N)
    assert isinstance(r.verdict, Equal)
    print("PASS criterion 4: the wedge decomposition over the 2-simplex "
          "multiplies out to 1/(1-3t) at N=10 exactly")


def test_criterion_5_discrete_degeneration():
    for m in range(1, 7):
        K = build(m, [[i] for i in range(1, m + 1)])
        spaces = [Atom(f"X{i}", 1) for i in range(1, m + 1)]
        dec = loop_decompose_wedge(K, spaces, 5)
        assert len(dec.factors) == m
        assert dec.bracket_factors() == ()
        assert [f.provenance for f in dec.factors] == list(range(1, m + 1))
        assert [f.expr for f in dec.factors] == [Loop(x) for x in spaces]
    print("PASS criterion 5: discrete complexes give exactly the m per-vertex "
          "factors and no bracket factors, m <= 6")


def _counterexample_oracle(N):
    # independent expansions: 1/(1-t)^4 has binomial coefficients; the other
    # side is (1+t)^2 times the recurrence a_n = 2 a_{n-1} + a_{n-2}
    binom = [Fraction((n + 3) * (n + 2) * (n + 1), 6) for n in range(N + 1)]
    a = [Fraction(1), Fraction(2)]
    while len(a) < N + 1:
        a.append(2 * a[-1] + a[-2])
    conv = [a[n] + (2 * a[n - 1] if n >= 1 else 0) + (a[n - 2] if n >= 2 else 0)
            for n in range(N + 1)]
    return binom, conv


def test_criterion_6_square_reproduction():
    square, cps = counterexample_inputs()
    dec = loop_decompose_wedge(square, cps, 1)
    assert dec.factor_multiset() == Counter({S(1): 4, Loop(S(3)): 4})

    N = 5
    r = check_counterexample(N)
    assert r.verdict == FirstDifference(3, Fraction(20), Fraction(24))
    binom, conv = _counterexample_oracle(N)
    assert list(r.lhs.coeffs) == binom
    assert list(r.rhs.coeffs) == conv
    assert binom[3] == 20 and conv[3] == 24
    print("PASS criterion 6: the square with CP^infinity vertices gives "
          "{S^1 x4, Omega S^3 x4}; the join comparison first differs at "
          "degree 3 with 20 vs 24")


def test_criterion_7_cojoin_consistency():
    A1, A2 = Atom("A1", 1), Atom("A2", 1)
    two = build(2, [[1], [2]])
    pairs = PairAssignment.path_fibrations([A1, A2])
    dec = loop_decompose_contractible(two, pairs, 1)
    assert len(dec.factors) == 1
    factor = dec.factors[0].expr
    assert factor == Loop(Susp(Smash((Loop(A1), Loop(A2)))), 2)
    special = evaluate_special(two, pairs)
    assert normalize(factor) == normalize(Loop(special))
    print("PASS criterion 7: the contractible-domain decomposition of two "
          "points is Omega^2 Sigma(Omega A1 smash Omega A2), matching the "
          "looped cojoin")


def test_criterion_8_missing_face_filter():
    for m in (3, 4):
        K = boundary_simplex(m)
        pairs = PairAssignment.path_fibrations([S(2)] * m)
        dec = loop_decompose_contractible(K, pairs, 5)
        assert dec.factors, f"no factors at m={m}"
        full = tuple(range(1, m + 1))
        for f in dec.factors:
            assert f.provenance.support == full
    print("PASS criterion 8: over boundary simplices every bracket class has "
          "full support (m=3 and m=4 at W=5)")


def test_criterion_9_homology():
    for m in range(3, 7):
        prof = homology(boundary_simplex(m))
        assert prof.ranks == tuple(1 if d == m - 2 else 0 for d in range(m - 1))
    square = build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    assert homology(square).ranks == (0, 1)
    print("PASS criterion 9: boundary simplices have the homology of "
          "S^{m-2} for m=3..6 and the square has ranks [0, 1]")


def test_criterion_10_disjoint_union():
    rng = random.Random(8128)
    N = 8
    W = N + 1
    for trial in range(3):
        m1, m2 = rng.randint(1, 4), rng.randint(1, 4)
        K1 = build(m1, [rng.sample(range(1, m1 + 1), rng.randint(1, m1))
                        for _ in range(rng.randint(1, 4))])
        K2 = build(m2, [rng.sample(range(1, m2 + 1), rng.randint(1, m2))
                        for _ in range(rng.randint(1, 4))])
        spaces = [S(rng.randint(2, 4)) for _ in range(m1 + m2)]

        direct = loop_decompose_wedge(disjoint_union(K1, K2), spaces, W, degree_bound=N)
        d1 = loop_decompose_wedge(K1, spaces[:m1], W, degree_bound=N)
        d2 = loop_decompose_wedge(K2, spaces[m1:], W, degree_bound=N)
        assert direct.factor_multiset() == d1.factor_multiset() + d2.factor_multiset(), (K1, K2)

        lhs = direct.series_product(N)
        rhs = d1.series_product(N) * d2.series_product(N)
        assert lhs.compare(rhs) is None, (K1, K2)
        report = check_disjoint_union(K1, K2, spaces, N)
        assert report.verdict == Equal() and (report.lhs, report.rhs) == (lhs, rhs), (K1, K2)
    print("PASS criterion 10: disjoint unions decompose as the union of the "
          "component factor multisets with multiplicative series "
          "(3 randomized pairs, N=8)")


def test_criterion_11a_normalize_idempotent():
    rng = random.Random(1009)
    for _ in range(250):
        e = random_expr(rng)
        n = normalize(e)
        assert normalize(n) == n
    print("PASS criterion 11a: normalize is idempotent on 250 random "
          "expression trees")


def test_criterion_11b_series_ring_laws():
    rng = random.Random(1013)
    for _ in range(250):
        a = random_series(rng, 7)
        b = random_series(rng, 7)
        c = random_series(rng, 7)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        u = random_series(rng, 7, unit=True)
        assert u * u.invert() == PoincareSeries.one(7)
    print("PASS criterion 11b: series ring laws hold on 250 random triples")


def test_criterion_11c_truncation_soundness():
    rng = random.Random(1019)
    checked = 0
    while checked < 200:
        m = rng.randint(2, 4)
        faces = [rng.sample(range(1, m + 1), rng.randint(1, m))
                 for _ in range(rng.randint(1, 4))]
        K = build(m, faces)
        spaces = [S(rng.randint(2, 4)) for _ in range(m)]
        dec = loop_decompose_wedge(K, spaces, rng.randint(1, 3))
        for f in dec.bracket_factors():
            assert conn(f.expr) >= f.provenance.weight, f
            checked += 1
    print(f"PASS criterion 11c: every bracket factor satisfies "
          f"conn >= weight ({checked} factors over random complexes)")


def test_criterion_11d_monotone_in_weight():
    rng = random.Random(1021)
    for _ in range(200):
        m = rng.randint(1, 3)
        faces = [rng.sample(range(1, m + 1), rng.randint(1, m))
                 for _ in range(rng.randint(0, 4))]
        K = build(m, faces)
        spaces = [Atom(f"X{i}", 1) for i in range(1, m + 1)]
        W = rng.randint(1, 3)
        small = loop_decompose_wedge(K, spaces, W)
        large = loop_decompose_wedge(K, spaces, W + 1)
        assert large.factors[: len(small.factors)] == small.factors
    print("PASS criterion 11d: raising the weight bound only appends factors "
          "(200 random instances)")
