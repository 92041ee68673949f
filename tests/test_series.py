"""Exact truncated series arithmetic and the evaluation rules."""

import random
import re
from fractions import Fraction

import pytest

from _helpers import (
    dense_invert,
    dense_mul,
    free_product_series,
    random_expr,
    random_series,
    reference_em_product_series,
    reference_log_derivative,
)
from polyco.decomp import hilton_milnor
from polyco.series import (
    PoincareSeries,
    Unsupported,
    _em_product_series,
    _log_memo,
    _series,
    series_of,
    tensor_algebra_series,
)
from polyco.spacexpr import (
    CP_INFINITY,
    POINT,
    Atom,
    Loop,
    Product,
    Smash,
    Sphere,
    Susp,
    Wedge,
    normalize,
)

S = Sphere
one = PoincareSeries.one
mono = PoincareSeries.monomial


def geometric(N):
    # brute expansion of 1/(1-t) as an independent check on invert()
    return PoincareSeries.from_ints([1] * (N + 1))


def test_invert_geometric():
    p = one(3) - mono(1, 3)
    assert p.invert() == PoincareSeries.from_ints([1, 1, 1, 1])
    assert (one(6) - mono(1, 6)).invert() == geometric(6)


def test_invert_requires_unit():
    with pytest.raises(ValueError):
        (mono(1, 4)).invert()


def test_mismatched_truncation_rejected():
    with pytest.raises(ValueError):
        one(3) + one(4)
    with pytest.raises(ValueError):
        one(3) * one(4)


def test_invert_round_trip_randomized():
    rng = random.Random(17)
    for _ in range(100):
        p = random_series(rng, 8, unit=True)
        assert p * p.invert() == one(8)


def test_ring_laws_randomized():
    rng = random.Random(23)
    for _ in range(250):
        a = random_series(rng, 7)
        b = random_series(rng, 7)
        c = random_series(rng, 7)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == PoincareSeries.zero(7)


def test_series_examples():
    assert series_of(POINT, 4) == one(4)
    assert series_of(S(3), 6) == one(6) + mono(3, 6)
    p = series_of(Loop(S(3)), 6)
    assert p == PoincareSeries.from_ints([1, 0, 1, 0, 1, 0, 1])
    q = series_of(Loop(Wedge((S(2), S(2)))), 4)
    # tensor algebra on two degree-1 classes: coefficient 2^d
    assert q == PoincareSeries.from_ints([2**d for d in range(5)])
    assert str(PoincareSeries.from_ints([1, 0, 3])) == "1 + 3t^2"


def test_series_compare_example():
    a = PoincareSeries.from_rational([1], [1, -4, 6, -4, 1], 5)  # 1/(1-t)^4
    b = PoincareSeries.from_rational([1, 2, 1], [1, -2, -1], 5)
    assert a.compare(b) == (3, Fraction(20), Fraction(24))
    assert a.compare(a) is None


def test_wedge_product_smash_susp_rules():
    N = 8
    x = series_of(S(2), N)
    assert series_of(Wedge((S(2), S(2))), N) == one(N) + mono(2, N) * PoincareSeries.from_ints([2], N)
    assert series_of(Product((S(2), S(3))), N) == x * series_of(S(3), N)
    assert series_of(Smash((S(2), S(3))), N) == series_of(S(5), N)
    assert series_of(Susp(S(2)), N) == series_of(S(3), N)


def test_atom_series():
    cp = Atom("CP", 1, series=((1,), (1, 0, -1)))
    assert series_of(cp, 6) == PoincareSeries.from_ints([1, 0, 1, 0, 1, 0, 1])
    bare = Atom("B", 1)
    out = series_of(bare, 4)
    assert isinstance(out, Unsupported)


def test_atom_series_declared_with_lists():
    listed = Atom("CP", 1, series=([1], [1, 0, -1]))
    tupled = Atom("CP", 1, series=((1,), (1, 0, -1)))
    assert listed == tupled and hash(listed) == hash(tupled)
    p = series_of(Loop(Susp(listed)), 6)
    assert p == PoincareSeries.from_ints([1, 0, 1, 0, 2, 0, 4])
    assert p == series_of(Loop(Susp(tupled)), 6)


def test_atom_series_rejects_non_integer_coefficients():
    with pytest.raises(ValueError):
        Atom("A", 1, series=([1], [1, 0.5]))


def test_atom_series_needs_unit_constant_terms():
    for series in [((1,), (0, 1)), ((1,), (2, -1)), ((0, 1), (1,)), ((), (1,)), ((1,), ())]:
        with pytest.raises(ValueError, match="constant term 1"):
            Atom("A", 1, series=series)


def test_atom_series_must_vanish_through_its_connectivity():
    # the declared series of a c-connected atom is 1 through degree c
    with pytest.raises(ValueError, match=re.escape(
        "atom Y: declared series has homology in degree 2, at or below its connectivity 2"
    )):
        Atom("Y", 2, series=((1,), (1, 0, -1)))
    # against the expansion of num/den: the atom is accepted exactly when the
    # first nonzero coefficient of P - 1 lies above its connectivity
    rng = random.Random(3341)
    rejected = accepted = 0
    for _ in range(300):
        num = (1, *(rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(rng.randint(0, 5))))
        den = (1, *(rng.choice((0, 0, 0, 1, -1)) for _ in range(rng.randint(0, 5))))
        p = [0] * 12
        for d in range(12):  # p = num/den by long division, as den[0] = 1
            carried = sum(den[j] * p[d - j] for j in range(1, min(d, len(den) - 1) + 1))
            p[d] = (num[d] if d < len(num) else 0) - carried
        first = next((d for d in range(1, 12) if p[d]), 12)
        for c in range(-1, 11):
            if first <= c:
                with pytest.raises(ValueError, match=f"homology in degree {first}, "):
                    Atom("R", c, series=(num, den))
                rejected += 1
            else:
                assert Atom("R", c, series=(num, den)).series == (num, den)
                accepted += 1
    assert rejected > 500 and accepted > 500, (rejected, accepted)


def test_atom_series_with_negative_coefficient_is_unsupported():
    bad = Atom("A", 0, series=((1, -3), (1,)))
    out = series_of(bad, 4)
    assert isinstance(out, Unsupported)
    assert out.reason == "atom A: declared series has coefficient -3 in degree 1, not a Betti number"
    looped = series_of(Loop(Susp(bad)), 4)
    assert isinstance(looped, Unsupported) and "coefficient -3 in degree 1" in looped.reason
    # 1 - t^3 is a valid series through degree 2 and not beyond
    late = Atom("B", 1, series=((1, 0, 0, -1), (1,)))
    assert series_of(late, 2) == PoincareSeries.from_ints([1, 0, 0])
    assert isinstance(series_of(late, 3), Unsupported)


def test_from_ints_rejects_non_integers():
    # coefficients are ints only: a float, a bool or a Fraction is named, not converted
    for values, named in [([1, 2.5], "2.5"), ([1, True], "True"), ([Fraction(3, 1)], "Fraction(3, 1)")]:
        with pytest.raises(ValueError, match=r"must be integers, got \[" + re.escape(named)):
            PoincareSeries.from_ints(values)


def test_scalars_and_monomials_reject_non_integers():
    # k * p and monomial take ints only, as from_ints does; p * k is no product
    p = PoincareSeries.from_ints([1, 2, 3])
    for k, named in [(2.5, "2.5"), (True, "True"), (Fraction(1, 2), "Fraction(1, 2)")]:
        with pytest.raises(ValueError, match="must be integers, got " + re.escape(named)):
            k * p
        with pytest.raises(ValueError, match="must be integers, got " + re.escape(named)):
            PoincareSeries.monomial(1, 2, k)
        with pytest.raises(TypeError, match="unsupported operand"):
            p * k
    with pytest.raises(TypeError, match="unsupported operand"):
        p * 3
    assert (3 * p).coeffs == (3, 6, 9) and PoincareSeries.monomial(1, 2, -2).coeffs == (0, -2, 0)


def test_sums_take_series_only_and_truncations_are_nonnegative():
    # p + 1 and p - 1 are no sums, as p * 1 is no product; N = -2 is no truncation
    p = PoincareSeries.one(3)
    for k in (1, 2.5, None):
        with pytest.raises(TypeError, match="unsupported operand"):
            p + k
        with pytest.raises(TypeError, match="unsupported operand"):
            p - k
    assert (p + p).coeffs == (2, 0, 0, 0) and (p - p).coeffs == (0, 0, 0, 0)
    with pytest.raises(ValueError, match="truncation degree must be >= 0"):
        PoincareSeries.from_ints([1, 2], -2)
    assert PoincareSeries.from_ints([1, 2], 0).coeffs == (1,)


@pytest.mark.parametrize("N", [True, False, 2.5, 2.0, None, "2"])
def test_truncation_degree_must_be_an_integer(N):
    # True was read as degree 1, 2.5 ended in a TypeError
    dec = hilton_milnor([Sphere(2), Sphere(3)], 3)
    for evaluate in (lambda: series_of(Sphere(2), N), lambda: dec.series_product(N),
                     lambda: PoincareSeries.one(N)):
        with pytest.raises(ValueError, match="truncation degree must be an integer, got "):
            evaluate()
    assert dec.series_product(4) == series_of(Loop(Wedge((Sphere(3), Sphere(4)))), 4)


def test_constructors_reject_a_negative_truncation_degree():
    # one(-5) used to give the degree-0 series 1, zero(-1) an empty series
    for make in (lambda N: PoincareSeries.one(N), lambda N: PoincareSeries.zero(N),
                 lambda N: PoincareSeries.monomial(1, N), lambda N: PoincareSeries.from_ints([1], N)):
        for N in (-1, -3, -5):
            with pytest.raises(ValueError, match="truncation degree must be >= 0"):
                make(N)
        assert make(0).N == 0
    assert PoincareSeries.monomial(1, 0).coeffs == (0,) and PoincareSeries.zero(0).coeffs == (0,)


def test_from_rational_needs_unit_constant_term():
    # as for a declared Atom series, the denominator's constant term is 1
    with pytest.raises(ValueError, match="constant term 1"):
        PoincareSeries.from_rational([1], [2, -1], 12)
    assert PoincareSeries.from_rational([1], [1, -2], 4).coeffs == (1, 2, 4, 8, 16)


def test_rule_series_have_int_coefficients():
    N = 12
    for e in [Loop(S(4), 2), Loop(Wedge((S(3), S(5)))), Loop(Susp(Wedge((S(2), S(3)))))]:
        p = series_of(e, N)
        assert all(type(c) is int for c in p.coeffs), e


def test_sparse_kernels_match_dense_reference():
    rng = random.Random(4040)
    for trial in range(120):
        N = rng.randint(0, 40)
        integral = trial % 2 == 0
        density = rng.choice([0.1, 0.4, 1.0])
        a = random_series(rng, N, unit=trial % 3 != 0, integral=integral, density=density)
        b = random_series(rng, N, unit=True, integral=integral, density=density)
        assert a * b == dense_mul(a, b)
        assert b * a == dense_mul(a, b)
        if a.coeffs[0] == 1:
            assert a.invert() == dense_invert(a)
        assert b.invert() == dense_invert(b)


def test_power_matches_repeated_multiplication():
    rng = random.Random(4141)
    for _ in range(20):
        N = rng.randint(0, 20)
        p = random_series(rng, N, unit=True, integral=rng.random() < 0.5, density=0.5)
        expected = one(N)
        for k in range(9):
            assert p**k == expected
            expected = dense_mul(expected, p)
    with pytest.raises(ValueError):
        p ** -1


def test_powers_take_nonnegative_integer_exponents():
    # as from_ints, monomial and k * p take ints only: p ** True is no p and
    # p ** 2.0 no square
    p = PoincareSeries.from_ints([1, 2, 3])
    for k in (True, False, 2.0, Fraction(2), -1, None):
        with pytest.raises(ValueError, match="nonnegative integer exponent, got " + re.escape(repr(k))):
            p ** k
    assert p**2 == p * p and p**0 == one(2)


def test_log_derivatives_round_trip_and_match_the_dense_reference():
    # tP'/P has integer coefficients for P(0) = 1, and P is recovered from
    # it exactly, negative coefficients and sparse series included
    rng = random.Random(2121)
    for trial in range(150):
        N = rng.randint(0, 40)
        p = random_series(rng, N, unit=True, integral=True, density=rng.choice([0.1, 0.4, 1.0]))
        l = p.log_derivative()
        assert len(l) == N + 1 and l[0] == 0 and all(type(c) is int for c in l)
        assert PoincareSeries(l) == reference_log_derivative(p), p
        assert PoincareSeries.from_log_derivative(l, N) == p, p
        # log-derivatives add over products: summed multiples give the product of powers
        q = random_series(rng, N, unit=True, integral=True, density=0.5)
        k, j = rng.randint(0, 12), rng.randint(0, 3)
        total = [k * a + j * b for a, b in zip(l, q.log_derivative())]
        assert PoincareSeries.from_log_derivative(total, N) == p**k * q**j
    # 1/(1 - t) has tP'/P = t/(1 - t); a short l is padded with zeros
    assert PoincareSeries.from_log_derivative([0, 1, 1, 1, 1], 4) == PoincareSeries.from_ints([1] * 5)
    assert PoincareSeries.from_log_derivative([], 2) == one(2)
    # the memo next to the series memo is bounded too, and keeps Unsupported as it is
    assert _log_memo.cache_info().maxsize == _series.cache_info().maxsize == 1024
    # in sparse form: the (degree, coefficient) pairs of the dense log_derivative's nonzero entries
    e = Loop(S(4), 2)  # in normal form, as the factors of a decomposition are
    dense = series_of(e, 12).log_derivative()
    assert _log_memo(e, 12) == tuple((d, c) for d, c in enumerate(dense) if c) and len(_log_memo(e, 12)) > 3
    for trial in range(60):
        e = Loop(Susp(Smash(tuple(S(rng.randint(1, 4)) for _ in range(rng.randint(1, 3))))))
        N = rng.randint(0, 30)
        dense, sparse = _series(normalize(e), N).log_derivative(), _log_memo(normalize(e), N)
        assert [c for _, c in sparse] == [c for c in dense if c], e
        assert all(dense[d] == c for d, c in sparse) and [d for d, _ in sparse] == sorted({d for d, _ in sparse})
    assert _log_memo(Loop(S(9)), 7) == ()  # connectivity 7 >= N: the series 1
    assert _log_memo(S(0), 5) == _series(S(0), 5) and isinstance(_log_memo(S(0), 5), Unsupported)


def test_log_derivatives_need_unit_series():
    for coeffs in ([2, 1], [0, 1, 1], [-1, 3]):
        with pytest.raises(ValueError, match="log-derivative needs constant term 1"):
            PoincareSeries.from_ints(coeffs).log_derivative()
    with pytest.raises(ValueError, match="constant term 0, got 1"):
        PoincareSeries.from_log_derivative([1, 2], 3)
    with pytest.raises(ValueError, match="not the log-derivative of an integer series: degree 2"):
        PoincareSeries.from_log_derivative([0, 0, 1], 3)  # would give q_2 = 1/2
    with pytest.raises(ValueError, match=r"must be integers, got \[2.0\]"):
        PoincareSeries.from_log_derivative([0, 2.0], 3)
    with pytest.raises(ValueError, match="truncation degree must be >= 0"):
        PoincareSeries.from_log_derivative([0], -1)


def test_em_product_series_matches_multiply_invert():
    # every list of up to two degrees in 1..N+1, then longer seeded lists
    for N in range(0, 13):
        degrees = range(1, N + 2)
        lists = [[d] for d in degrees] + [[d, e] for d in degrees for e in degrees]
        for ds in lists:
            assert _em_product_series(ds, N) == reference_em_product_series(ds, N), (ds, N)
    rng = random.Random(4242)
    for _ in range(40):
        N = rng.randint(1, 40)
        ds = [rng.randint(1, N) for _ in range(rng.randint(0, 5))]
        assert _em_product_series(ds, N) == reference_em_product_series(ds, N), (ds, N)


def test_series_memo_is_bounded_and_agrees_with_fresh_evaluation():
    assert _series.cache_info().maxsize is not None
    rng = random.Random(4343)
    exprs = [random_expr(rng) for _ in range(200)]
    warm = []
    for e in exprs:
        try:
            warm.append(series_of(e, 6))
        except ValueError:
            warm.append(None)
    _series.cache_clear()
    for e, before in zip(exprs, warm):
        if before is not None:
            assert series_of(e, 6) == before


def test_bott_samelson_consistency():
    # Loop(Susp(e)) equals 1/(1 - reduced(e)) for supported simply connected e
    N = 10
    cases = [S(2), S(4), Wedge((S(2), S(3))), Smash((Loop(S(3)), Loop(S(3))))]
    for e in cases:
        direct = series_of(Loop(Susp(e)), N)
        base = series_of(e, N)
        assert not isinstance(direct, Unsupported)
        assert direct == tensor_algebra_series(base.reduced())


def test_bott_samelson_needs_a_connected_base():
    # ΩΣX is the tensor algebra on the reduced homology of X for any
    # connected X, simply connected or not
    assert series_of(Loop(Susp(Wedge((S(1), S(1))))), 4).coeffs == (1, 2, 4, 8, 16)  # 1/(1 - 2t)
    torus = Product((S(1), S(1)))
    out = series_of(Loop(Susp(torus)), 6)
    assert out == tensor_algebra_series(series_of(torus, 6).reduced())
    assert out.coeffs == (1, 2, 5, 12, 29, 70, 169)  # 1/(1 - 2t - t^2)
    # the factor ΩΣ(S^1 ∨ S^3) of a one-summand listing, which is Ω(S^2 ∨ S^4)
    hm = hilton_milnor([Wedge((S(1), S(3)))], 3).series_product(6)
    assert hm.coeffs == (1, 1, 1, 2, 3, 4, 6)
    assert hm == series_of(Loop(Wedge((S(2), S(4)))), 6)
    # a base that is not connected stays outside the rule
    out = series_of(Loop(Susp(Wedge((S(0), S(2))))), 6)
    assert out == Unsupported("Bott-Samelson needs a connected argument, S^0 ∨ S^2 has connectivity -1")


def test_free_product_single_component():
    N = 8
    p = series_of(Loop(S(3)), N)
    assert free_product_series([p]) == p
    with pytest.raises(ValueError, match="free product needs at least one component"):
        free_product_series([])


def test_free_product_rule_on_wedge():
    N = 10
    direct = series_of(Loop(Wedge((S(3), S(5)))), N)
    parts = [series_of(Loop(S(3)), N), series_of(Loop(S(5)), N)]
    assert direct == free_product_series(parts)


def test_loop_even_sphere_splits():
    # Loop S^{2n} has the series of S^{2n-1} x Loop S^{4n-1}
    for n in range(1, 5):
        N = 24
        lhs = series_of(Loop(S(2 * n)), N)
        rhs = series_of(S(2 * n - 1), N) * series_of(Loop(S(4 * n - 1)), N)
        assert lhs == rhs


def test_iterated_loop_sphere():
    # Omega^2 S^3 is rationally a circle
    assert series_of(Loop(S(3), 2), 5) == one(5) + mono(1, 5)
    # Omega^2 S^4 carries degrees 2 and 5
    p = series_of(Loop(S(4), 2), 7)
    expected = (one(7) - mono(2, 7)).invert() * (one(7) + mono(5, 7))
    assert p == expected
    out = series_of(Loop(S(3), 3), 5)
    assert isinstance(out, Unsupported)


def test_unsupported_reason_chains():
    bad = Atom("B", 1)
    out = series_of(Product((S(2), bad)), 4)
    assert isinstance(out, Unsupported)
    assert "B" in out.reason and "product factor" in out.reason


def test_loop_of_an_underflowing_connectivity_is_unsupported():
    # ΩS^0 has connectivity -1, so its suspension is not simply connected
    out = series_of(Loop(Susp(Loop(S(0)))), 4)
    assert isinstance(out, Unsupported)
    assert out.reason.endswith("ΩS^0 has connectivity -1")


def test_normalize_preserves_series_randomized():
    # evaluate the raw tree through the rule engine, bypassing normalization,
    # and compare with the normalized evaluation wherever both are supported
    from polyco.series import _series

    rng = random.Random(31)
    checked = 0
    for _ in range(400):
        e = random_expr(rng)
        try:
            raw = _series(e, 6)
        except ValueError:
            continue
        cooked = series_of(e, 6)
        if isinstance(raw, Unsupported) or isinstance(cooked, Unsupported):
            continue
        assert raw == cooked
        checked += 1
    assert checked >= 100


def test_powers_are_read_without_copies():
    # a billion-fold wedge, product or smash costs a few multiplications,
    # not a billion copies
    k = 10**9
    N = 6
    loops = series_of(Loop(Wedge((Sphere(3),), (k,))), N)  # 1/(1 - k t^2)
    assert loops == PoincareSeries.from_ints([1, 0, k, 0, k**2, 0, k**3])
    assert series_of(Wedge((Sphere(2),), (k,)), N) == PoincareSeries.from_ints([1, 0, k], N)
    assert series_of(Product((Sphere(2),), (k,)), N).coeffs[:3] == (1, 0, k)
    assert series_of(Smash((Loop(Sphere(3)),), (k,)), N) == PoincareSeries.one(N)
    three = series_of(Loop(Wedge((Sphere(3), Sphere(4)), (3, 2))), 12)
    p, q = series_of(Loop(Sphere(3)), 12), series_of(Loop(Sphere(4)), 12)
    assert three == free_product_series([p, p, p, q, q])
    assert 3 * p == p + p + p


def test_loops_on_a_wedge_match_the_free_product_of_the_summands():
    # verify's free-product oracle is series_of on Loop(Wedge(...)); the
    # free-product formula over the looped summands is the reference
    declared = Atom("A", 1, series=((1, 0, 1), (1,)))
    looped = Atom("Z", 2, loop=Atom("ΩZ", 1, series=((1,), (1, 0, -1))))
    pool = [S(2), S(3), S(4), S(5), POINT, CP_INFINITY, Susp(declared), looped,
            Product((S(2), S(3))), Wedge((S(3), S(4)))]
    rng = random.Random(2626)
    repeated = 0
    for _ in range(240):
        N = rng.randint(0, 14)
        spaces = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        repeated += len(set(spaces)) < len(spaces)
        got = series_of(Loop(Wedge(tuple(spaces))), N)
        assert got == free_product_series([series_of(Loop(x), N) for x in spaces]), spaces
        assert all(type(c) is int for c in got.coeffs)
    assert repeated > 40
