"""Space-expression normalization, equality, connectivity, rendering."""

import math
import random

import pytest

from _helpers import random_expr
from polyco.scomplex import build
from polyco.spacexpr import (
    CP_INFINITY,
    POINT,
    Atom,
    ConnectivityUnderflowError,
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
    expr_from_json,
    expr_to_json,
    normalize,
    render,
    two_points,
)

S = Sphere
X = Atom("X", 1)
Y = Atom("Y", 2)


def test_sphere_arithmetic():
    assert normalize(Smash((S(2), S(3)))) == S(5)
    assert normalize(Susp(S(4))) == S(5)
    assert normalize(Smash((S(0), X))) == X
    assert normalize(Smash((S(0), S(0)))) == S(0)
    assert normalize(Smash(())) == S(0)


def test_point_absorption():
    assert normalize(Smash((X, POINT))) == POINT
    assert normalize(Wedge((X, POINT))) == X
    assert normalize(Product((POINT, POINT))) == POINT
    assert normalize(Wedge(())) == POINT
    assert normalize(Susp(POINT)) == POINT
    assert normalize(Loop(POINT, 3)) == POINT


def test_contractible_atom_vanishes():
    P = Atom("PX", 0, contractible=True)
    assert normalize(P) == POINT
    assert normalize(Smash((X, P))) == POINT
    assert normalize(Loop(P)) == POINT


def test_flattening_and_sorting():
    e = Wedge((Wedge((Y, X)), X))
    n = normalize(e)
    assert isinstance(n, Wedge)
    assert n.children == (X, X, Y)
    # duplicates are kept: a wedge of two copies is not one copy
    assert normalize(Wedge((X, X))) != X


def test_loop_rules():
    assert normalize(Loop(Loop(X, 2))) == Loop(X, 3)
    assert normalize(Loop(Product((S(3), S(5))))) == Product(
        (Loop(S(3)), Loop(S(5)))
    )
    assert normalize(Loop(CP_INFINITY)) == S(1)
    assert normalize(Loop(CP_INFINITY, 2)) == Loop(S(1))
    # no rule for loops of bare spheres or atoms: they stay symbolic
    assert normalize(Loop(S(1))) == Loop(S(1))
    assert normalize(Loop(X)) == Loop(X)


def test_map_from_susp_reduction():
    # two points realize to S^0, so the mapping space is a single loop space
    e = MapFromSusp(two_points(), Susp(X))
    assert normalize(e) == Loop(Susp(X))
    assert normalize(Loop(e)) == Loop(Susp(X), 2)
    # a contractible certified complex kills the mapping space
    cone = build(2, [[1, 2]])
    assert normalize(MapFromSusp(cone, Susp(X))) == POINT
    # three points give two circles, hence a two-fold product
    three = build(3, [[1], [2], [3]])
    assert normalize(MapFromSusp(three, Susp(X))) == Product(
        (Loop(Susp(X)), Loop(Susp(X)))
    )
    # the empty complex realizes to S^{-1}: mapping out of S^0 is the identity
    empty = build(2, [])
    assert normalize(MapFromSusp(empty, Susp(X))) == Susp(X)


def test_map_from_susp_uncertified_stays_symbolic():
    square = build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    e = MapFromSusp(square, Susp(X))
    assert normalize(e) == e


def test_normalize_idempotent_randomized():
    rng = random.Random(20240812)
    for _ in range(300):
        e = random_expr(rng)
        n = normalize(e)
        assert normalize(n) == n


def test_expr_equal_permutation_invariance():
    assert expr_equal(Wedge((X, Y)), Wedge((Y, X)))
    assert expr_equal(Product((X, Y, X)), Product((X, X, Y)))
    assert expr_equal(Smash((S(1), X)), Smash((X, S(1))))
    assert not expr_equal(Wedge((X, X)), Wedge((X,)))


def test_expr_equal_is_equivalence_randomized():
    rng = random.Random(3)
    exprs = [random_expr(rng) for _ in range(40)]
    for e in exprs:
        assert expr_equal(e, e)
    for a in exprs[:12]:
        for b in exprs[:12]:
            assert expr_equal(a, b) == expr_equal(b, a)


def test_conn_values():
    assert conn(POINT) == math.inf
    assert conn(S(3)) == 2
    assert conn(Loop(S(3))) == 1
    assert conn(Smash((Loop(S(3)), Loop(S(3))))) == 3  # bottom cell degree 4
    assert conn(Susp(X)) == 2
    assert conn(Wedge((S(2), S(5)))) == 1
    assert conn(Loop(S(1))) == -1  # legal: looping a connected space


def test_conn_underflow():
    with pytest.raises(ConnectivityUnderflowError):
        conn(Loop(S(1), 2))
    with pytest.raises(ConnectivityUnderflowError):
        conn(Loop(Wedge((S(1), S(1))), 2))


def test_pair_assignment_flags():
    pairs = PairAssignment.path_fibrations([S(2), S(3)])
    assert pairs.m == 2
    assert pairs.domain_contractible(1)
    assert not pairs.codomain_is_point(1)
    assert pairs.simply_connected(2)
    const = PairAssignment.constant_maps([S(2)])
    assert const.codomain_is_point(1)


def test_render_notation():
    assert render(normalize(Loop(Susp(Smash((Loop(X), Loop(Y))))))) == "ΩΣ(ΩX ∧ ΩY)"
    assert render(Loop(S(3), 2)) == "Ω^2S^3"
    assert render(normalize(Smash((X, X, Y)))) == "X^∧2 ∧ Y"
    assert render(POINT) == "*"


def test_json_round_trip():
    rng = random.Random(11)
    for _ in range(60):
        e = normalize(random_expr(rng))
        assert expr_from_json(expr_to_json(e)) == e


@pytest.mark.parametrize(
    "data, message",
    [
        ({"kind": "sphere", "n": 2.5}, 'sphere "n" must be an integer, got 2.5'),
        ({"kind": "sphere", "n": True}, 'sphere "n" must be an integer, got True'),
        ({"kind": "loop", "count": 1.9, "child": {"kind": "sphere", "n": 3}},
         'loop "count" must be an integer, got 1.9'),
        ({"kind": "atom", "name": "X", "conn": 1.5}, 'atom "conn" must be an integer, got 1.5'),
    ],
)
def test_json_rejects_non_integer_fields(data, message):
    # no truncation to int, and no boolean read as 0 or 1
    with pytest.raises(ValueError, match=message):
        expr_from_json(data)
