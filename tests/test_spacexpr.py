"""Space-expression normalization, equality, connectivity, rendering."""

import json
import math
import random

import pytest

from _helpers import (
    random_expr,
    reference_conn,
    reference_normalize,
    reference_render,
    reference_series,
    reference_sort_key,
    with_repeats,
)
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
    sort_key,
    two_points,
)
from polyco.series import series_of

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
    assert n.children == (X, Y) and n.powers == (2, 1)
    # equal children merge into one child with a power: a wedge of two
    # copies is not one copy
    assert normalize(Wedge((X, X))) == Wedge((X,), (2,)) != X


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


def test_powers_merge_adjacent_equal_children():
    assert Smash((X, X, Y)) == Smash((X, Y), (2, 1))
    assert Smash((X, X), (2, 3)) == Smash((X,), (5,))
    # only neighbours merge; normalize sorts first
    assert Wedge((X, Y, X)).powers == (1, 1, 1)
    assert normalize(Wedge((X, Y, X))) == Wedge((X, Y), (2, 1))
    assert render(Smash((X, X, Y))) == "X^∧2 ∧ Y"
    assert normalize(Smash((Smash((X, Y), (2, 1)),), (3,))) == Smash((X, Y), (6, 3))
    assert normalize(Loop(Product((S(3),), (2,)))) == Product((Loop(S(3)),), (2,))
    assert normalize(Smash((S(2),), (3,))) == S(6)
    assert conn(Smash((Loop(S(3)),), (2,))) == 3


@pytest.mark.parametrize(
    "children, powers",
    [((X,), (0,)), ((X,), (-1,)), ((X,), (1.0,)), ((X,), (True,)), ((X,), ("2",)),
     ((X,), (1, 1)), ((X, Y), (1,))],
)
def test_powers_must_be_positive_integers_one_per_child(children, powers):
    with pytest.raises(ValueError, match="needs one integer power >= 1 per child"):
        Smash(children, powers)


def test_powers_match_the_expanded_reference():
    # normalize, render, conn, sort order and series read the powers; the
    # references spell every power out as copies, as the expanded form did
    rng = random.Random(20261018)
    normals = []
    for _ in range(400):
        e = with_repeats(rng, random_expr(rng))
        n = normalize(e)
        assert n == reference_normalize(e)
        assert render(n) == reference_render(n)
        assert render(e) == reference_render(e)
        try:
            c = conn(e)
        except ConnectivityUnderflowError:
            with pytest.raises(ConnectivityUnderflowError):
                reference_conn(e)
        else:
            assert c == reference_conn(e)
        assert series_of(e, 8) == reference_series(n, 8)
        normals.append(n)
    for a, b in zip(normals, normals[1:] + normals[:1]):
        new = (sort_key(a) > sort_key(b)) - (sort_key(a) < sort_key(b))
        old = (reference_sort_key(a) > reference_sort_key(b)) - (
            reference_sort_key(a) < reference_sort_key(b)
        )
        assert new == old, (render(a), render(b))


def _expanded_json(data):
    # the JSON form before powers: every power spelled out as repeated children
    if isinstance(data, list):
        return [_expanded_json(x) for x in data]
    if not isinstance(data, dict):
        return data
    out = {k: _expanded_json(v) for k, v in data.items() if k != "powers"}
    if "powers" in data:
        out["children"] = [c for c, p in zip(out["children"], data["powers"]) for _ in range(p)]
    return out


def test_expanded_json_loads_to_the_same_value():
    rng = random.Random(77)
    for _ in range(200):
        n = normalize(with_repeats(rng, random_expr(rng)))
        new = expr_to_json(n)
        old = _expanded_json(new)
        assert '"powers"' not in json.dumps(old)
        assert expr_from_json(new) == n
        assert normalize(expr_from_json(old)) == n
    # a smash of three loop spaces as written before the powers key
    loop = {"kind": "loop", "count": 1, "child": {"kind": "sphere", "n": 2}}
    old = {"kind": "susp", "child": {"kind": "smash", "children": [loop, loop, loop]}}
    new = {"kind": "susp", "child": {"kind": "smash", "children": [loop], "powers": [3]}}
    assert expr_from_json(old) == expr_from_json(new) == Susp(Smash((Loop(S(2)),), (3,)))
    assert expr_to_json(expr_from_json(old)) == new


@pytest.mark.parametrize(
    "powers, message",
    [([0], r"needs one integer power >= 1 per child, got \[0\]"),
     ([2.0], r"got \[2.0\]"),
     ([True], r"got \[True\]"),
     ([1, 1], r"got \[1, 1\] for 1 children")],
)
def test_json_powers_are_validated(powers, message):
    data = {"kind": "wedge", "children": [{"kind": "sphere", "n": 2}], "powers": powers}
    with pytest.raises(ValueError, match=message):
        expr_from_json(data)


@pytest.mark.parametrize("num, den", [([True, 2.0], [1]), ([1], [True]), ([1, 2.0], [1])])
def test_json_series_coefficients_must_be_integers(num, den):
    # neither a bool nor an integral float passes as an integer coefficient
    data = {"kind": "atom", "name": "A", "conn": 1, "series": {"num": num, "den": den}}
    with pytest.raises(ValueError, match="declared series coefficients must be integers"):
        expr_from_json(data)


@pytest.mark.parametrize("flag", ["false", 1, None, 0, "true"])
def test_json_contractible_flag_must_be_a_boolean(flag):
    # a truthy string is not read as true, nor null as false
    data = {"kind": "atom", "name": "X", "conn": 1, "contractible": flag}
    with pytest.raises(ValueError, match=f'atom "contractible" must be true or false, got {flag!r}'):
        expr_from_json(data)


def test_json_contractible_flag_is_read():
    data = {"kind": "atom", "name": "X", "conn": 1}
    assert normalize(expr_from_json(data)) == Atom("X", 1)
    assert normalize(expr_from_json({**data, "contractible": False})) == Atom("X", 1)
    assert normalize(expr_from_json({**data, "contractible": True})) == POINT
