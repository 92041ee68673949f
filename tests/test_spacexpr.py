"""Space-expression normalization, equality, connectivity, rendering."""

import json
import math
import random
import time

import pytest

from _helpers import (
    _ReferenceUnderflow,
    random_expr,
    reference_conn,
    reference_normal_fold,
    reference_normalize,
    reference_render,
    reference_series,
    reference_smash,
    reference_sort_key,
    smash_alphabet,
    two_points,
    with_repeats,
)
from polyco.scomplex import build
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
    _RANK,
    _normal_node,
    _plan,
    conn,
    expr_from_json,
    expr_to_json,
    normalize,
    render,
    sort_key,
)
from polyco.series import _series, series_of

S = Sphere
X = Atom("X", 1)
Y = Atom("Y", 2)


@pytest.mark.parametrize("make, message", [
    (lambda: S(True), "sphere dimension must be an integer, got True"),
    (lambda: S(2.5), "sphere dimension must be an integer, got 2.5"),
    (lambda: S(2.0), "sphere dimension must be an integer, got 2.0"),
    (lambda: Loop(S(2), 2.5), "loop iteration count must be an integer, got 2.5"),
    (lambda: Loop(S(2), True), "loop iteration count must be an integer, got True"),
    (lambda: Atom("X", 1.5), "atom X: connectivity must be an integer, got 1.5"),
    (lambda: Atom("X", False), "atom X: connectivity must be an integer, got False"),
    (lambda: S(-1), "sphere dimension must be >= 0"),
    (lambda: Loop(S(2), 0), "loop iteration count must be >= 1"),
], ids=["sphere_true", "sphere_half", "sphere_float", "loop_half", "loop_true", "atom_half",
        "atom_false", "sphere_negative", "loop_zero"])
def test_constructors_take_integer_fields_only(make, message):
    # S^True, S^2.5 and Ω^2.5S^2 used to render
    with pytest.raises(ValueError, match=message):
        make()


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


def test_uncertified_mapping_spaces_sort_by_child():
    square = build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    low, high = MapFromSusp(square, S(2)), MapFromSusp(square, S(3))
    assert sort_key(low) < sort_key(high)
    for children in ((low, high), (high, low)):
        assert normalize(Product(children)).children == (low, high)


def test_map_into_a_point_is_a_point():
    # pointed maps into a point are constant, whether or not K is certified
    square = build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    assert normalize(MapFromSusp(square, POINT)) == POINT
    assert normalize(Loop(MapFromSusp(square, Atom("P", 0, contractible=True)))) == POINT
    data = {"kind": "map_from_susp", "complex": {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]},
            "child": {"kind": "point"}}
    assert series_of(expr_from_json(data), 6) == series_of(POINT, 6)
    assert series_of(expr_from_json({"kind": "loop", "child": data}), 6).coeffs == (1,) + (0,) * 6


def test_normalize_idempotent_randomized():
    rng = random.Random(20240812)
    for _ in range(300):
        e = random_expr(rng)
        n = normalize(e)
        assert normalize(n) == n


def test_the_normalize_memo_gives_the_fold_it_replaces():
    # on seeded raw trees, with repeated children and atoms of every kind:
    # normalizing with the memo emptied before each tree, again with it
    # filled by every tree, and through the memo-free fold give one form,
    # field types included (repr), and normalizing that form gives it back
    rng = random.Random(20261021)
    trees = [with_repeats(rng, random_expr(rng, rng.randint(1, 4))) for _ in range(400)]
    cold = []
    for e in trees:
        _normal_node.cache_clear()
        cold.append(normalize(e))
    assert _normal_node.cache_info().maxsize <= 1024
    for e, form in zip(trees, cold):
        want = reference_normal_fold(e)
        assert form == want and repr(form) == repr(want), render(e)
    hits = _normal_node.cache_info().hits
    for e, form in zip(trees, cold):
        warm = normalize(e)
        assert repr(warm) == repr(form) and repr(normalize(form)) == repr(form), render(e)
    assert _normal_node.cache_info().hits > hits + 300
    assert sum(not isinstance(e, (type(POINT), Sphere, Atom)) for e in trees) > 250


def test_a_bool_int_twin_gets_its_own_normal_form():
    # an atom's contractible flag is stored as a bool, so the twin that
    # spells it 1 or 0 is the same atom: inside a wedge, whichever twin
    # fills the memo, the other's form is its own memo-free fold, field
    # types included
    assert Atom("A", 1, contractible=1).contractible is True
    assert Atom("A", 1, contractible=0).contractible is False
    for flags in ((True, 1), (1, True), (False, 0), (0, False)):
        _normal_node.cache_clear()
        for flag in flags:
            e = Wedge((Atom("A", 1, contractible=flag), S(3)))
            assert repr(normalize(e)) == repr(reference_normal_fold(e)), flags


def test_expr_equal_permutation_invariance():
    assert normalize(Wedge((X, Y))) == normalize(Wedge((Y, X)))
    assert normalize(Product((X, Y, X))) == normalize(Product((X, X, Y)))
    assert normalize(Smash((S(1), X))) == normalize(Smash((X, S(1))))
    assert normalize(Wedge((X, X))) != normalize(Wedge((X,)))


SAME_NAMED = (
    Atom("X", 1),
    Atom("X", 1, series=((1,), (1, 0, -1))),
    Atom("X", 1, loop=S(1)),
    Atom("X", 1, loop=S(2)),
    Atom("X", 1, contractible=True),
)


def test_same_named_atoms_sort_apart():
    # atoms with one name and connectivity that differ in loop, series or
    # contractibility get different sort keys, so the merge sees equal
    # children side by side whatever the input order
    plain, declared = SAME_NAMED[:2]
    assert normalize(Wedge((declared, plain))) == normalize(Wedge((plain, declared)))
    n = normalize(Smash((declared, plain, declared)))
    assert (n.children, n.powers) == ((plain, declared), (1, 2))
    keys = [sort_key(a) for a in SAME_NAMED]
    assert len(set(keys)) == len(keys)


def test_normalize_is_invariant_under_permuting_same_named_children():
    rng = random.Random(20261019)
    atoms = SAME_NAMED[:4]
    pool = atoms + tuple(Loop(a) for a in atoms) + tuple(Susp(a) for a in atoms)
    pool += tuple(cls((a, b)) for cls in (Wedge, Smash) for a in atoms for b in atoms)
    for _ in range(300):
        cls = rng.choice((Wedge, Product, Smash))
        kids = [rng.choice(pool) for _ in range(rng.randint(2, 6))]
        powers = [rng.randint(1, 3) for _ in kids]
        want = normalize(cls(tuple(kids), tuple(powers)))
        order = list(range(len(kids)))
        for _ in range(3):
            rng.shuffle(order)
            got = normalize(cls(tuple(kids[i] for i in order), tuple(powers[i] for i in order)))
            assert got == want, (render(got), render(want))
    normals = {normalize(e) for e in pool}
    assert len({sort_key(e) for e in normals}) == len(normals)


def test_expr_equal_is_equivalence_randomized():
    rng = random.Random(3)
    exprs = [random_expr(rng) for _ in range(40)]
    for e in exprs:
        assert normalize(e) == normalize(e)
    for a in exprs[:12]:
        for b in exprs[:12]:
            assert (normalize(a) == normalize(b)) == (normalize(b) == normalize(a))


def test_conn_values():
    assert conn(POINT) == math.inf
    assert conn(S(3)) == 2
    assert conn(Loop(S(3))) == 1
    assert conn(Smash((Loop(S(3)), Loop(S(3))))) == 3  # bottom cell degree 4
    assert conn(Susp(X)) == 2
    assert conn(Wedge((S(2), S(5)))) == 1
    assert conn(Loop(S(1))) == -1  # legal: looping a connected space


def test_conn_underflow():
    # a loop that would go below -1 reads -1, no bound, and does not raise
    assert conn(Loop(S(1), 2)) == -1
    assert conn(Loop(Wedge((S(1), S(1))), 2)) == -1


def test_conn_of_a_loop_is_one_step_whatever_its_count():
    # looping once per count stalled the input checks for about a minute at 10^9
    start = time.process_time()
    assert conn(Loop(S(10**9 + 5), 10**9)) == 4
    assert conn(Loop(Atom("A", connectivity=10**9 + 3), 10**9)) == 3
    assert conn(Loop(S(10**9), 10**9 + 1)) == -1
    assert time.process_time() - start < 0.1
    assert conn(Loop(POINT, 10**9)) == math.inf
    # a loop below its child's estimate reads -1, whatever that estimate
    for e in (Loop(S(1), 2), Loop(S(3), 5), Loop(S(0)), Loop(Atom("A", connectivity=-3)),
              Loop(Wedge((S(1), S(1))), 2)):
        assert conn(e) == -1


LOOPED_LEAVES = (S(0), S(1), S(2), S(3), Atom("A", -1), Atom("B", 0), Atom("C", 2), CP_INFINITY)


def loop_tree(rng: random.Random, depth: int = 3):
    """A raw tree over spheres S^0..S^3, atoms and points, with loops of
    counts 1 to 4 over its leaves and its inner nodes."""
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.choice(LOOPED_LEAVES + (POINT,))
        return Loop(leaf, rng.randint(1, 4)) if rng.random() < 0.6 else leaf
    kind = rng.randrange(6)
    if kind < 3:
        return (Wedge, Product, Smash)[kind](tuple(loop_tree(rng, depth - 1) for _ in range(rng.randint(0, 3))))
    if kind == 3:
        return Susp(loop_tree(rng, depth - 1))
    if kind == 4:
        return Loop(loop_tree(rng, depth - 1), rng.randint(1, 4))
    return MapFromSusp(build(2, rng.choice(([[1, 2]], [[1], [2]], []))), loop_tree(rng, depth - 1))


def nodes(e):
    yield e
    for c in getattr(e, "children", None) or ((e.child,) if hasattr(e, "child") else ()):
        yield from nodes(c)


def test_conn_is_total_and_matches_the_whole_expression_reference():
    # on 400 seeded raw trees and their normal forms: conn never raises,
    # never reads below -1, equals the whole-expression reference wherever
    # that does not underflow, and a loop below its child's estimate reads -1
    rng = random.Random(3412)
    looped, underflows, sharper = set(), 0, 0
    for _ in range(400):
        e = loop_tree(rng)
        for x in (e, normalize(e)):
            c = conn(x)
            assert c >= -1, render(x)
            try:
                assert c == reference_conn(x), render(x)
            except _ReferenceUnderflow:
                underflows += 1
                sharper += c > -1
            for node in nodes(x):
                if isinstance(node, Loop):
                    below = conn(node.child)
                    assert conn(node) == (-1 if below < node.count else below - node.count), render(node)
                    if node.child in LOOPED_LEAVES:
                        looped.add((node.child, node.count))
    assert looped >= {(x, k) for x in LOOPED_LEAVES for k in range(1, 5)}
    assert underflows > 50 and sharper > 10, (underflows, sharper)


def test_pair_assignment_flags():
    pairs = PairAssignment.path_fibrations([S(2), S(3)])
    assert pairs.m == 2
    assert pairs.domain_contractible(1)
    assert not pairs.codomain_is_point(1)
    const = PairAssignment.constant_maps([S(2)])
    assert const.codomain_is_point(1)
    with pytest.raises(ValueError, match="a pair assignment needs at least one vertex"):
        PairAssignment(())


@pytest.mark.parametrize("bad", [42, "S^2", None, (S(2),)])
def test_walks_reject_what_is_not_a_space_expression(bad):
    for walk in (normalize, conn, render, lambda e: series_of(e, 4), lambda e: _series(e, 4)):
        with pytest.raises(TypeError, match="not a space expression"):
            walk(bad)


def test_render_notation():
    assert render(normalize(Loop(Susp(Smash((Loop(X), Loop(Y))))))) == "ΩΣ(ΩX ∧ ΩY)"
    assert render(Loop(S(3), 2)) == "Ω^2S^3"
    assert render(normalize(Smash((X, X, Y)))) == "X^∧2 ∧ Y"
    assert render(POINT) == "*"
    # str is render for one node of each class, and for every kind in
    # random trees, leaves included
    one_each = [POINT, S(2), X, Wedge((X, Y)), Product((X, Y)), Smash((X, Y)), Susp(X), Loop(X, 2),
                MapFromSusp(build(2, [[1], [2]]), X)]
    assert {type(e) for e in one_each} == set(_RANK)
    for e in one_each:
        assert str(e) == render(e) != repr(e)
    rng = random.Random(249)
    for depth in (0, 0, 1, 2, 3) * 40:
        e = random_expr(rng, depth)
        assert str(e) == render(e)


@pytest.mark.parametrize("data, message", [
    ({"n": 2}, 'space JSON needs a "kind" field'),
    ({"kind": "torus"}, "unknown space kind 'torus'"),
], ids=["no-kind", "unknown-kind"])
def test_json_needs_a_known_kind(data, message):
    with pytest.raises(ValueError, match=message):
        expr_from_json(data)


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


SPHERE_JSON = {"kind": "sphere", "n": 2}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"kind": "atom", "name": None}, 'atom "name" must be a string, got None'),
        ({"kind": "atom", "name": 7, "conn": 1}, 'atom "name" must be a string, got 7'),
        ({"kind": "atom", "name": "A", "conn": 1, "series": [[1], [1, 0, -1]]},
         r'atom "series" must be an object, got \[\[1\], \[1, 0, -1\]\]'),
        ({"kind": "atom", "name": "A", "conn": 1, "series": {"num": [1], "den": "1"}},
         "atom series \"den\" must be a list, got '1'"),
        ({"kind": "smash", "children": SPHERE_JSON}, 'smash "children" must be a list'),
        ({"kind": "map_from_susp", "complex": {"m": 2, "facets": [5]}, "child": SPHERE_JSON},
         '"facets" entry must be a list, got 5'),
        ({"kind": "map_from_susp", "complex": {"m": 2, "facets": 5}, "child": SPHERE_JSON},
         '"facets" must be a list, got 5'),
    ],
    ids=["name-null", "name-int", "series-list", "series-den-str", "children-object", "facet-int", "facets-int"],
)
def test_json_fields_must_have_their_json_type(data, message):
    # a field of the wrong JSON type is named, not read as a string or
    # iterated until some other error
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
            assert conn(e) == reference_conn(e)
        except _ReferenceUnderflow:
            # the whole-expression reference has no bound; conn keeps one
            # where the loop sits under a suspension or a smash
            assert conn(e) >= -1
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


def test_smash_builder_matches_the_compound_rule():
    # one plan per alphabet of normal pieces, then a build per content q,
    # equal to the reference normalizer run on the whole smash, and normal
    rng = random.Random(2020)
    kinds = set()
    for _ in range(300):
        normal = smash_alphabet(rng)
        build = _plan(Smash, normal)
        contents = [(0,) * len(normal)] + [
            tuple(rng.choice((0, 0, 1, 1, 2, 5)) for _ in normal) for _ in range(8)
        ]
        for q in contents:
            got = build(q)
            assert got == reference_smash(normal, q), ([render(x) for x in normal], q)
            assert normalize(got) == got and reference_normalize(got) == got
            kinds.add(type(got).__name__)
    assert build((0,) * len(normal)) == S(0)
    assert kinds >= {"Point", "Sphere", "Atom", "Smash", "Product", "Loop"}, kinds


@pytest.mark.parametrize("cls", [Wedge, Product])
def test_wedge_and_product_plans_match_the_reference(cls):
    # points drop out, nested pieces of the same kind flatten, spheres stay
    # apart, and repeated children merge across the pieces
    rng = random.Random(2022)
    pool = [
        POINT, S(0), S(2), S(3), X, Y, Atom("PX", 0, contractible=True),
        Wedge((S(2), X)), Wedge((X, X, POINT)), Product((X, S(3))), Product((Y, X, X)),
        Smash((S(2), X)), Loop(S(3)), Loop(Product((X, S(4)))), Susp(Wedge((X, Y))),
    ]
    kinds = set()
    for _ in range(300):
        normal = [normalize(rng.choice(pool) if rng.random() < 0.8 else random_expr(rng, 2))
                  for _ in range(rng.randint(1, 6))]
        normal += [rng.choice(normal) for _ in range(rng.randint(0, 2))]
        build = _plan(cls, normal)
        contents = [(0,) * len(normal), (1,) * len(normal)] + [
            tuple(rng.choice((0, 0, 1, 1, 2, 5)) for _ in normal) for _ in range(8)
        ]
        for q in contents:
            got = build(q)
            assert got == reference_smash(normal, q, cls), ([render(x) for x in normal], q)
            assert normalize(got) == got and reference_normalize(got) == got
            kinds.add(type(got).__name__)
        assert build((0,) * len(normal)) == POINT
    assert kinds >= {"Point", "Sphere", "Atom", "Wedge", "Product", "Smash", "Loop"}, kinds
