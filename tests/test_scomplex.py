"""Combinatorics and homology of simplicial complexes."""

import json
import random
import time
from itertools import chain, combinations

import pytest

import polyco.scomplex
from _helpers import (
    _reference_replaceable,
    brute_chordal,
    dense_rank,
    minimal_non_faces,
    random_int_matrix,
    reference_boundary_ranks,
    reference_build,
    reference_full_subcomplex,
    reference_homology_ranks,
    reference_is_flag,
    reference_is_shifted,
    reference_wedge_of_spheres_type,
)
from polyco.decomp import evaluate_special, loop_decompose_wedge
from polyco.scomplex import (
    _chordal_flag,
    _core,
    _reduce,
    _shifted_first,
    build,
    complex_from_json,
    complex_to_json,
    disjoint_union,
    full_subcomplex,
    homology,
    is_shifted,
    join,
    max_trace,
    missing_subsets,
    union_along,
    wedge_of_spheres_type,
)
from polyco.spacexpr import PairAssignment, Sphere, Wedge, normalize


def square():
    return build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


def boundary_simplex(m):
    return build(m, [list(c) for c in combinations(range(1, m + 1), m - 1)])


def simplex(m):
    return build(m, [list(range(1, m + 1))])


def powerset(iterable):
    s = list(iterable)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


def count_face_listings(monkeypatch) -> list:
    """The complexes whose faces are listed from now on, through a wrapper
    around scomplex._faces, which K.faces() calls each time."""
    listed = []
    real = polyco.scomplex._faces

    def counting(K):
        listed.append(K)
        return real(K)

    monkeypatch.setattr(polyco.scomplex, "_faces", counting)
    return listed


def test_faces_are_recomputed_not_cached():
    # a cached tuple of every face kept 2^20 tuples of the 19-simplex's
    # boundary resident for the life of the process
    assert not hasattr(polyco.scomplex._faces, "cache_info")
    K = boundary_simplex(5)
    first = K.faces()
    assert K.faces() == first and K.faces() is not first
    assert first == tuple(sorted(brute_faces(K), key=lambda f: (len(f), f)))


def brute_faces(K):
    # independent downward closure from the facets
    out = {()}
    for f in K.facets:
        out.update(powerset(f))
    return out


def test_build_square():
    K = square()
    assert K.m == 4
    assert len(K.facets) == 4
    assert len(K.vertices()) == 4
    assert len(K.faces()) == 9  # 1 empty + 4 vertices + 4 edges


def test_build_single_vertex():
    K = build(1, [[1]])
    assert set(K.faces()) == {(), (1,)}


def test_build_full_simplex():
    K = simplex(3)
    assert len(K.faces()) == 8
    assert K.is_simplex()


def test_build_reduces_to_maximal_faces():
    K = build(3, [[1], [1, 2], [2], [1, 2, 3]])
    assert K.facets == ((1, 2, 3),)


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build(0, [])
    with pytest.raises(ValueError):
        build(2, [[3]])
    with pytest.raises(ValueError):
        build(2, [[]])


def uncovered(K):
    """The ghost vertices: those of 1..m in no face."""
    return set(range(1, K.m + 1)) - set(K.vertices())


def test_ghost_vertices_reported():
    K = build(4, [[1, 2]])
    assert uncovered(K) == {3, 4}
    assert K.vertices() == (1, 2)


def test_empty_complex_is_legal():
    K = build(3, [])
    assert K.faces() == ((),)
    assert K.dim() == -1
    assert uncovered(K) == {1, 2, 3}


def test_full_subcomplex_against_enumeration():
    K = square()
    sub = full_subcomplex(K, [1, 3])
    assert sub.m == 2
    # oracle: faces contained in {1,3}, relabeled
    expected = {f for f in brute_faces(K) if set(f) <= {1, 3}}
    relabel = {1: 1, 3: 2}
    assert set(sub.faces()) == {tuple(relabel[v] for v in f) for f in expected}
    assert sub.facets == ((1,), (2,))  # two disjoint vertices, no edge


def test_full_subcomplex_identity():
    K = square()
    assert full_subcomplex(K, [1, 2, 3, 4]) == K


def test_full_subcomplex_single_edge():
    sub = full_subcomplex(square(), [1, 2])
    assert sub.facets == ((1, 2),)


def test_full_subcomplex_composition():
    rng = random.Random(20240811)
    for _ in range(50):
        m = rng.randint(2, 6)
        faces = [
            rng.sample(range(1, m + 1), rng.randint(1, m))
            for _ in range(rng.randint(1, 5))
        ]
        K = build(m, faces)
        I = sorted(rng.sample(range(1, m + 1), rng.randint(1, m)))
        sub1 = full_subcomplex(K, I)
        J_new = sorted(rng.sample(range(1, len(I) + 1), rng.randint(1, len(I))))
        sub2 = full_subcomplex(sub1, J_new)
        # vertex j of K_I is the j-th smallest vertex of I
        composed = tuple(I[v - 1] for v in J_new)
        assert full_subcomplex(K, composed) == sub2


def test_maximal_faces_ge2():
    # the faces on >= 2 vertices index the edge-and-up factors of the wedge
    # decomposition: at weight 1, one per edge of the square, and none on
    # a discrete complex
    dec = loop_decompose_wedge(square(), [Sphere(2)] * 4, 1)
    assert [f.provenance.support for f in dec.bracket_factors()] == [(1, 2), (1, 4), (2, 3), (3, 4)]
    assert loop_decompose_wedge(build(3, [[1], [2], [3]]), [Sphere(2)] * 3, 3).bracket_factors() == ()


def test_missing_subsets():
    assert missing_subsets(simplex(4)) == ()
    assert missing_subsets(boundary_simplex(4)) == ((1, 2, 3, 4),)
    K = build(3, [[1, 2], [1, 3], [2, 3]])
    assert missing_subsets(K) == ((1, 2, 3),)


def test_join_of_point_pairs_is_square():
    K = join(build(2, [[1], [2]]), build(2, [[1], [2]]))
    assert K.m == 4
    assert K.facets == ((1, 3), (1, 4), (2, 3), (2, 4))
    # a 4-cycle: same homology as the standard square
    assert homology(K) == homology(square())


def test_join_with_vertex_is_cone():
    K = join(square(), build(1, [[1]]))
    assert all(5 in f for f in K.facets)
    assert all(r == 0 for r in homology(K).ranks)


def test_disjoint_union():
    K = disjoint_union(build(1, [[1]]), build(1, [[1]]))
    assert K.facets == ((1,), (2,))
    K2 = disjoint_union(square(), build(2, [[1, 2]]))
    assert K2.m == 6
    assert (5, 6) in K2.facets


def test_union_along_path():
    K = union_along(build(2, [[1, 2]]), build(2, [[1, 2]]), build(1, [[1]]))
    assert K.m == 3
    assert K.facets == ((1, 2), (2, 3))


def test_union_along_rejects_non_subcomplex():
    # L has an edge the left input lacks
    with pytest.raises(ValueError):
        union_along(build(2, [[1], [2]]), build(2, [[1, 2]]), build(2, [[1, 2]]))
    # L has an edge the right input lacks
    with pytest.raises(ValueError):
        union_along(build(3, [[1, 2, 3]]), build(2, [[1], [2]]), build(2, [[1, 2]]))


def test_union_along_rejects_an_overlap_smaller_than_the_intersection():
    # L must hold every face the inputs share on the overlap
    edge = build(2, [[1, 2]])
    with pytest.raises(ValueError, match=r"^L misses the overlap face \[1, 2\] that both inputs share$"):
        union_along(edge, edge, build(2, [[1], [2]]))
    with pytest.raises(ValueError, match=r"^L misses the overlap face \[1\] that both inputs share$"):
        union_along(edge, edge, build(1, []))
    # an overlap vertex that only one input covers need not be in L
    assert union_along(edge, build(1, []), build(1, [])) == build(2, [[1, 2]])
    assert union_along(edge, edge, edge) == edge


def test_union_along_rejects_an_overlap_larger_than_an_input():
    with pytest.raises(ValueError, match="overlap complex is larger than an input complex"):
        union_along(build(2, [[1, 2]]), build(1, [[1]]), build(2, [[1, 2]]))


def test_complex_json_needs_m_and_facets():
    with pytest.raises(ValueError, match='complex JSON needs keys "m" and "facets"'):
        complex_from_json({"facets": [[1]]})


def test_homology_examples():
    assert homology(boundary_simplex(3)).ranks == (0, 1)  # a circle
    assert homology(square()).ranks == (0, 1)
    assert homology(build(2, [[1], [2]])).ranks == (1,)  # two points
    assert homology(simplex(3)).ranks == (0, 0, 0)


def test_homology_boundary_simplices():
    # the boundary of the k-simplex, k = m - 1 <= 12: one rank 1, in degree k - 1
    for m in range(2, 14):
        K = boundary_simplex(m)
        prof = homology(K)
        expected = tuple(1 if d == m - 2 else 0 for d in range(m - 1))
        assert prof.ranks == expected
        if m <= 8:
            assert prof.ranks == reference_homology_ranks(K)


def test_cones_are_contractible():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randint(1, 5)
        faces = [
            rng.sample(range(1, m + 1), rng.randint(1, m))
            for _ in range(rng.randint(1, 6))
        ]
        K = join(build(m, faces), build(1, [[1]]))
        assert all(r == 0 for r in homology(K).ranks)


def test_euler_characteristic_matches_homology():
    rng = random.Random(99)
    for _ in range(40):
        m = rng.randint(1, 6)
        faces = [
            rng.sample(range(1, m + 1), rng.randint(1, m))
            for _ in range(rng.randint(1, 7))
        ]
        K = build(m, faces)
        prof = homology(K)
        reduced_euler = sum((-1) ** d * r for d, r in enumerate(prof.ranks))
        assert K.euler_characteristic() == reduced_euler + 1


def test_predicates_on_simplices():
    for m in range(1, 5):
        K = simplex(m)
        assert is_shifted(K)
        assert _chordal_flag(K)


def test_square_is_flag_not_chordal_not_shifted():
    K = square()
    assert reference_is_flag(K)
    assert not brute_chordal(K)  # 4-cycle with no chord
    assert not _chordal_flag(K)
    assert not is_shifted(K)


def test_boundary_triangle_not_flag_but_shifted():
    K = boundary_simplex(3)
    assert minimal_non_faces(K) == ((1, 2, 3),)
    assert not _chordal_flag(K)
    assert is_shifted(K)  # relabeling-independent check


def test_shiftedness_is_label_invariant():
    # the star with center 3: shifted after relabeling the center to 1
    K = build(3, [[1, 3], [2, 3]])
    assert is_shifted(K)


def brute_is_shifted(K):
    # oracle: try every relabeling outright
    from itertools import permutations

    faces = set(K.faces())

    def shifted_under(relabel):
        rl = {old: new for new, old in enumerate(relabel, start=1)}
        fs = {tuple(sorted(rl[v] for v in f)) for f in faces}
        for f in fs:
            for v in f:
                for u in range(1, v):
                    if u not in f and tuple(sorted(set(f) - {v} | {u})) not in fs:
                        return False
        return True

    return any(shifted_under(p) for p in permutations(range(1, K.m + 1)))


def random_certificate_complex(rng, m):
    """Sparse, dense or clique complexes on a random part of {1..m}; the
    vertices left out are ghosts.  A clique complex is flag by construction,
    and dropping one of its facets of size >= 3 leaves a larger minimal
    non-face."""
    covered = rng.sample(range(1, m + 1), rng.randint(max(1, m - 2), m))
    n, kind = len(covered), rng.randrange(3)
    if kind < 2:
        # sparse: points and edges; dense: triangles and up, short of a simplex
        lo, hi = (1, min(2, n)) if kind == 0 else (min(3, n), max(min(3, n), n - 1))
        faces = [rng.sample(covered, rng.randint(lo, hi)) for _ in range(rng.randint(m // 2, 2 * m))]
        return build(m, faces)
    edges = {e for e in combinations(sorted(covered), 2) if rng.random() < 0.6}
    cliques = [
        c for c in powerset(sorted(covered))
        if c and all(e in edges for e in combinations(c, 2))
    ]
    K = build(m, cliques)
    big = [f for f in K.facets if len(f) >= 3]
    if big and rng.random() < 0.3:
        drop = rng.choice(big)
        K = build(m, [f for f in cliques if f != drop])
    return K


def random_shifted_complex(rng, m, generators=3):
    # the shifted closure of a few faces, relabeled at random
    faces = {
        tuple(sorted(rng.sample(range(1, m + 1), rng.randint(1, min(m, 4)))))
        for _ in range(rng.randint(1, generators))
    }
    todo = list(faces)
    while todo:
        f = todo.pop()
        for v in f:
            for u in set(range(1, v)) - set(f):
                g = tuple(sorted(set(f) - {v} | {u}))
                if g not in faces:
                    faces.add(g)
                    todo.append(g)
    perm = rng.sample(range(1, m + 1), m)
    return build(m, [[perm[v - 1] for v in f] for f in faces])


def test_wedge_type_reads_the_facets_like_the_homology_it_replaces():
    # the shifted, dim-0 and simplex certificates read their spheres off the
    # facets: the same dimensions as homology's ranks, and no homology call
    rng = random.Random(3636)
    seen = {"shifted": 0, "dim 0": 0, "simplex": 0, "ghost": 0}
    seen.update({f"avoids t, dim {d}": 0 for d in range(4)})
    for i in range(1200):
        m = rng.randint(1, 9)
        covered = rng.sample(range(1, m + 1), rng.randint(1, m))
        if i % 6 == 0:
            K = build(m, [[v] for v in covered])
        elif i % 6 == 1:
            K = build(m, [covered])
        else:
            K = random_shifted_complex(rng, m, generators=5)
        before = homology.cache_info()
        got = wedge_of_spheres_type.__wrapped__(K)  # uncached
        assert homology.cache_info() == before, K
        assert got == tuple(d for d, r in enumerate(homology(K).ranks) for _ in range(r)), K
        if K.dim() == 0:
            seen["dim 0"] += 1
        elif K.is_simplex():
            seen["simplex"] += 1
        else:
            t = _shifted_first(K)
            assert t is not None, K
            seen["shifted"] += 1
            for F in K.facets:
                if t not in F and len(F) <= 4:
                    seen[f"avoids t, dim {len(F) - 1}"] += 1
        seen["ghost"] += bool(uncovered(K))
    assert seen["shifted"] >= 300 and min(seen.values()) >= 40, seen


def test_is_shifted_matches_permutation_search():
    rng = random.Random(271)
    seen = {"shifted": 0, "not shifted": 0, "ghost": 0, "facet >= 3": 0}
    for i in range(120):
        if i % 3:
            K = random_certificate_complex(rng, 6)
        else:
            K = random_shifted_complex(rng, rng.randint(1, 6))
        want = brute_is_shifted(K)
        assert is_shifted(K) == want, K
        seen["shifted" if want else "not shifted"] += 1
        seen["ghost"] += bool(uncovered(K))
        seen["facet >= 3"] += K.dim() >= 2
    assert min(seen.values()) >= 20, seen


def test_is_flag_matches_minimal_non_faces():
    rng = random.Random(1729)
    seen = {"flag": 0, "not flag": 0, "ghost": 0, "minimal non-face >= 3": 0, "chordal flag": 0}
    for _ in range(600):
        K = random_certificate_complex(rng, rng.randint(1, 9))
        sizes = {len(f) for f in minimal_non_faces(K)}
        flag = sizes <= {2}
        want = flag and brute_chordal(K)
        assert bool(_chordal_flag(K)) == want, K
        seen["flag" if flag else "not flag"] += 1
        seen["chordal flag"] += want
        seen["ghost"] += 1 in sizes
        seen["minimal non-face >= 3"] += max(sizes, default=0) >= 3
    assert min(seen.values()) >= 50, seen
    assert seen["flag"] - seen["chordal flag"] >= 10, seen  # flag, not chordal


def test_ghost_vertex_makes_a_complex_non_flag():
    # {5} is a minimal non-face of size 1; the rest is flag and chordal
    K = build(5, [[1, 2, 4], [3]])
    assert minimal_non_faces(K)[0] == (5,)
    assert not _chordal_flag(K)
    assert _chordal_flag(build(4, [[1, 2, 4], [3]]))
    assert not _chordal_flag(build(3, []))


def test_flag_test_looks_beside_every_vertex_of_a_facet():
    # three triangles x a b, y b c, z a c around the missing triangle a b c:
    # each of x, y, z lies in one facet, and deleting them leaves a hollow
    # triangle; filled in, the complex is flag with chordal 1-skeleton
    from itertools import permutations

    x, y, z, a, b, c = range(1, 7)
    for perm in permutations(range(1, 7)):
        p = dict(zip(range(1, 7), perm))
        facets = [[p[x], p[a], p[b]], [p[y], p[b], p[c]], [p[z], p[a], p[c]]]
        assert not _chordal_flag(build(6, facets)), perm
        assert _chordal_flag(build(6, facets + [[p[a], p[b], p[c]]])), perm


def test_wedge_type_matches_tuple_based_certificates():
    rng = random.Random(3141)
    certified = 0
    for i in range(400):  # about three in four get a certificate
        m = rng.randint(1, 9)
        K = random_certificate_complex(rng, m) if i % 4 else random_shifted_complex(rng, m)
        want = reference_wedge_of_spheres_type(K)
        assert wedge_of_spheres_type(K) == want, K
        assert is_shifted(K) == reference_is_shifted(K), K
        assert bool(_chordal_flag(K)) == (reference_is_flag(K) and brute_chordal(K)), K
        certified += want is not None
    assert 250 <= certified <= 350, certified


def test_chordality_matches_induced_cycle_search():
    rng = random.Random(137)
    for _ in range(60):
        m = rng.randint(1, 6)
        faces = [
            rng.sample(range(1, m + 1), rng.randint(1, min(2, m)))
            for _ in range(rng.randint(0, 8))
        ]
        K = build(m, faces)
        chordal = brute_chordal(K)
        assert bool(_chordal_flag(K)) == (reference_is_flag(K) and chordal), K
        # the clique complex of the same graph, every vertex covered, is flag
        edges = {f for f in K.faces() if len(f) == 2}
        cliques = [c for c in powerset(range(1, m + 1)) if c and all(e in edges for e in combinations(c, 2))]
        assert bool(_chordal_flag(build(m, cliques))) == chordal, K


def test_wedge_of_spheres_type():
    assert wedge_of_spheres_type(build(2, [[1], [2]])) == (0,)
    assert wedge_of_spheres_type(boundary_simplex(3)) == (1,)
    assert wedge_of_spheres_type(simplex(4)) == ()
    assert wedge_of_spheres_type(square()) is None  # no certificate applies
    assert wedge_of_spheres_type(build(2, [])) == (-1,)  # the empty complex


def test_wedge_of_spheres_chordal_flag():
    # a path: flag with chordal 1-skeleton, contractible
    path = build(3, [[1, 2], [2, 3]])
    assert _chordal_flag(path)
    assert wedge_of_spheres_type(path) == ()


def test_no_certificate_for_the_cone_on_a_square_or_rp2():
    # the cone on the chordless square is flag and not shifted, and its core
    # is one vertex: "the core is discrete" would certify it
    cone = build(5, [[1, 2, 5], [2, 3, 5], [3, 4, 5], [1, 4, 5]])
    assert reference_is_flag(cone) and not brute_chordal(cone) and not is_shifted(cone)
    assert len(_core(cone)) == 1
    assert not _chordal_flag(cone) and wedge_of_spheres_type(cone) is None
    # RP^2 has the rational homology of a point, but its suspension is no
    # wedge of spheres
    assert not _chordal_flag(RP2) and wedge_of_spheres_type(RP2) is None


def test_downward_closure_property():
    rng = random.Random(41)
    for _ in range(30):
        m = rng.randint(1, 6)
        faces = [
            rng.sample(range(1, m + 1), rng.randint(1, m))
            for _ in range(rng.randint(0, 6))
        ]
        K = build(m, faces)
        fs = set(K.faces())
        for f in fs:
            for sub in powerset(f):
                assert tuple(sub) in fs


def test_json_round_trip_is_canonical():
    def dumps(K):
        return json.dumps(complex_to_json(K), sort_keys=True, separators=(",", ":"))

    K = build(4, [[4, 3], [2, 1], [1, 4]])
    text = dumps(K)
    assert complex_from_json(json.loads(text)) == K
    assert dumps(complex_from_json(json.loads(text))) == text


@pytest.mark.parametrize(
    "data, message",
    [
        ({"m": 3, "facets": [[1, 2.5]]}, '"facets" vertex must be an integer, got 2.5'),
        ({"m": 3, "facets": [[1, True]]}, '"facets" vertex must be an integer, got True'),
        ({"m": True, "facets": [[1]]}, '"m" must be an integer, got True'),
        ({"m": 3.0, "facets": [[1]]}, '"m" must be an integer, got 3.0'),
    ],
)
def test_complex_json_rejects_non_integers(data, message):
    with pytest.raises(ValueError, match=message):
        complex_from_json(data)


# ---------------------------------------------------------------------------
# sparse integer rank and facet-based constructions against the dense
# Fraction elimination and the face-enumerating references
# ---------------------------------------------------------------------------

# the 6-vertex triangulation of the real projective plane
RP2 = build(6, [
    [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
    [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6],
])


def columns_of(rows):
    ncols = len(rows[0]) if rows else 0
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def sparse_boundary_ranks(K):
    # the ranks homology() derives, recovered from its Betti numbers
    if K.dim() < 0:
        return []
    f = K.f_vector()
    betti = homology(K).ranks
    ranks = [1]
    for d in range(K.dim() + 1):
        ranks.append(f[d] - betti[d] - ranks[d])
    assert ranks[-1] == 0
    return ranks[1:-1]


def random_generating_faces(rng, m, n_faces, max_size):
    # unsorted faces, repeated vertices, duplicates and nested faces
    faces = []
    for _ in range(n_faces):
        f = rng.sample(range(1, m + 1), rng.randint(1, min(m, max_size)))
        faces.append(f + [f[0]] if rng.random() < 0.2 else f)
        if rng.random() < 0.3:
            faces.append(list(reversed(f)))
        if rng.random() < 0.3 and len(f) > 1:
            faces.append(rng.sample(f, rng.randint(1, len(f) - 1)))
    rng.shuffle(faces)
    return faces


def test_sparse_rank_matches_dense_on_random_integer_matrices():
    rng = random.Random(314)
    deficient = 0
    for _ in range(400):
        rows = random_int_matrix(rng)
        rank = len(_reduce(columns_of(rows)))
        assert rank == dense_rank(rows), rows
        deficient += rank < min(len(rows), len(rows[0]))
    assert deficient > 50


def test_sparse_rank_fraction_free_update_divides_by_gcd():
    # pivot entry 2 at row 1: col2 <- 2*col2 - 3*col1 = (-4, 0), then / 4
    pivots = _reduce([{0: 2, 1: 2}, {0: 1, 1: 3}])
    assert pivots == {1: {0: 2, 1: 2}, 0: {0: -1}}
    # a +-1 pivot: col2 <- col2 - (-1)(2)*col1 with no scaling, no gcd
    pivots = _reduce([{0: 3, 2: -1}, {1: 4, 2: 2}])
    assert pivots == {2: {0: 3, 2: -1}, 1: {0: 6, 1: 4}}
    assert _reduce([{}, {0: 5}, {0: -5}]) == {0: {0: 5}}


def test_homology_matches_dense_on_random_complexes():
    rng = random.Random(2718)
    for _ in range(60):
        m = rng.randint(1, 9)
        K = build(m, random_generating_faces(rng, m, rng.randint(0, m + 2), 6))
        assert homology(K).ranks == reference_homology_ranks(K), K
        assert sparse_boundary_ranks(K) == reference_boundary_ranks(K), K


def test_homology_of_rp2_is_rationally_trivial():
    assert RP2.f_vector() == (6, 15, 10)
    assert homology(RP2).ranks == (0, 0, 0)
    # rank 10 over Q for the top boundary; it drops to 9 mod 2 (H_2 = F_2)
    assert sparse_boundary_ranks(RP2) == reference_boundary_ranks(RP2) == [5, 10]


def test_homology_of_boundary_of_11_simplex_is_fast():
    K = boundary_simplex(12)
    assert len(K.faces()) == 4095  # with the empty face
    start = time.process_time()
    ranks = homology(K).ranks
    assert time.process_time() - start < 1.0
    assert ranks == (0,) * 10 + (1,)


def test_build_matches_face_enumerating_reference():
    rng = random.Random(1618)
    for _ in range(300):
        m = rng.randint(1, 9)
        faces = random_generating_faces(rng, m, rng.randint(0, 8), m)
        K = build(m, faces)
        assert K == reference_build(m, faces)


def test_build_errors_match_reference():
    for m, faces in [
        (0, [[1]]), (-2, []), (2.0, [[1]]), (True, [[1]]),
        (3, [[1, 2], []]), (3, [[1, 4]]), (3, [[0, 1]]), (3, [[2, -1, 5]]),
        (3, [[1, 2.5], [2, 3]]), (3, [[1, True]]), (3, [[2.0, 1]]), (3, [["1", 2]]),
    ]:
        with pytest.raises(ValueError) as new:
            build(m, faces)
        with pytest.raises(ValueError) as ref:
            reference_build(m, faces)
        assert str(new.value) == str(ref.value)
    # a non-integer is named, not truncated or compared as 0/1
    for m, faces, bad in [(True, [[1]], "True"), (3, [[1, 2.5], [2, 3]], "2.5"), (3, [[1, True]], "True")]:
        with pytest.raises(ValueError, match=f"must be .*integer, got {bad}$"):
            build(m, faces)


def test_full_subcomplex_matches_face_enumerating_reference():
    rng = random.Random(5772)
    cases = [build(4, []), build(6, [[1, 2], [2, 3]]), RP2]
    for _ in range(150):
        m = rng.randint(1, 9)
        cases.append(build(m, random_generating_faces(rng, m, rng.randint(0, 6), m)))
    for K in cases:
        subsets = [range(1, K.m + 1)] + [[v] for v in range(1, K.m + 1)]
        subsets += [rng.sample(range(1, K.m + 1), rng.randint(1, K.m)) for _ in range(4)]
        for I in subsets:
            assert full_subcomplex(K, I) == reference_full_subcomplex(K, I)
            # ghost vertices of K inside I stay ghosts of K_I
            sub, verts = full_subcomplex(K, I), sorted(set(I))
            assert {verts[j - 1] for j in uncovered(sub)} == uncovered(K) & set(verts)


def test_max_trace_is_the_dimension_of_the_full_subcomplex_plus_one():
    # read off the facet masks, against K_I built by enumerating faces, with
    # ghost vertices inside I and the empty complex
    rng = random.Random(5773)
    cases = [build(4, []), build(6, [[1, 2], [2, 3]]), RP2]
    for _ in range(150):
        m = rng.randint(1, 9)
        cases.append(build(m, random_generating_faces(rng, m, rng.randint(0, 6), m)))
    ghosts = 0
    for K in cases:
        for k in range(1, K.m + 1):
            for I in rng.sample(list(combinations(range(1, K.m + 1), k)), 1):
                assert max_trace(K, I) == reference_full_subcomplex(K, I).dim() + 1, (K, I)
                ghosts += bool(uncovered(K) & set(I))
    assert ghosts > 200


def test_full_subcomplex_errors_match_reference():
    K = square()
    for I in ([], [0, 1], [2, 5], [-1], [1, 4, 9], [1.0, 2], [True, 2], [2.5], [1, "2"]):
        with pytest.raises(ValueError) as new:
            full_subcomplex(K, I)
        with pytest.raises(ValueError) as ref:
            reference_full_subcomplex(K, I)
        assert str(new.value) == str(ref.value)
    with pytest.raises(ValueError, match="vertex must be an integer, got 1.0$"):
        full_subcomplex(simplex(3), [1.0, 2])


# ---------------------------------------------------------------------------
# homology on the strong-collapse core, reduced with clearing, against the
# dense reference on every face of K
# ---------------------------------------------------------------------------


def relabeled(rng, K, m):
    # K on a random part of {1..m}: the vertices left out are ghosts
    perm = rng.sample(range(1, m + 1), K.m)
    return build(m, [[perm[v - 1] for v in f] for f in K.facets])


def homology_families(rng, n):
    """n seeded complexes with m <= 9 from every family the core treats
    differently: random ones, with ghost vertices or not, cones, simplices,
    joins, and complexes with no dominated vertex (boundary spheres beside
    skeletons of simplices, and RP^2, whose top boundary has non-unit
    pivots, alone, with ghosts or joined)."""
    out = [RP2, relabeled(rng, RP2, 8), join(RP2, build(2, [[1], [2]])), join(RP2, build(3, [[1], [2, 3]]))]
    out += [boundary_simplex(m) for m in range(2, 9)] + [simplex(m) for m in range(1, 9)]
    out += [build(m, []) for m in (1, 4)]
    # clearing the 1-dimensional columns by the 3-dimensional pivots skips a
    # column that does not reduce to zero here (found by seeded search)
    out.append(build(9, [[1, 2, 3, 4, 9], [1, 2, 6], [3, 4, 6, 8, 9], [3, 7], [4, 7, 8], [7, 8, 9]]))
    while len(out) < n:
        kind = len(out) % 5
        m = rng.randint(1, 9)
        K = build(m, random_generating_faces(rng, m, rng.randint(0, m + 2), 5))
        if kind == 1 and m < 9:  # a cone: contractible, every vertex eventually dominated
            K = join(build(m, random_generating_faces(rng, m, rng.randint(0, m + 2), 4)), build(1, [[1]]))
        elif kind == 2 and m >= 2:  # a join of two smaller complexes
            k = rng.randint(1, m - 1)
            K = join(
                build(k, random_generating_faces(rng, k, rng.randint(0, 3), 4)),
                build(m - k, random_generating_faces(rng, m - k, rng.randint(0, 3), 4)),
            )
        elif kind == 3 and m < 9:  # ghost vertices
            K = relabeled(rng, K, rng.randint(m, 9))
        elif kind == 4 and m >= 3:  # a boundary sphere beside a skeleton of a simplex
            k = rng.randint(2, min(m - 1, 5))
            j = rng.randint(1, max(1, m - k - 1))
            K = disjoint_union(boundary_simplex(k), build(m - k, combinations(range(1, m - k + 1), j)))
        out.append(K)
    return out


def test_homology_matches_dense_reference_on_seeded_families():
    rng = random.Random(1414)
    seen = {"ghost": 0, "collapsed": 0, "no dominated vertex": 0, "core of lower dimension": 0}
    families = homology_families(rng, 2100)
    for K in families:
        prof = homology(K)
        assert prof.ranks == reference_homology_ranks(K), K
        assert prof.top_dim == K.dim(), K
        core = _core(K)
        seen["ghost"] += bool(uncovered(K))
        seen["collapsed"] += len(core) == 1 and max(core).bit_count() == 1 and K.dim() > 0
        seen["no dominated vertex"] += {mask_face(F) for F in core} == set(K.facets) and K.dim() > 0
        seen["core of lower dimension"] += max((F.bit_count() for F in core), default=0) - 1 < K.dim()
    assert max(K.m for K in families) == 9
    assert min(seen.values()) >= 200, seen
    # on 9 and 10 vertices the dense reference is slow; these answers are known
    assert homology(simplex(9)).ranks == (0,) * 9
    assert homology(boundary_simplex(9)).ranks == (0,) * 7 + (1,)
    assert homology(boundary_simplex(10)).ranks == (0,) * 8 + (1,)


def mask_face(F):
    return tuple(v for v in range(F.bit_length()) if F >> v & 1)


def test_core_keeps_maximal_facets_and_no_dominated_vertex():
    rng = random.Random(1415)
    for K in homology_families(rng, 600):
        core = _core(K)
        assert bool(core) == bool(K.vertices()), K
        assert all(mask_face(F) in frozenset(K.faces()) for F in core), K
        assert not any(F != G and F & G == F for F in core for G in core), K
        for v in {v for F in core for v in mask_face(F)}:
            common = -1
            for F in core:
                if F >> v & 1:
                    common &= F
            assert common == 1 << v, (K, v)
        if core:
            # a full subcomplex of K with the Euler characteristic of K
            sub = build(K.m, [mask_face(F) for F in core])
            assert full_subcomplex(sub, sub.vertices()) == full_subcomplex(K, sub.vertices()), K
            assert sub.euler_characteristic() == K.euler_characteristic(), K
    assert len(_core(join(RP2, build(1, [[1]])))) == 1  # a cone collapses to a point
    for K in [RP2] + [boundary_simplex(m) for m in range(2, 10)]:
        assert {mask_face(F) for F in _core(K)} == set(K.facets)  # nothing is dominated


PATH_2000 = [[i, i + 1] for i in range(1, 2000)]
SIZE_GUARD_CASES = {
    "path": lambda: build(2000, PATH_2000),
    "cycle": lambda: build(2000, PATH_2000 + [[1, 2000]]),
    "star": lambda: build(2000, [[1, i] for i in range(2, 2001)]),
    "graph_60_600": lambda: build(60, random.Random(600).sample(list(combinations(range(1, 61), 2)), 600)),
    "boundary_11_simplex": lambda: boundary_simplex(12),
}


def graph_ranks(K):
    # a graph's reduced Betti numbers from its components: b0 = c - 1, b1 = e - v + c
    comp = {v: v for v in K.vertices()}

    def find(v):
        while comp[v] != v:
            v = comp[v]
        return v

    for a, b in K.facets:
        comp[find(a)] = find(b)
    c = len({find(v) for v in comp})
    return (c - 1, len(K.facets) - len(comp) + c)


@pytest.mark.parametrize("name", list(SIZE_GUARD_CASES))
def test_homology_of_large_sparse_complexes_is_fast(name):
    # a core that rescanned every vertex after each deletion took seconds here
    K = SIZE_GUARD_CASES[name]()
    start = time.process_time()
    ranks = homology.__wrapped__(K).ranks  # uncached
    assert time.process_time() - start < 1.0
    assert ranks == (graph_ranks(K) if K.dim() == 1 else (0,) * 10 + (1,))


CONE_CASES = {
    "simplex_2000": lambda: simplex(2000),
    "simplex_4000": lambda: simplex(4000),
    # two 2000-vertex facets sharing vertex 2000
    "facets_sharing_a_vertex": lambda: build(3999, [range(1, 2001), range(2000, 4000)]),
}


@pytest.mark.parametrize("name", list(CONE_CASES))
def test_homology_of_large_cones_is_fast(name):
    # deleting dominated vertices one by one rewrote each big facet once per
    # vertex and took seconds here; a vertex in one facet now takes that
    # facet's vertices in no other facet with it
    K = CONE_CASES[name]()
    start = time.process_time()
    ranks = homology.__wrapped__(K).ranks  # uncached
    assert time.process_time() - start < 1.0
    assert ranks == (0,) * (K.dim() + 1)


FACET_CASES = {
    "two_disjoint_facets": lambda: build(4000, [range(1, 2001), range(2001, 4001)]),
    # the second and third facets share 2 vertices: not a cone either
    "disjoint_facet_and_chain": lambda: build(6000, [range(1, 2001), range(2001, 4001), range(3999, 6001)]),
}


@pytest.mark.parametrize("name", list(FACET_CASES))
def test_homology_of_large_facets_without_a_common_vertex_is_fast(name):
    # not cones, so the core and the chordal elimination deleted each big
    # facet's vertices one rewrite at a time and took seconds here; both
    # complexes are S^0 up to homotopy
    K = FACET_CASES[name]()
    for f, want in ((homology.__wrapped__, (1,) + (0,) * K.dim()), (wedge_of_spheres_type.__wrapped__, (0,))):
        start = time.process_time()
        got = f(K)  # uncached
        assert time.process_time() - start < 1.0, f.__name__
        assert getattr(got, "ranks", got) == want


def has_triangle(K):
    # three pairwise adjacent vertices in the 1-skeleton of a graph
    adj = {v: set() for v in K.vertices()}
    for a, b in K.facets:
        adj[a].add(b)
        adj[b].add(a)
    return any(adj[a] & adj[b] for a, b in K.facets)


def induced_2k2(K):
    # two edges with no edge between them: no labeling makes a graph with
    # one shifted, since the smallest of the four vertices could replace an
    # end of the edge avoiding it
    edges = [f for f in K.facets if len(f) == 2]
    adj = {frozenset(e) for e in edges}
    return any(
        not set(e) & set(g) and not any(frozenset((a, b)) in adj for a in e for b in g)
        for e, g in combinations(edges, 2)
    )


@pytest.mark.parametrize("name", list(SIZE_GUARD_CASES))
def test_certificates_of_large_sparse_complexes_are_fast(name, monkeypatch):
    # listing faces and comparing every vertex pair took minutes on the path
    K = SIZE_GUARD_CASES[name]()
    answers = {}
    listed = count_face_listings(monkeypatch)
    for f in (is_shifted, _chordal_flag, wedge_of_spheres_type.__wrapped__):  # uncached
        start = time.process_time()
        answers[f.__name__] = f(K)
        assert time.process_time() - start < 1.0, f.__name__
    assert not listed  # no face of K was listed
    shifted, chordal_flag, dims = answers["is_shifted"], answers["_chordal_flag"], answers["wedge_of_spheres_type"]
    if name == "path":
        # a tree: flag (no triangle of edges) and chordal, so certified, and contractible
        assert induced_2k2(K) and not shifted
        assert not has_triangle(K) and chordal_flag and dims == ()
    elif name == "star":
        # the centre can stand in for any leaf and the leaves for each other: a cone
        assert shifted and chordal_flag and dims == ()
    elif name == "cycle":
        # flag (no triangle of edges, no ghost) but an induced cycle, not
        # chordal, and not shifted: no certificate
        assert induced_2k2(K) and not shifted
        assert not has_triangle(K) and not uncovered(K)
        assert not chordal_flag and dims is None
    elif name == "graph_60_600":
        # a triangle of edges bounds no 2-face (not flag), and an induced 2K2
        assert K.dim() == 1 and induced_2k2(K) and not shifted
        assert has_triangle(K)
        assert not chordal_flag and dims is None
    else:
        # the sphere S^10: any vertex can stand in for any other by symmetry
        assert name == "boundary_11_simplex"
        assert shifted and not chordal_flag and dims == (10,)


def test_chordality_of_a_dense_threshold_graph_is_fast(monkeypatch):
    # the clique complex of the threshold graph with vertices 1..39 joined to
    # every vertex of 1..2000, beside two disjoint edges: flag with chordal
    # 1-skeleton, and not shifted (an induced 2K2).  A flag test over closed
    # neighbourhoods took tens of seconds on the hub part.
    hub = list(range(1, 40))
    K = build(2004, [hub + [v] for v in range(40, 2001)] + [[2001, 2002], [2003, 2004]])
    assert induced_2k2(K)
    listed = count_face_listings(monkeypatch)
    start = time.process_time()
    chordal_flag = _chordal_flag(K)
    assert time.process_time() - start < 1.0
    assert chordal_flag
    assert not listed  # no face of K was listed


def test_homology_of_a_hub_complex_deletes_the_hubs_last():
    # 39 hubs in all but two of the 1,963 facets: deleting the hubs first
    # rewrote every facet through each of them and took seconds
    hub = list(range(1, 40))
    K = build(2004, [hub + [v] for v in range(40, 2001)] + [[2001, 2002], [2003, 2004]])
    start = time.process_time()
    ranks = homology.__wrapped__(K).ranks  # uncached
    assert time.process_time() - start < 1.0
    assert ranks == (2,) + (0,) * 39  # a cone beside two disjoint edges


def test_has_face_contract():
    K = build(6, [[1, 2, 3], [3, 4], [5]])  # vertex 6 is a ghost
    faces = frozenset(K.faces())
    for f in powerset(range(1, 7)):
        for order in (f, f[::-1], sorted(f, key=lambda v: (v % 2, v))):
            assert K.has_face(order) == (f in faces), order
    assert K.has_face(iter([3, 2])) and K.has_face(range(1, 3))
    # the empty face is a face of every K, the empty complex included
    assert K.has_face(()) and K.has_face([])
    assert build(3, []).has_face(()) and not build(3, []).has_face((1,))
    # a repeated vertex is not a face, nor is one out of range, a float or a bool
    for bad in [(1, 1), (2, 1, 2), (0,), (7,), (-1,), (1, 7), (1.0,), (1, 2.0), [True], (True, 2), ("1",)]:
        assert not K.has_face(bad), bad


@pytest.mark.parametrize("query", ["has_face", "evaluate_special", "union_along"])
def test_queries_on_a_40_vertex_simplex_list_no_faces(query, monkeypatch):
    # a cached set of all 2^40 faces made each of these run out of memory
    K = simplex(40)
    listed = count_face_listings(monkeypatch)
    start = time.process_time()
    if query == "has_face":
        assert K.has_face(range(40, 0, -1)) and K.has_face((7, 3)) and not K.has_face((1, 1))
    elif query == "evaluate_special":
        pairs = PairAssignment.constant_maps([Sphere(2), Sphere(3)] * 20)
        assert evaluate_special(K, pairs) == normalize(Wedge((Sphere(2), Sphere(3)) * 20))
    else:
        glued = union_along(K, K, simplex(20))
        assert glued == build(60, [range(1, 41), range(21, 61)])
    assert time.process_time() - start < 1.0
    assert not listed


@pytest.mark.parametrize("faces", [
    [[i, i + 1] for i in range(1, 20000)],
    [[1, i] for i in range(2, 20001)],
    [[20000, i] for i in range(1, 20000)],
], ids=["path", "star", "star_last_centre"])
def test_build_of_large_sparse_complexes_is_fast(faces):
    # comparing each face with every facet kept so far took seconds here
    start = time.process_time()
    K = build(20000, faces)
    assert time.process_time() - start < 1.0
    assert len(K.facets) == 19999 and K.dim() == 1


def test_face_tests_on_a_large_complex_do_not_rehash_it():
    # the complex keys the lru_caches of its face model: hashing its 19,999
    # facets on every lookup made one face test take about half a millisecond
    K = build(20000, [[i, i + 1] for i in range(1, 20000)])
    assert K.has_face((5, 6)) and not K.has_face((5, 7))
    start = time.process_time()
    for _ in range(10_000):
        K.has_face((5, 6))
    assert time.process_time() - start < 1.0
    # the cached hash takes no part in equality or in the repr
    twin = build(20000, [[i + 1, i] for i in range(19999, 0, -1)])
    assert twin == K and hash(twin) == hash(K) and twin is not K
    assert repr(build(3, [[2, 1]])) == "SimplicialComplex(m=3, facets=((1, 2),))"
    assert build(3, [[1, 2]]) != build(4, [[1, 2]])


def certificate_families(rng, n):
    """n seeded complexes with m <= 9: ghost vertices, clique complexes with
    a facet of size >= 3 dropped, relabeled shifted closures, cones, and
    boundary spheres alone, relabeled or beside a simplex."""
    out = []
    while len(out) < n:
        kind = len(out) % 5
        m = rng.randint(1, 9) if kind in (2, 4) else rng.randint(4, 9)
        if kind == 0:  # ghosts: a complex on part of {1..m}
            k = rng.randint(m - 3, m)
            K = relabeled(rng, build(k, random_generating_faces(rng, k, rng.randint(1, 2 * k), 3)), m)
        elif kind == 1:  # clique complexes, often with a facet dropped
            K = random_certificate_complex(rng, m)
        elif kind == 2:
            K = random_shifted_complex(rng, m)
        elif kind == 3 and m >= 2:  # a cone on a smaller complex
            K = join(random_certificate_complex(rng, m - 1), build(1, [[1]]))
        elif m >= 3:  # a boundary sphere, relabeled with ghosts or beside a simplex
            k = rng.randint(2, m)
            K = relabeled(rng, boundary_simplex(k), m) if rng.random() < 0.5 else (
                disjoint_union(boundary_simplex(k), simplex(m - k)) if k < m else boundary_simplex(k))
        else:
            K = build(m, random_generating_faces(rng, m, rng.randint(0, 3), m))
        out.append(K)
    return out


def test_certificates_match_face_enumerating_references_on_seeded_families():
    rng = random.Random(1515)
    seen = {"shifted": 0, "not shifted": 0, "flag": 0, "not flag": 0,
            "chordal flag": 0, "minimal non-face >= 3": 0, "vertices 1, 2 incomparable": 0}
    families = certificate_families(rng, 2000)
    for K in families:
        shifted = reference_is_shifted(K)
        flag = reference_is_flag(K)
        chordal_flag = flag and brute_chordal(K)
        assert is_shifted(K) == shifted, K
        assert bool(_chordal_flag(K)) == chordal_flag, K
        assert wedge_of_spheres_type.__wrapped__(K) == reference_wedge_of_spheres_type(K), K
        seen["shifted" if shifted else "not shifted"] += 1
        seen["flag" if flag else "not flag"] += 1
        seen["chordal flag"] += chordal_flag
        seen["minimal non-face >= 3"] += any(len(f) >= 3 for f in minimal_non_faces(K))
        # the first pair an all-pairs scan looks at already rules out a labeling
        faces = frozenset(K.faces())
        seen["vertices 1, 2 incomparable"] += K.m >= 2 and not (
            _reference_replaceable(faces, 1, 2) or _reference_replaceable(faces, 2, 1))
    assert max(K.m for K in families) == 9
    assert min(seen.values()) >= 100, seen
    # traces of facets against the face-enumerating reference, every subset
    for K in families[::50]:
        for I in powerset(range(1, K.m + 1)):
            if I:
                assert full_subcomplex(K, I) == reference_full_subcomplex(K, I), (K, I)


def chain_families(rng, n):
    """n seeded complexes for the certificate chain, on m <= 9, each family
    with and without ghost vertices: trees, forests and paths; clique
    complexes of chordal graphs; points; simplices; shifted closures; and
    random complexes, beside RP^2 and the cone on the square."""
    out = [RP2, relabeled(rng, RP2, 8), build(5, [[1, 2, 5], [2, 3, 5], [3, 4, 5], [1, 4, 5]]), square()]
    while len(out) < n:
        kind, ghosts = len(out) % 8, len(out) // 8 % 2
        k = rng.randint(1, 9 - 2 * ghosts)
        m = k + ghosts * rng.randint(1, 2)
        if kind == 0:  # a tree, or a forest when a vertex starts a new part
            forest = rng.random() < 0.5
            faces = [[v] if forest and rng.random() < 0.3 else [rng.randint(1, v - 1), v] for v in range(2, k + 1)]
            K = build(k, [[1]] + faces)
        elif kind == 1:  # a path
            K = build(k, [[1]] + [[v, v + 1] for v in range(1, k)])
        elif kind == 2:  # a chordal graph's clique complex: each vertex joins part of a clique
            cliques = [(1,)]
            for v in range(2, k + 1):
                c = rng.choice(cliques)
                cliques.append(tuple(rng.sample(c, rng.randint(0, len(c)))) + (v,))
            K = build(k, cliques)
        elif kind == 3:  # points
            K = build(k, [[v] for v in range(1, k + 1)])
        elif kind == 4:
            K = simplex(k)
        elif kind == 5:
            K = random_shifted_complex(rng, k)
        else:
            K = random_certificate_complex(rng, k)
        out.append(relabeled(rng, K, m))
    return out


def test_certificate_chain_matches_the_homology_reference_without_homology():
    rng = random.Random(3737)
    seen = {"chordal flag": 0, "several components": 0, "shifted only": 0, "ghost": 0,
            "dim 0": 0, "simplex": 0, "uncertified": 0}
    for K in chain_families(rng, 2000):
        want = reference_wedge_of_spheres_type(K)
        chordal_flag = reference_is_flag(K) and brute_chordal(K)
        parts = {v: v for v in K.vertices()}

        def find(v):
            while parts[v] != v:
                v = parts[v]
            return v

        for f in K.facets:
            for v in f[1:]:
                parts[find(v)] = find(f[0])
        components = len({find(v) for v in parts})
        before = homology.cache_info()
        assert wedge_of_spheres_type.__wrapped__(K) == want, K
        assert _chordal_flag(K) == (components if chordal_flag else 0), K
        assert homology.cache_info() == before, K
        seen["chordal flag"] += chordal_flag
        seen["several components"] += chordal_flag and components > 1
        seen["shifted only"] += not chordal_flag and K.dim() > 0 and reference_is_shifted(K)
        seen["ghost"] += len(parts) < K.m
        seen["dim 0"] += K.dim() == 0
        seen["simplex"] += K.dim() > 0 and len(K.facets) == 1
        seen["uncertified"] += want is None
    assert min(seen.values()) >= 100, seen
