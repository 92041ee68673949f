"""Combinatorics and homology of simplicial complexes."""

import random
import time
from itertools import chain, combinations

import pytest

from _helpers import (
    dense_rank,
    random_int_matrix,
    reference_boundary_ranks,
    reference_build,
    reference_full_subcomplex,
    reference_homology_ranks,
)
from polyco.scomplex import (
    _reduce,
    build,
    complex_from_json,
    complex_from_json_str,
    complex_to_json_str,
    disjoint_union,
    full_subcomplex,
    has_chordal_1skeleton,
    homology,
    is_flag,
    is_shifted,
    join,
    maximal_faces_ge2,
    minimal_non_faces,
    missing_subsets,
    union_along,
    wedge_of_spheres_type,
)


def square():
    return build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


def boundary_simplex(m):
    return build(m, [list(c) for c in combinations(range(1, m + 1), m - 1)])


def simplex(m):
    return build(m, [list(range(1, m + 1))])


def powerset(iterable):
    s = list(iterable)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


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


def test_ghost_vertices_reported():
    K = build(4, [[1, 2]])
    assert K.ghost_vertices() == (3, 4)
    assert K.vertices() == (1, 2)


def test_empty_complex_is_legal():
    K = build(3, [])
    assert K.faces() == ((),)
    assert K.dim() == -1
    assert K.ghost_vertices() == (1, 2, 3)


def test_full_subcomplex_against_enumeration():
    K = square()
    sub, verts = full_subcomplex(K, [1, 3])
    assert verts == (1, 3)
    # oracle: faces contained in {1,3}, relabeled
    expected = {f for f in brute_faces(K) if set(f) <= {1, 3}}
    relabel = {1: 1, 3: 2}
    assert set(sub.faces()) == {tuple(relabel[v] for v in f) for f in expected}
    assert sub.facets == ((1,), (2,))  # two disjoint vertices, no edge


def test_full_subcomplex_identity():
    K = square()
    sub, verts = full_subcomplex(K, [1, 2, 3, 4])
    assert sub == K
    assert verts == (1, 2, 3, 4)


def test_full_subcomplex_single_edge():
    sub, _ = full_subcomplex(square(), [1, 2])
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
        sub1, verts1 = full_subcomplex(K, I)
        J_new = sorted(rng.sample(range(1, len(I) + 1), rng.randint(1, len(I))))
        sub2, verts2 = full_subcomplex(sub1, J_new)
        composed = tuple(verts1[v - 1] for v in verts2)
        direct, dverts = full_subcomplex(K, composed)
        assert direct == sub2
        assert dverts == composed


def test_maximal_faces_ge2():
    assert maximal_faces_ge2(square()) == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert maximal_faces_ge2(build(3, [[1], [2], [3]])) == ()


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
        assert is_flag(K)
        assert has_chordal_1skeleton(K)


def test_square_is_flag_not_chordal_not_shifted():
    K = square()
    assert is_flag(K)
    assert not has_chordal_1skeleton(K)  # 4-cycle with no chord
    assert not is_shifted(K)


def test_boundary_triangle_not_flag_but_shifted():
    K = boundary_simplex(3)
    assert minimal_non_faces(K) == ((1, 2, 3),)
    assert not is_flag(K)
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


def test_is_shifted_matches_permutation_search():
    rng = random.Random(271)
    for _ in range(60):
        m = rng.randint(1, 5)
        faces = [
            rng.sample(range(1, m + 1), rng.randint(1, m))
            for _ in range(rng.randint(0, 5))
        ]
        K = build(m, faces)
        assert is_shifted(K) == brute_is_shifted(K), K


def brute_chordal(K):
    # oracle: no induced cycle on four or more vertices (every vertex of the
    # induced subgraph has degree exactly 2 and the subgraph is connected)
    edges = {f for f in K.faces() if len(f) == 2}
    verts = list(range(1, K.m + 1))

    def induced_cycle(S):
        deg = {v: 0 for v in S}
        for a, b in combinations(sorted(S), 2):
            if (a, b) in edges:
                deg[a] += 1
                deg[b] += 1
        if any(d != 2 for d in deg.values()):
            return False
        seen = {S[0]}
        frontier = [S[0]]
        while frontier:
            v = frontier.pop()
            for u in S:
                if u not in seen and tuple(sorted((u, v))) in edges:
                    seen.add(u)
                    frontier.append(u)
        return len(seen) == len(S)

    for k in range(4, K.m + 1):
        for S in combinations(verts, k):
            if induced_cycle(list(S)):
                return False
    return True


def test_chordality_matches_induced_cycle_search():
    rng = random.Random(137)
    for _ in range(60):
        m = rng.randint(1, 6)
        faces = [
            rng.sample(range(1, m + 1), rng.randint(1, min(2, m)))
            for _ in range(rng.randint(0, 8))
        ]
        K = build(m, faces)
        assert has_chordal_1skeleton(K) == brute_chordal(K), K


def test_wedge_of_spheres_type():
    assert wedge_of_spheres_type(build(2, [[1], [2]])) == (0,)
    assert wedge_of_spheres_type(boundary_simplex(3)) == (1,)
    assert wedge_of_spheres_type(simplex(4)) == ()
    assert wedge_of_spheres_type(square()) is None  # no certificate applies
    assert wedge_of_spheres_type(build(2, [])) == (-1,)  # the empty complex


def test_wedge_of_spheres_chordal_flag():
    # a path: flag with chordal 1-skeleton, contractible
    path = build(3, [[1, 2], [2, 3]])
    assert is_flag(path) and has_chordal_1skeleton(path)
    assert wedge_of_spheres_type(path) == ()


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
    K = build(4, [[4, 3], [2, 1], [1, 4]])
    text = complex_to_json_str(K)
    assert complex_from_json_str(text) == K
    assert complex_to_json_str(complex_from_json_str(text)) == text


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
        (0, [[1]]), (-2, []), (2.0, [[1]]),
        (3, [[1, 2], []]), (3, [[1, 4]]), (3, [[0, 1]]), (3, [[2, -1, 5]]),
    ]:
        with pytest.raises(ValueError) as new:
            build(m, faces)
        with pytest.raises(ValueError) as ref:
            reference_build(m, faces)
        assert str(new.value) == str(ref.value)


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
            sub, verts = full_subcomplex(K, I)
            ghosts = set(K.ghost_vertices())
            assert {verts[j - 1] for j in sub.ghost_vertices()} == ghosts & set(verts)


def test_full_subcomplex_errors_match_reference():
    K = square()
    for I in ([], [0, 1], [2, 5], [-1], [1, 4, 9]):
        with pytest.raises(ValueError) as new:
            full_subcomplex(K, I)
        with pytest.raises(ValueError) as ref:
            reference_full_subcomplex(K, I)
        assert str(new.value) == str(ref.value)
