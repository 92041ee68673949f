"""Lyndon-word Hall bases and their counting oracle."""

import random
import sys
from collections import Counter
from itertools import combinations, product as iproduct

import pytest

from _helpers import (
    all_face_letters,
    generators_for,
    graded_class_counts,
    indicator_order,
    letter_class_counts,
    multidegree,
    patch_clearing_memos,
    per_type_counts,
    pruned_hall_basis,
    reference_class_counts,
    regrouped,
    restricted_support,
    support,
    witt_dimension,
)
from polyco import decomp
from polyco.decomp import hilton_milnor, loop_decompose_contractible, loop_decompose_wedge
from polyco.liealg import (
    Bracket,
    Generator,
    _class_counts,
    _class_counts_key,
    hall_basis,
    lyndon_class_counts,
    lyndon_words,
    plain_alphabet,
    stats,
)
from polyco.scomplex import build
from polyco.spacexpr import PairAssignment, Sphere


def brute_lyndon(k, maxlen):
    # oracle: a word is Lyndon iff it is strictly smaller than every proper
    # rotation; enumerate all words directly
    out = []
    for n in range(1, maxlen + 1):
        for w in iproduct(range(k), repeat=n):
            if all(w < w[i:] + w[:i] for i in range(1, n)):
                out.append(w)
    return sorted(out, key=lambda w: (len(w), w))


def test_lyndon_enumeration_matches_brute_force():
    for k, n in [(1, 5), (2, 8), (3, 6), (4, 4)]:
        got = sorted(lyndon_words(k, n), key=lambda w: (len(w), w))
        assert got == brute_lyndon(k, n)


def test_generators_for_counts():
    assert len(generators_for([1, 2])) == 1
    assert len(generators_for([1, 2, 3])) == 5  # 3 pairs + 2 copies for the triple
    assert generators_for([4]) == ()
    assert generators_for([]) == ()


def test_generators_for_order_and_coherence():
    names = [g.name() for g in generators_for([1, 2, 3])]
    assert names == ["a{1,2}#1", "a{1,2,3}#1", "a{1,2,3}#2", "a{1,3}#1", "a{2,3}#1"]
    big = generators_for([1, 2, 3, 4])
    small = generators_for([1, 3, 4])
    # the restriction of the global order agrees with the local order
    assert [g for g in big if set(g.subset) <= {1, 3, 4}] == list(small)


def test_generator_validation():
    with pytest.raises(ValueError):
        Generator.face([1], 1)
    with pytest.raises(ValueError):
        Generator.face([1, 2], 2)
    with pytest.raises(ValueError):
        Generator.plain(0)


def test_hall_basis_two_letters_weight_three():
    bs = hall_basis(plain_alphabet(2), 3)
    assert [b.serialize() for b in bs] == [
        "x1",
        "x2",
        "[x1,x2]",
        "[x1,[x1,x2]]",
        "[[x1,x2],x2]",
    ]


def test_hall_basis_single_generator():
    for bound in (1, 3, 7):
        bs = hall_basis(plain_alphabet(1), bound)
        assert [b.serialize() for b in bs] == ["x1"]


def test_hall_basis_weight_bound_is_an_integer():
    # 2.5 would list the weight-3 brackets and True would count as 1
    assert len(hall_basis(plain_alphabet(2), 2)) == 3
    for bad in (2.5, True, 2.0, 0):
        with pytest.raises(ValueError, match="weight_bound"):
            hall_basis(plain_alphabet(2), bad)


def test_hall_basis_weight_one_is_alphabet():
    alph = generators_for([1, 2, 3])
    bs = hall_basis(alph, 1)
    assert [b.gen for b in bs] == list(alph)


def test_hall_basis_sub_alphabet_coherence():
    # brackets over a sub-alphabet are exactly the brackets of the big basis
    # that only use those letters
    big = hall_basis(generators_for([1, 2, 3]), 4)
    small = hall_basis(generators_for([1, 2]), 4)
    letters = set(generators_for([1, 2]))
    filtered = [b for b in big if set(b.leaves()) <= letters]
    assert [b.serialize() for b in filtered] == [b.serialize() for b in small]
    assert set(small) <= set(big)


def test_standard_bracketing_shapes():
    bs = hall_basis(plain_alphabet(2), 5)
    by_word = {tuple(g.index for g in b.leaves()): b for b in bs}
    # aabab factors as a * abab is wrong; the smallest proper suffix is abab?
    # no: ab < abab < b, so the right factor is ab and aabab = (aab)(ab)
    assert by_word[(1, 1, 2, 1, 2)].serialize() == "[[x1,[x1,x2]],[x1,x2]]"
    assert by_word[(1, 2, 2, 2)].serialize() == "[[[x1,x2],x2],x2]"


def test_stats_examples():
    g12 = Generator.face([1, 2], 1)
    g23 = Generator.face([2, 3], 1)
    single = Bracket.leaf(g12)
    st = stats(single, 3)
    assert st.l == (1, 1, 0)
    assert restricted_support(single, [1, 2, 3]) == (1, 2)

    b = Bracket.pair(Bracket.leaf(g12), Bracket.leaf(g23))
    st = stats(b, 3)
    assert st.bJ == {(1, 2): 1, (2, 3): 1}
    assert st.l == (1, 2, 1)
    assert st.weight == 2
    assert restricted_support(b, [1, 2, 3]) == (1, 2, 3)
    assert restricted_support(b, []) == ()


def test_stats_additive_over_composition():
    rng = random.Random(5)
    alph = generators_for([1, 2, 3])
    basis = hall_basis(alph, 4)
    for _ in range(200):
        u = rng.choice(basis)
        v = rng.choice(basis)
        uv = Bracket.pair(u, v)
        su, sv, suv = stats(u, 3), stats(v, 3), stats(uv, 3)
        assert suv.weight == su.weight + sv.weight
        assert suv.l == tuple(a + b for a, b in zip(su.l, sv.l))
        assert suv.bJ == dict(Counter(su.bJ) + Counter(sv.bJ))


def test_stats_rejects_plain_generators():
    with pytest.raises(ValueError):
        stats(Bracket.leaf(Generator.plain(1)), 3)


def test_stats_rejects_a_letter_beyond_the_ground_set():
    with pytest.raises(ValueError, match=r"exceeds ground set 1\.\.2"):
        stats(Bracket.leaf(Generator.face((1, 3), 1)), 2)


def test_letters_and_brackets_print_as_their_names():
    a, x = Generator.face((2, 1, 3), 2), Generator.plain(4)
    b = Bracket.pair(Bracket.leaf(a), Bracket.leaf(x))
    assert (str(a), str(x), str(b)) == ("a{1,2,3}#2", "x4", "[a{1,2,3}#2,x4]")


def test_witt_examples():
    assert witt_dimension([1, 1]) == 1
    assert witt_dimension([2, 1]) == 1
    for n in range(2, 9):
        assert witt_dimension([n]) == 0
    assert witt_dimension([1]) == 1
    assert witt_dimension([2, 2]) == 1  # only the word x1x1x2x2 is Lyndon
    with pytest.raises(ValueError):
        witt_dimension([0, 0])


@pytest.mark.parametrize("multidegree", [[1.5, 1], [True, 1], [1, 2.0], ["2"]])
def test_witt_dimension_takes_integer_entries(multidegree):
    # int() truncated 1.5 and read True as 1, so both gave 1
    with pytest.raises(ValueError, match="multidegree entries must be integers"):
        witt_dimension(multidegree)
    assert witt_dimension((1, 1)) == 1


def test_hall_counts_match_witt():
    # small instance of the counting oracle (the acceptance suite runs the
    # full sweep)
    for k in (1, 2, 3):
        alphabet = plain_alphabet(k)
        counts = Counter(multidegree(b, alphabet) for b in hall_basis(alphabet, 6))
        for total in range(1, 7):
            for md in iproduct(range(total + 1), repeat=k):
                if sum(md) != total:
                    continue
                assert counts.get(md, 0) == witt_dimension(md)


def test_support_of_plain_brackets():
    bs = hall_basis(plain_alphabet(3), 3)
    for b in bs:
        assert support(b) == tuple(sorted({g.index for g in b.leaves()}))


# ---------------------------------------------------------------------------
# per-class counts against the Witt formula and the enumerated basis
# ---------------------------------------------------------------------------


def plain_letters(k):
    return [(tuple(int(j == i) for j in range(k)), 1) for i in range(k)]


def face_letters(I, m):
    return [
        (tuple(int(j in g.subset) for j in range(1, m + 1)), 1)
        for g in generators_for(I)
    ]


def as_classes(counts):
    """The letter-list counter's keys under one piece per vertex, (w,
    support, l), as (w, l); the support must be the vertices l touches."""
    out = {}
    for (w, support, l), n in counts.items():
        assert support == tuple(j for j, lj in enumerate(l, start=1) if lj), (support, l)
        out[(w, l)] = n
    return out


def as_type_classes(counts):
    """The type counter's keys under one piece per vertex, (w, s, l), as
    (w, l); the type must be the indicator of the vertices l touches."""
    out = {}
    for (w, s, l), n in counts.items():
        assert s == tuple(int(lj > 0) for lj in l), (s, l)
        out[(w, l)] = n
    return out


def subset_types(I, m):
    """The types, under one piece per vertex, of the subsets of I."""
    return {tuple(int(j in J) for j in range(1, m + 1)) for k in range(len(I) + 1) for J in combinations(I, k)}


def enumerated_classes(alphabet, m, W, letter_degrees=None, degree_bound=None):
    basis = pruned_hall_basis(alphabet, W, letter_degrees, degree_bound)
    return dict(Counter((b.weight, stats(b, m).l) for b in basis))


def test_class_counts_match_witt_on_plain_alphabets():
    for k, W in ((1, 8), (2, 8), (3, 6), (4, 5)):
        counts = as_type_classes(graded_class_counts(list(range(k)), W, alphabet="plain"))
        assert counts == as_classes(letter_class_counts(plain_letters(k), W))
        for total in range(1, W + 1):
            for md in iproduct(range(total + 1), repeat=k):
                if sum(md) != total:
                    continue
                assert counts.get((total, md), 0) == witt_dimension(md), (k, md)
        assert all(w == sum(l) and n > 0 for (w, l), n in counts.items())


def test_class_counts_match_enumerated_face_alphabets():
    # the type counter cut to the subsets of I, and the letter-list counter
    # with letters given one copy at a time or merged into the |J| - 1
    # copies form, must agree with the enumerated basis over I
    rng = random.Random(4099)
    for I, m, W in (([1, 2], 2, 5), ([1, 2, 3], 3, 5), ([1, 3, 4], 4, 4), ([1, 2, 3, 4], 4, 3)):
        alphabet = generators_for(I)
        want = enumerated_classes(alphabet, m, W)
        cut = subset_types(I, m)
        assert as_type_classes(graded_class_counts(list(range(m)), W, types=cut)) == want
        assert as_classes(letter_class_counts(face_letters(I, m), W)) == want
        grouped = list(Counter(v for v, _ in face_letters(I, m)).items())
        assert as_classes(letter_class_counts(grouped, W)) == want
        for _ in range(4):
            vdeg = [rng.randint(1, 3) for _ in range(m)]
            bound = rng.randint(2, 14)
            ldeg = [sum(vdeg[j - 1] for j in g.subset) for g in alphabet]
            want = enumerated_classes(alphabet, m, W, ldeg, bound)
            got = as_type_classes(graded_class_counts(
                list(range(m)), W, types=cut, vertex_degrees=vdeg, degree_bound=bound
            ))
            assert got == want, (I, vdeg, bound)
            got = as_classes(letter_class_counts(
                face_letters(I, m), W, vertex_degrees=vdeg, degree_bound=bound
            ))
            assert got == want, (I, vdeg, bound)


def test_class_counts_degree_bound_on_plain_alphabets():
    for degs, bound in (([2, 2, 3], 8), ([1, 4], 9), ([3], 3)):
        k = len(degs)
        alphabet = plain_alphabet(k)
        got = as_type_classes(graded_class_counts(
            list(range(k)), 7, alphabet="plain", vertex_degrees=degs, degree_bound=bound
        ))
        want = Counter((b.weight, multidegree(b, alphabet)) for b in pruned_hall_basis(alphabet, 7, degs, bound))
        assert got == dict(want)
        assert got == as_classes(
            letter_class_counts(plain_letters(k), 7, vertex_degrees=degs, degree_bound=bound)
        )


def test_class_counts_validation():
    assert lyndon_class_counts([], 3) == {}
    with pytest.raises(ValueError):
        lyndon_class_counts([1, 1], 0)
    with pytest.raises(ValueError):
        lyndon_class_counts([1, 1], 3, degree_bound=4)
    with pytest.raises(ValueError):
        lyndon_class_counts([1, 1], 3, degrees=[1, 0], degree_bound=4)
    with pytest.raises(ValueError, match="alphabet"):
        lyndon_class_counts([1, 1], 3, alphabet="letters")
    # a type names each piece once, within the piece's size, and the types
    # are down-closed, as the types of a complex's faces are
    for types in ([(0,)], [(0, 0), (1, 2)], [(0, 0), (1, 0), (1, True)], [(0, 0), (1, 1)]):
        with pytest.raises(ValueError, match="type"):
            lyndon_class_counts([1, 2], 3, types=types)
    assert lyndon_class_counts([1, 2], 3, types=[(0, 0)]) == {}
    # the letter list: nonzero vectors of one length, copies >= 1
    assert letter_class_counts([], 3) == {}
    with pytest.raises(ValueError):
        letter_class_counts([((0, 0), 1)], 2)
    with pytest.raises(ValueError):
        letter_class_counts([((1, 0), 0)], 2)
    with pytest.raises(ValueError):
        letter_class_counts([((1, 0), 1), ((1,), 1)], 2)
    # vector entries and copies are plain ints, and the error names the letter
    for letter in (((1.5, 0), 1), ((1.0, 0), 1), ((True, 0), 1), ((1, 0), 1.5), ((1, 0), True)):
        with pytest.raises(ValueError, match=r"letter \("):
            letter_class_counts([letter], 2)


# ---------------------------------------------------------------------------
# the type counter against the tuple reference regrouped per support type
# ---------------------------------------------------------------------------


def _random_grading(rng, m):
    # pieces numbered in order of first vertex, as the decompositions number them
    shape = [rng.randrange(rng.randint(1, m)) for _ in range(m)]
    first = {}
    return [first.setdefault(p, len(first)) for p in shape]


def _face_types(faces, grading):
    out = set()
    for f in faces:
        s = [0] * (max(grading) + 1)
        for j in f:
            s[grading[j - 1]] += 1
        out.add(tuple(s))
    return out


def random_complex_on(rng, m):
    faces = [rng.sample(range(1, m + 1), rng.randint(1, m)) for _ in range(rng.randint(0, m + 1))]
    return build(m, faces)


def test_type_counts_match_the_regrouped_reference():
    # the face alphabet of {1..m}, the same cut to a random complex's face
    # types (against the letters of its faces, on its face supports only),
    # and plain letters; one piece, mixed pieces and one piece per vertex;
    # with and without a degree bound.  Each count is one support's, so the
    # reference regrouped per (w, type, q) must hold one value per type.
    rng = random.Random(8171)
    seen = Counter()
    for _ in range(270):
        m = rng.randint(1, 6)
        shape = rng.choice(("one piece", "mixed", "per vertex"))
        grading = {"one piece": [0] * m, "per vertex": list(range(m))}.get(shape) or _random_grading(rng, m)
        alphabet = rng.choice(("face", "cut", "plain"))
        W = {1: 6, 2: 6, 3: 6, 4: 5, 5: 4, 6: 3}[m] if alphabet != "plain" else rng.randint(1, 8)
        degs = bound = None
        if rng.random() < 0.5:
            per_piece = [rng.randint(1, 4) for _ in range(m)]
            degs = [per_piece[p] for p in grading]
            bound = rng.randint(1, 20)
        args = dict(vertex_degrees=degs, degree_bound=bound)
        if alphabet == "plain":
            got = graded_class_counts(grading, W, alphabet="plain", **args)
            want = per_type_counts(reference_class_counts(plain_letters(m), W, degs, bound), grading)
        elif alphabet == "face":
            got = graded_class_counts(grading, W, **args)
            want = per_type_counts(reference_class_counts(all_face_letters(m), W, degs, bound), grading)
        else:
            faces = random_complex_on(rng, m).faces()
            letters = [(tuple(int(j in J) for j in range(1, m + 1)), len(J) - 1) for J in faces if len(J) >= 2]
            got = graded_class_counts(grading, W, types=_face_types(faces, grading), **args)
            want = per_type_counts(reference_class_counts(letters, W, degs, bound), grading, set(faces))
        assert got == want, (alphabet, grading, W, degs, bound)
        assert list(got) == list(want)
        seen[alphabet, shape, bound is not None] += bool(got)
    assert len(seen) == 18 and min(seen.values()) >= 3, seen
    # the boundary of the 3-simplex with one space at every vertex: its one
    # missing face {1,2,3,4} carries 813,773,326,765,155 brackets at W = 13
    got = lyndon_class_counts([4], 13)
    assert sum(n for (_, s, _), n in got.items() if s == (4,)) == 813773326765155


# ---------------------------------------------------------------------------
# the letter-list counter against the tuple reference: free vectors and
# lane widths
# ---------------------------------------------------------------------------


def _random_letters(rng):
    # plain, face or free vectors over m <= 7 vertices with 1-3 copies; some
    # sets carry entries up to 300 (2-byte lanes), some up to 10**6 or 10**12
    # (4- and 8-byte lanes)
    m = rng.randint(1, 7)
    top = rng.choice((1, 1, 2, 3, 3, 3, 300, 300, 10**6, 10**12))
    letters = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(3)
        if kind == 0:
            v = [0] * m
            v[rng.randrange(m)] = 1
        elif kind == 1 and m >= 2:
            J = rng.sample(range(m), rng.randint(2, m))
            v = [int(j in J) for j in range(m)]
        else:
            v = [rng.choice((0, 0, 1, rng.randint(1, top))) for _ in range(m)]
            if not any(v):
                v[rng.randrange(m)] = rng.randint(1, top)
        letters.append((tuple(v), rng.randint(1, 3)))
    return m, letters


def _assert_matches_reference(letters, W, degs=None, bound=None, pieces=None):
    # the counter against the tuple DP's classes summed per group, in listing order
    m = len(letters[0][0])
    got = letter_class_counts(letters, W, pieces=pieces, vertex_degrees=degs, degree_bound=bound)
    grading = list(range(m)) if pieces is None else pieces
    want = regrouped(reference_class_counts(letters, W, degs, bound), grading)
    assert got == want, (letters, W, pieces, degs, bound)
    assert list(got) == sorted(want, key=lambda key: indicator_order(key, m))
    return got


def test_packed_class_counts_match_the_tuple_reference():
    rng = random.Random(8111)
    bounded = wide = 0
    for _ in range(240):
        m, letters = _random_letters(rng)
        W = rng.randint(1, 8)
        degs = bound = None
        if rng.random() < 0.5:
            degs = [rng.randint(1, 4) for _ in range(m)]
            bound = rng.randint(1, 20)
            bounded += 1
        wide += W * max(max(v) for v, _ in letters) >= 256
        _assert_matches_reference(letters, W, degs, bound)
    assert bounded >= 100 and wide >= 40
    # the boundary of the 3-simplex's face alphabet, as the contractible engine counts it
    for W, classes in ((10, None), (13, 67463)):
        got = _assert_matches_reference(all_face_letters(4), W)
        assert classes is None or len(got) == classes


def test_grouped_counts_match_the_regrouped_reference():
    # random piece maps on m <= 6 vertices, some with every vertex its own
    # piece and some with one piece; degrees shared within each piece
    rng = random.Random(8123)
    coarse = bounded = 0
    for _ in range(240):
        m, letters = _random_letters(rng)
        while m > 6:
            m, letters = _random_letters(rng)
        pieces = rng.choice((_random_grading(rng, m), [0] * m, list(range(m))))
        W = rng.randint(1, 7)
        degs = bound = None
        if rng.random() < 0.5:
            per_piece = [rng.randint(1, 4) for _ in range(m)]
            degs = [per_piece[p] for p in pieces]
            bound = rng.randint(1, 20)
            bounded += 1
        coarse += len(set(pieces)) < m
        _assert_matches_reference(letters, W, degs, bound, pieces)
    assert coarse >= 100 and bounded >= 100
    # the boundary of the 3-simplex with one space at every vertex: 193
    # groups for the 67,463 classes of the face alphabet at W = 13
    got = _assert_matches_reference(all_face_letters(4), 13, pieces=[0, 0, 0, 0])
    assert len(got) == 611
    assert sum(n for (_, support, _), n in got.items() if support == (1, 2, 3, 4)) == 813773326765155


def test_class_counts_numeric_arguments_are_integers():
    # a float or a bool bound or degree is an error naming the argument,
    # not a bare TypeError, a count at 1 or a pruning by float degrees
    sizes = [1, 1]
    for bad in (2.5, True, 2.0, 0, -1):
        with pytest.raises(ValueError, match="weight_bound"):
            lyndon_class_counts(sizes, bad)
    # one degree per piece, each an integer >= 1
    for degs in ([1.5, 1], [True, 1], [0, 1], [1], [1, 1, 1]):
        with pytest.raises(ValueError, match="degrees"):
            lyndon_class_counts(sizes, 3, degrees=degs, degree_bound=4)
    for bound in (4.5, True):
        with pytest.raises(ValueError, match="degree_bound"):
            lyndon_class_counts(sizes, 3, degrees=[1, 1], degree_bound=bound)
    # a bound of 0 or below leaves nothing, on either alphabet, and on the
    # letter list whatever the lane width of the letters
    for bound in (0, -2):
        for alphabet in ("face", "plain"):
            assert lyndon_class_counts(sizes, 3, alphabet=alphabet, degrees=[1, 1], degree_bound=bound) == {}
        assert letter_class_counts([((300, 1), 1), ((0, 1), 1)], 3, vertex_degrees=[1, 1],
                                   degree_bound=bound) == {}
    # no vertices still checks the bound
    with pytest.raises(ValueError, match="weight_bound"):
        lyndon_class_counts([], 2.5)
    # each piece holds at least one vertex, counted by a plain int
    for bad in ([0], [1, -1], [1, True], [1, 1.0], [2, 0]):
        with pytest.raises(ValueError, match="sizes"):
            lyndon_class_counts(bad, 3)


def test_class_counts_take_piece_sizes_not_a_grading():
    # every per-vertex grading numbers some vertex's piece 0, which is no
    # piece's size, and the per-vertex degrees are gone with it
    for grading in ([0, 1], [0, 0, 1], [0, 1, 0, 2]):
        with pytest.raises(ValueError, match="sizes"):
            lyndon_class_counts(grading, 3)
    with pytest.raises(TypeError, match="vertex_degrees"):
        lyndon_class_counts([1, 1], 3, vertex_degrees=[1, 2], degree_bound=4)


# ---------------------------------------------------------------------------
# the counter's memo: one entry per validated shape
# ---------------------------------------------------------------------------


def test_class_counts_memo_rejects_the_bool_and_float_twins_of_a_cached_key():
    # True == 1 and 1.0 == 1 hash alike, so a memo asked before the checks
    # would answer each twin from its cached int key
    types = [(0, 0), (1, 0), (0, 1), (1, 1)]
    valid = (
        (dict(sizes=[2, 1], weight_bound=3), "sizes", lambda x: dict(sizes=[2, x], weight_bound=3)),
        (dict(sizes=[1, 1], weight_bound=1), "weight_bound", lambda x: dict(sizes=[1, 1], weight_bound=x)),
        (dict(sizes=[1, 1], weight_bound=3, degrees=[1, 2], degree_bound=1), "degree_bound",
         lambda x: dict(sizes=[1, 1], weight_bound=3, degrees=[1, 2], degree_bound=x)),
        (dict(sizes=[1, 1], weight_bound=3, degrees=[1, 2], degree_bound=4), "degrees",
         lambda x: dict(sizes=[1, 1], weight_bound=3, degrees=[x, 2], degree_bound=4)),
        (dict(sizes=[1, 1], weight_bound=3, types=types), "type",
         lambda x: dict(sizes=[1, 1], weight_bound=3, types=[(0, 0), (x, 0), (0, 1), (1, 1)])),
    )
    for args, name, twin in valid:
        assert twin(1) == args
        lyndon_class_counts(**args)
        hits = _class_counts.cache_info().hits
        lyndon_class_counts(**args)
        assert _class_counts.cache_info().hits == hits + 1  # the int key is cached
        for x in (True, 1.0):
            with pytest.raises(ValueError, match=name):
                lyndon_class_counts(**twin(x))


def test_class_counts_memo_matches_the_uncached_dp():
    # the piece sizes, type cuts and degree bounds of the counter tests
    # above, on both alphabets, through one warm memo: each answer equals
    # the DP run afresh on its key, in order, so no two shapes share an entry
    assert _class_counts.cache_info().maxsize is not None
    rng = random.Random(8171)
    specs = []
    for _ in range(60):
        m = rng.randint(1, 5)
        grading = rng.choice(([0] * m, list(range(m)), _random_grading(rng, m)))
        sizes = list(Counter(grading).values())  # pieces are numbered by first vertex
        W = rng.randint(1, {1: 6, 2: 6, 3: 5, 4: 4, 5: 3}[m])
        degs = [rng.randint(1, 4) for _ in sizes]
        cut = _face_types(random_complex_on(rng, m).faces(), grading)
        for alphabet in ("face", "plain"):
            for types in (None, cut):
                specs.append(dict(sizes=sizes, weight_bound=W, alphabet=alphabet, types=types))
                specs.append(dict(specs[-1], degrees=degs, degree_bound=rng.randint(1, 20)))
                specs.append(dict(specs[-2], degrees=degs))  # no bound: the degrees change nothing
    _class_counts.cache_clear()
    for spec in specs + specs[::-1]:
        got = lyndon_class_counts(**spec)
        key = _class_counts_key(*(spec.get(name) for name in (
            "sizes", "weight_bound", "alphabet", "types", "degrees", "degree_bound")))
        want = _class_counts.__wrapped__(*key)
        assert list(got.items()) == list(want.items()), spec
    assert _class_counts.cache_info().hits >= len(specs)
    # the degrees join the key only under a bound
    assert _class_counts_key([1, 1], 3, "face", None, [1, 2], None)[4] is None
    # a read-only mapping over the cached counts, the same on the next call
    counts = lyndon_class_counts([2, 1], 4)
    with pytest.raises(TypeError):
        counts[(1, (1, 0), (1, 0))] = 0
    assert lyndon_class_counts([2, 1], 4) == counts and lyndon_class_counts([2, 1], 4) is counts


def test_hilton_milnor_with_other_spaces_of_one_shape_counts_once():
    hilton_milnor([Sphere(2), Sphere(3)], 5)
    hits = _class_counts.cache_info().hits
    hilton_milnor([Sphere(4), Sphere(5)], 5)
    assert _class_counts.cache_info().hits == hits + 1


def test_relabelings_of_one_decomposition_run_one_dp(monkeypatch):
    # contractible domains over the boundary of the 3-simplex with codomains
    # S^2, S^3, S^2, S^3 and then S^2, S^2, S^3, S^3: two pieces of two
    # vertices each time, so one shape and one DP
    K = build(4, combinations(range(1, 5), 3))
    asked = []

    def counter(sizes, *args, **options):
        asked.append(tuple(sizes))
        return lyndon_class_counts(sizes, *args, **options)

    patch_clearing_memos(monkeypatch, decomp, "lyndon_class_counts", counter)
    _class_counts.cache_clear()
    decs = [
        loop_decompose_contractible(K, PairAssignment.path_fibrations(Sphere(n) for n in codomains), 6)
        for codomains in ((2, 3, 2, 3), (2, 2, 3, 3))
    ]
    assert _class_counts.cache_info().misses == 1 and _class_counts.cache_info().hits == 1
    assert asked == [(2, 2), (2, 2)]
    assert decs[0].factor_multiset() == decs[1].factor_multiset()
    # relabelings of the wedge preset with a degree bound share one entry
    # too; other degrees under the bound do not
    _class_counts.cache_clear()
    for spaces in ((2, 3, 3, 2), (2, 3, 2, 3), (4, 3, 3, 4)):
        loop_decompose_wedge(K, [Sphere(n) for n in spaces], 6, degree_bound=9)
    assert _class_counts.cache_info().misses == 2 and _class_counts.cache_info().hits == 1
    assert asked[2:] == [(2, 2)] * 3


def test_every_polyco_memo_clears_through_its_module():
    # as the benchmark clears them between its warm-up and its run
    hilton_milnor([Sphere(2), Sphere(3)], 5)
    assert _class_counts.cache_info().currsize > 0
    memos = []
    for name, mod in list(sys.modules.items()):
        if name == "polyco" or name.startswith("polyco."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
                    memos.append(value)
    assert any(memo is _class_counts for memo in memos)
    assert all(memo.cache_info().currsize == 0 for memo in memos)
