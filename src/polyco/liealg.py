"""
Hall bases of free ungraded Lie algebras, fixed to the Lyndon-word basis.

Generators come in two flavours: plain symbols x_1..x_m (for the classical
wedge-of-suspensions decomposition) and face generators a_{J,i} indexed by a
vertex subset J with |J| >= 2 and a copy index 1 <= i <= |J|-1 (the alphabet
the polyhedral decompositions run over).  The generator order is fixed once,
by (J, i), so the bases attached to nested vertex sets are simultaneously
compatible: the basis over a sub-alphabet is literally a subset of the basis
over the larger one.  That coherence is what makes deduplicating brackets
across overlapping maximal faces well defined.

witt_dimension is the classical multigraded Witt formula and serves as an
independent counting oracle for the Lyndon enumeration.  lyndon_class_counts
generalizes it to letters graded by vertex vectors with several copies each:
it counts Lyndon words per (length, support, piece content) group without
listing them, which is all the decompositions need.  It packs each grading
into one int, so the DP adds and ors ints and the groups come out in listing
order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, repeat
from math import factorial, gcd, prod
from operator import and_, mul
from struct import Struct
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, slots=True)
class Generator:
    """A basis letter: a_{J,i} when subset is set, else the plain symbol x_index."""

    subset: tuple[int, ...] | None
    index: int

    @staticmethod
    def plain(i: int) -> "Generator":
        if i < 1:
            raise ValueError("plain generator index must be >= 1")
        return Generator(None, i)

    @staticmethod
    def face(J: Iterable[int], i: int) -> "Generator":
        sub = tuple(sorted(set(J)))
        if len(sub) < 2:
            raise ValueError(f"face generator needs |J| >= 2, got {sub}")
        if not 1 <= i <= len(sub) - 1:
            raise ValueError(f"copy index {i} outside 1..{len(sub) - 1}")
        return Generator(sub, i)

    def key(self) -> tuple:
        if self.subset is None:
            return ((self.index,), 0)
        return (self.subset, self.index)

    def name(self) -> str:
        if self.subset is None:
            return f"x{self.index}"
        return "a{" + ",".join(map(str, self.subset)) + "}#" + str(self.index)

    def __str__(self) -> str:
        return self.name()


def generators_for(I: Iterable[int]) -> tuple[Generator, ...]:
    """The alphabet S_I = {a_{J,i} : J subset of I, |J| >= 2, 1 <= i <= |J|-1}.

    Ordered by (J lexicographic, i); restricting to a smaller I gives a
    prefix-compatible subsequence of the same global order.
    """
    iv = tuple(sorted(set(I)))
    gens = []
    for k in range(2, len(iv) + 1):
        for J in combinations(iv, k):
            for i in range(1, k):
                gens.append(Generator(J, i))
    gens.sort(key=Generator.key)
    return tuple(gens)


def plain_alphabet(m: int) -> tuple[Generator, ...]:
    return tuple(Generator.plain(i) for i in range(1, m + 1))


@dataclass(frozen=True, slots=True)
class Bracket:
    """A binary Lie bracket over Generators; leaves carry gen, nodes left/right."""

    gen: Generator | None
    left: "Bracket | None"
    right: "Bracket | None"
    weight: int

    @staticmethod
    def leaf(g: Generator) -> "Bracket":
        return Bracket(g, None, None, 1)

    @staticmethod
    def pair(left: "Bracket", right: "Bracket") -> "Bracket":
        return Bracket(None, left, right, left.weight + right.weight)

    def leaves(self) -> tuple[Generator, ...]:
        if self.gen is not None:
            return (self.gen,)
        return self.left.leaves() + self.right.leaves()

    def multidegree(self) -> dict[Generator, int]:
        return dict(Counter(self.leaves()))

    def serialize(self) -> str:
        if self.gen is not None:
            return self.gen.name()
        return f"[{self.left.serialize()},{self.right.serialize()}]"

    def __str__(self) -> str:
        return self.serialize()


def lyndon_words(alphabet_size: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """Duval's algorithm: all Lyndon words of length <= max_len over 0..k-1,
    in lexicographic order."""
    k = alphabet_size
    if k <= 0 or max_len <= 0:
        return
    w = [0]
    while True:
        yield tuple(w)
        period = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - period])
        while w and w[-1] == k - 1:
            w.pop()
        if not w:
            return
        w[-1] += 1


def _standard_bracketing(
    word: tuple[int, ...],
    alphabet: Sequence[Generator],
    memo: dict[tuple[int, ...], Bracket],
) -> Bracket:
    """Right standard factorization w = uv, v the smallest proper suffix."""
    hit = memo.get(word)
    if hit is not None:
        return hit
    if len(word) == 1:
        b = Bracket.leaf(alphabet[word[0]])
    else:
        cut = 1
        for i in range(2, len(word)):
            if word[i:] < word[cut:]:
                cut = i
        b = Bracket.pair(
            _standard_bracketing(word[:cut], alphabet, memo),
            _standard_bracketing(word[cut:], alphabet, memo),
        )
    memo[word] = b
    return b


def hall_basis(
    alphabet: Sequence[Generator],
    weight_bound: int,
    *,
    letter_degrees: Sequence[int] | None = None,
    degree_bound: int | None = None,
) -> list[Bracket]:
    """All Lyndon brackets of weight <= weight_bound over the given alphabet.

    Deterministic order: (weight, word lexicographic in alphabet order).
    When letter_degrees and degree_bound are given, brackets whose total
    letter degree exceeds degree_bound are omitted; since degrees are >= 1
    this prunes exactly the brackets invisible below that degree, which keeps
    truncated series products finite without changing them.
    """
    if type(weight_bound) is not int or weight_bound < 1:  # no bool, no float
        raise ValueError(f"weight_bound must be an integer >= 1, got {weight_bound!r}")
    k = len(alphabet)
    if k == 0:
        return []
    max_len = weight_bound
    degs = None
    if degree_bound is not None:
        if type(degree_bound) is not int:
            raise ValueError(f"degree_bound must be an integer, got {degree_bound!r}")
        if letter_degrees is None or len(letter_degrees) != k:
            raise ValueError("degree_bound needs letter_degrees for the alphabet")
        degs = list(letter_degrees)
        if not all(type(d) is int and d >= 1 for d in degs):
            raise ValueError(f"letter_degrees must be integers >= 1, got {degs!r}")
        max_len = min(max_len, degree_bound // min(degs))
    words = []
    for w in lyndon_words(k, max_len):
        if degs is not None and sum(degs[c] for c in w) > degree_bound:
            continue
        words.append(w)
    words.sort(key=lambda w: (len(w), w))
    memo: dict[tuple[int, ...], Bracket] = {}
    return [_standard_bracketing(w, alphabet, memo) for w in words]


@dataclass(slots=True)
class BracketStats:
    """Per-subset counts b(J), per-vertex totals l_i, and the weight of a bracket."""

    bJ: dict[tuple[int, ...], int]
    l: tuple[int, ...]
    weight: int


def stats(b: Bracket, m: int) -> BracketStats:
    """Counts over the face-generator leaves of b, on the ground set {1..m}."""
    bJ: Counter[tuple[int, ...]] = Counter()
    for g in b.leaves():
        if g.subset is None:
            raise ValueError("stats needs face generators, got a plain symbol")
        if g.subset[-1] > m:
            raise ValueError(f"generator {g} exceeds ground set 1..{m}")
        bJ[g.subset] += 1
    l = [0] * m
    for J, count in bJ.items():
        for v in J:
            l[v - 1] += count
    return BracketStats(dict(bJ), tuple(l), b.weight)


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


@lru_cache(maxsize=None)
def _mobius_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """(d, mu(d)) for the divisors d > 1 of n with mu(d) != 0."""
    return tuple((d, _mobius(d)) for d in range(2, n + 1) if n % d == 0 and _mobius(d))


def witt_dimension(multidegree: Sequence[int]) -> int:
    """Number of Hall-basis brackets with the given generator multidegree.

    Multigraded Witt formula: (1/n) sum over d | gcd of mu(d) * multinomial,
    where n is the total weight.
    """
    counts = [int(c) for c in multidegree]
    if any(c < 0 for c in counts):
        raise ValueError("multidegree entries must be nonnegative")
    n = sum(counts)
    if n < 1:
        raise ValueError("total weight must be >= 1")
    total = sum(
        mu * factorial(n // d) // prod(factorial(c // d) for c in counts)
        for d, mu in ((1, 1), *_mobius_divisors(gcd(*counts)))
    )
    assert total % n == 0
    return total // n


def lyndon_class_counts(
    letters: Sequence[tuple[Sequence[int], int]],
    weight_bound: int,
    *,
    pieces: Sequence[int] | None = None,
    vertex_degrees: Sequence[int] | None = None,
    degree_bound: int | None = None,
) -> dict[tuple[int, tuple[int, ...], tuple[int, ...]], int]:
    """Number of Lyndon words per (length w, support, piece content q), w <= weight_bound.

    letters lists (vertex vector, number of copies): a face letter a_J is
    (e_J, |J| - 1), a plain letter x_i is (e_i, 1).  pieces numbers each
    vertex's piece (default: one per vertex, where q is the vertex content
    l); q_p sums a word's vectors over piece p, and its support is the set
    of vertices its letters touch.  Words are counted by a DP over these
    gradings, supports combining by union, and the Lyndon words by the
    multigraded Witt formula for graded letters (Kang & Kim, J. Algebra 183,
    1996): u^d has grading (d * q_u, S_u), so w * L(w, q, S) = sum over
    d | gcd(w, q) of mu(d) * words[w/d][q/d, S].  With vertex_degrees (equal
    within a piece) and degree_bound, gradings with sum_j l_j * deg_j above
    the bound are omitted, exactly the brackets hall_basis prunes.

    A grading is one int, q in fixed-width lanes (piece 0 the most
    significant) above an m-bit support mask (vertex 1 its top bit): a DP
    step is (k + q_u) | S_u, and the Moebius terms are pushed from each root
    to (d * q, S).  Int order is lexicographic order on (q, mask), so the
    result is in listing order: by w, then q descending, then support.
    """
    if type(weight_bound) is not int or weight_bound < 1:  # no bool, no float
        raise ValueError(f"weight_bound must be an integer >= 1, got {weight_bound!r}")
    if degree_bound is not None and type(degree_bound) is not int:
        raise ValueError(f"degree_bound must be an integer, got {degree_bound!r}")
    letters = [(tuple(vector), copies) for vector, copies in letters]
    if not letters:
        return {}
    m = len(letters[0][0])
    grading = tuple(range(m)) if pieces is None else tuple(pieces)
    if len(grading) != m or not all(type(p) is int and p >= 0 for p in grading):
        raise ValueError(f"pieces must give each of the {m} vertices a number >= 0, got {pieces!r}")
    size = max(grading) + 1
    degs = [0] * size  # per piece; all 0 without a bound
    if degree_bound is not None:
        for p, d in zip(grading, vertex_degrees or ()):
            degs[p] = d
        if vertex_degrees is None or [degs[p] for p in grading] != list(vertex_degrees) or not all(
            type(d) is int and d >= 1 for d in vertex_degrees
        ):
            raise ValueError(f"degree_bound needs vertex_degrees, one integer >= 1 per vertex, "
                             f"equal within a piece; got {vertex_degrees!r}")

    bits = [1 << (m - j) for j in range(1, m + 1)]
    graded: dict[tuple[tuple[int, ...], int], int] = {}  # (q, support mask) -> copies
    for v, copies in letters:
        if not all(type(x) is int for x in (*v, copies)):
            raise ValueError(f"letter {v} x{copies!r}: entries and copies must be integers")
        if copies < 1 or any(x < 0 for x in v) or not any(v) or len(v) != m:
            raise ValueError(f"letter {v} x{copies}: need a nonzero length-{m} vector, copies >= 1")
        q = [0] * size
        for p, x in zip(grading, v):
            q[p] += x
        key = (tuple(q), sum(compress(bits, v)))
        graded[key] = graded.get(key, 0) + copies
    # a lane holds word length times the largest entry; each letter adds degree >= 1
    top = max(1, min(weight_bound, degree_bound or weight_bound)) * max(max(q) for q, _ in graded)
    fits = [c for b, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")) if top < 256**b]
    if not fits:
        raise ValueError(f"piece contents up to {top} do not fit a 64-bit lane")
    lanes = Struct(f">{size}{fits[0]}")

    # each state carries its degree, so pruning costs one add
    step = [
        (int.from_bytes(lanes.pack(*q), "big") << m, mask, copies, sum(map(mul, q, degs)))
        for (q, mask), copies in graded.items()
    ]
    layer = {0: (1, 0)}
    words: list[dict[int, tuple[int, int]]] = [layer]
    for _ in range(weight_bound):
        nxt: dict[int, tuple[int, int]] = {}
        for k, (count, deg) in layer.items():
            for a, mask, copies, dv in step:
                if degree_bound is not None and deg + dv > degree_bound:
                    continue
                hit = nxt.get(key := (k + a) | mask)
                nxt[key] = (count * copies + (hit[0] if hit else 0), deg + dv)
        if not nxt:
            break
        words.append(nxt)
        layer = nxt

    low = (1 << m) - 1
    supports: dict[int, tuple[int, ...]] = {}
    out: dict[tuple[int, tuple[int, ...], tuple[int, ...]], int] = {}
    for w in range(1, len(words)):
        totals = {k: count for k, (count, _) in words[w].items()}
        for d, mu in _mobius_divisors(w):
            for root, (count, _) in words[w // d].items():
                if (key := (root >> m) * d << m | (root & low)) in totals:
                    totals[key] += mu * count
        for k in sorted(totals, reverse=True):
            total = totals[k]
            assert total % w == 0
            if total:
                if (mask := k & low) not in supports:
                    supports[mask] = tuple(compress(range(1, m + 1), map(and_, bits, repeat(mask))))
                q = lanes.unpack((k >> m).to_bytes(lanes.size, "big"))
                out[(w, supports[mask], q)] = total // w
    return out
