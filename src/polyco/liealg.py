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
it counts Lyndon words per (length, vertex content) class without listing
them, which is all the decompositions need.  It packs each content into one
int, so the DP adds ints and the classes come out in listing order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, prod
from operator import mul
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
    if weight_bound < 1:
        raise ValueError("weight bound must be >= 1")
    k = len(alphabet)
    if k == 0:
        return []
    max_len = weight_bound
    degs = None
    if degree_bound is not None:
        if letter_degrees is None or len(letter_degrees) != k:
            raise ValueError("degree_bound needs letter_degrees for the alphabet")
        degs = list(letter_degrees)
        if any(d < 1 for d in degs):
            raise ValueError("letter degrees must be >= 1")
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


def support(b: Bracket) -> tuple[int, ...]:
    """Vertices occurring in the leaves of b (face or plain generators)."""
    verts: set[int] = set()
    for g in b.leaves():
        if g.subset is None:
            verts.add(g.index)
        else:
            verts.update(g.subset)
    return tuple(sorted(verts))


def restricted_support(b: Bracket, I: Iterable[int]) -> tuple[int, ...]:
    """I_b: the elements of I that appear in the subsets of b."""
    return tuple(sorted(set(I) & set(support(b))))


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


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
    g = 0
    for c in counts:
        g = gcd(g, c)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            total += _mobius(d) * factorial(n // d) // prod(
                factorial(c // d) for c in counts
            )
    assert total % n == 0
    return total // n


def lyndon_class_counts(
    letters: Sequence[tuple[Sequence[int], int]],
    weight_bound: int,
    *,
    vertex_degrees: Sequence[int] | None = None,
    degree_bound: int | None = None,
) -> dict[tuple[int, tuple[int, ...]], int]:
    """Number of Lyndon words per (length w, vertex content l), for w <= weight_bound.

    letters lists (vertex vector, number of copies): a face letter a_J is
    (e_J, |J| - 1), a plain letter x_i is (e_i, 1).  The content l of a word
    is the sum of its letters' vectors.  Words are counted by a DP over l,
    words[n][l] = sum over letters of copies * words[n-1][l - v], and the
    Lyndon words by the multigraded Witt formula generalized to graded
    letters (Kang & Kim, J. Algebra 183, 1996):
    w * L(w, l) = sum over d | gcd(w, l) of mu(d) * words[w/d][l/d].
    With vertex_degrees and degree_bound, classes with sum_j l_j * deg_j
    above the bound are omitted; that is a function of l, so it omits
    exactly the brackets hall_basis prunes with the induced letter degrees.

    Each l is one int with a fixed-width lane per vertex, vertex 1 the most
    significant, so a DP step is one add; the Moebius terms are pushed from
    each root l' of length w/d to l' * d when that is present at length w.
    Int order is lexicographic order on l, so the result is in listing order:
    by w, then l in descending lexicographic order.
    """
    if weight_bound < 1:
        raise ValueError("weight bound must be >= 1")
    merged: Counter[tuple[int, ...]] = Counter()
    for vector, copies in letters:
        v = tuple(vector)
        if not all(type(x) is int for x in (*v, copies)):  # no bool, no float
            raise ValueError(f"letter {v} x{copies!r}: entries and copies must be integers")
        if copies < 1 or any(x < 0 for x in v) or not any(v):
            raise ValueError(f"letter {v} x{copies}: need a nonzero vector and copies >= 1")
        merged[v] += copies
    if not merged:
        return {}
    m, *others = {len(v) for v in merged}
    if others:
        raise ValueError("letter vectors must share one length")
    degs = None
    if degree_bound is not None:
        if vertex_degrees is None or len(vertex_degrees) != m:
            raise ValueError("degree_bound needs one degree per vertex")
        degs = tuple(vertex_degrees)
        if any(d < 1 for d in degs):
            raise ValueError("vertex degrees must be >= 1")
    # a lane holds word length times the largest entry; each letter adds degree >= 1
    top = min(weight_bound, degree_bound if degs else weight_bound) * max(map(max, merged))
    fits = [c for b, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")) if top < 256**b]
    if not fits:
        raise ValueError(f"vertex contents up to {top} do not fit a 64-bit lane")
    lanes = Struct(f">{m}{fits[0]}")

    # each state carries its degree (0 without a bound), so pruning costs one add
    step = [
        (int.from_bytes(lanes.pack(*v), "big"), copies, sum(map(mul, v, degs)) if degs else 0)
        for v, copies in merged.items()
    ]
    layer = {0: (1, 0)}
    words: list[dict[int, tuple[int, int]]] = [layer]
    for _ in range(weight_bound):
        nxt: dict[int, tuple[int, int]] = {}
        for l, (count, deg) in layer.items():
            for v, copies, dv in step:
                if degs is not None and deg + dv > degree_bound:
                    continue
                hit = nxt.get(l + v)
                nxt[l + v] = (count * copies + (hit[0] if hit else 0), deg + dv)
        if not nxt:
            break
        words.append(nxt)
        layer = nxt

    out: dict[tuple[int, tuple[int, ...]], int] = {}
    for w in range(1, len(words)):
        totals = {l: count for l, (count, _) in words[w].items()}
        for d, mu in _mobius_divisors(w):
            for root, (count, _) in words[w // d].items():
                if root * d in totals:
                    totals[root * d] += mu * count
        for l in sorted(totals, reverse=True):
            total = totals[l]
            assert total % w == 0
            if total:
                out[(w, lanes.unpack(l.to_bytes(lanes.size, "big")))] = total // w
    return out
