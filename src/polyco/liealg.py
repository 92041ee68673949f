"""
Hall bases of free ungraded Lie algebras, fixed to the Lyndon-word basis.

Generators come in two flavours: plain symbols x_1..x_m (the alphabet of
the hall-basis command) and face generators a_{J,i} indexed by a vertex
subset J with |J| >= 2 and a copy index 1 <= i <= |J|-1, whose letters
stats counts per subset and per vertex.

The decompositions list no brackets: lyndon_class_counts counts the
Lyndon words over the face (or plain) letters of {1..m}, graded by vertex
vectors with several copies each, per (length, support type, piece content)
group without listing them, which is all the decompositions need.  A
support's type counts its vertices in each piece of vertices; all supports
of one type carry the same count, so it is counted once, summed over the
type's supports and divided by their number.
Each (content, type) grading and its degree are packed into one int, so the
DP adds and ors ints and the groups come out in order.  The counts depend
only on the request's shape (the size of each piece), not on the spaces at
the vertices or on which vertices form a piece, so they are memoized
(_class_counts, bounded) per validated (piece sizes, weight bound, alphabet,
type cut, degrees) and returned as a read-only mapping; the checks run on
every call, before the memo is asked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence


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

    def name(self) -> str:
        if self.subset is None:
            return f"x{self.index}"
        return "a{" + ",".join(map(str, self.subset)) + "}#" + str(self.index)

    __str__ = name


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

    def serialize(self) -> str:
        if self.gen is not None:
            return self.gen.name()
        return f"[{self.left.serialize()},{self.right.serialize()}]"

    __str__ = serialize


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


def hall_basis(alphabet: Sequence[Generator], weight_bound: int) -> list[Bracket]:
    """All Lyndon brackets of weight <= weight_bound over the given alphabet.

    Deterministic order: (weight, word lexicographic in alphabet order).
    """
    if type(weight_bound) is not int or weight_bound < 1:  # no bool, no float
        raise ValueError(f"weight_bound must be an integer >= 1, got {weight_bound!r}")
    words = sorted(lyndon_words(len(alphabet), weight_bound), key=lambda w: (len(w), w))
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


def lyndon_class_counts(
    sizes: Sequence[int],
    weight_bound: int,
    *,
    alphabet: str = "face",
    types: Iterable[Sequence[int]] | None = None,
    degrees: Sequence[int] | None = None,
    degree_bound: int | None = None,
) -> Mapping[tuple[int, tuple[int, ...], tuple[int, ...]], int]:
    """Number of Lyndon words of length w <= weight_bound whose support is one
    given vertex set S, per (w, support type s, piece content q).

    The vertices {1..m} fall into pieces, and sizes[p] >= 1 counts the
    vertices of piece p (m = sum(sizes)); which vertices they are does not
    matter.  The letters are the face letters of {1..m} (alphabet "face":
    a_{J,i} for |J| >= 2, 1 <= i <= |J| - 1) or the plain ones (alphabet
    "plain": one x_j per vertex).  A word's support S is the set of
    vertices its letters touch, its type s_p = |S ∩ piece p|, and q_p sums
    its letters' vertex contents over piece p.  Permuting the vertices maps
    letters to letters, so the count depends on S only through its type.
    types, when given, is a down-closed set of types (such as those of a
    complex's faces): the DP keeps only states of those types, which loses
    no word whose support has one of them, since its prefixes' supports
    have smaller types.

    The words of all supports of one type are counted at once by a DP on
    (q, s): from a state of type s, the letters with a_p old and b_p new
    vertices in piece p form one class of (|a| + |b| - 1) * prod_p C(s_p,
    a_p) * C(n_p - s_p, b_p) face letters (prod_p ... plain ones with
    |a| + |b| = 1), where n_p = sizes[p].  The Lyndon words follow by the
    multigraded Witt formula for graded letters (Kang & Kim, J. Algebra
    183, 1996): u^d has grading (d * q, s), so w * L(w, q, s) = sum over
    d | gcd(w, q) of mu(d) * words[w/d][q/d, s]; one support's count is
    that total over w * prod_p C(n_p, s_p).  With degrees (one per piece,
    each vertex of piece p weighing degrees[p]) and degree_bound, gradings
    with sum_p q_p * degrees[p] above the bound are omitted.

    A grading is one int: q in fixed-width lanes (piece 0 the most
    significant) above the s part, where a piece of one vertex is one bit,
    or-ed in as in a support mask, and a larger piece a count lane that
    new vertices add to; in the DP a lane above q holds the degree.  A DP
    step is (k + a) | b, a degree cut one compare, and a state's letter
    classes depend only on its count lanes, so they are listed once per
    content (once in all when every piece is one vertex).  Int order is
    lexicographic order on (q, s), so the result is in order: by w, then q
    descending, then s descending.

    The result is memoized per validated (sizes, weight_bound, alphabet,
    type cut, degrees under a bound, degree_bound), so every relabeling of
    one shape shares one entry, a read-only mapping.  The checks run on
    every call, before the lookup, so a bool or float twin of a cached int
    argument still raises.
    """
    return _class_counts(*_class_counts_key(sizes, weight_bound, alphabet, types, degrees, degree_bound))


def _check_bounds(weight_bound, degree_bound) -> None:
    """lyndon_class_counts' checks of its two bounds, which a caller can run
    before any other work."""
    if type(weight_bound) is not int or weight_bound < 1:  # no bool, no float
        raise ValueError(f"weight_bound must be an integer >= 1, got {weight_bound!r}")
    if degree_bound is not None and type(degree_bound) is not int:
        raise ValueError(f"degree_bound must be an integer, got {degree_bound!r}")


def _class_counts_key(sizes, weight_bound, alphabet, types, degrees, degree_bound) -> tuple:
    """lyndon_class_counts' checks, run on every call: the memo key (sizes,
    weight_bound, alphabet, types as a frozenset of tuples or None, degrees
    as a tuple or None, degree_bound), every number in it an int.  A bool
    or a float equals and hashes like an int, so each entry is checked
    before the key is looked up, and the degrees join the key only under a
    bound, without which they change nothing."""
    _check_bounds(weight_bound, degree_bound)
    if alphabet not in ("face", "plain"):
        raise ValueError(f"alphabet must be 'face' or 'plain', got {alphabet!r}")
    n = tuple(sizes)
    if not all(type(c) is int and c >= 1 for c in n):
        raise ValueError(f"sizes must count each piece's vertices, each an integer >= 1; got {sizes!r}")
    size = len(n)
    if degree_bound is None:
        degrees = None
    elif degrees is None or len(degrees := tuple(degrees)) != size or not all(
        type(d) is int and d >= 1 for d in degrees
    ):
        raise ValueError(f"degree_bound needs degrees, one integer >= 1 per piece; got {degrees!r}")
    cut = None
    if types is not None:
        cut = set()
        for t in types:  # each entry checked before a set can merge it with its int twin
            if len(t) != size or not all(type(x) is int and 0 <= x <= c for x, c in zip(t, n)):
                raise ValueError(f"type {t!r}: need {size} integers, each from 0 to its piece's size")
            cut.add(tuple(t))
        if any(x and t[:p] + (x - 1,) + t[p + 1:] not in cut for t in cut for p, x in enumerate(t)):
            raise ValueError("types must be down-closed: each type below an allowed one is allowed")
        cut = frozenset(cut)
    return n, weight_bound, "face" if alphabet == "face" else "plain", cut, degrees, degree_bound


@lru_cache(maxsize=256)
def _class_counts(
    n: tuple[int, ...],
    weight_bound: int,
    alphabet: str,
    types: frozenset[tuple[int, ...]] | None,
    degrees: tuple[int, ...] | None,
    degree_bound: int | None,
) -> Mapping[tuple[int, tuple[int, ...], tuple[int, ...]], int]:
    """The DP of lyndon_class_counts on a key from _class_counts_key (n the
    size of each piece), memoized: each shape is counted once, and its
    callers share one read-only mapping."""
    m, size = sum(n), len(n)
    degs = degrees or (0,) * size

    width = [c.bit_length() for c in n]  # one bit for a piece of one vertex
    shift = [0] * size
    sbits = 0
    for p in reversed(range(size)):
        shift[p] = sbits
        sbits += width[p]
    low = (1 << sbits) - 1
    allowed = None
    cap = n  # the most vertices of each piece that a support's type can hold
    if types is not None:
        allowed = {sum(x << b for x, b in zip(t, shift)) for t in types}
        cap = [max((t[p] for t in types), default=0) for p in range(size)]
    face = alphabet == "face"
    if m < 1 + face:  # no letters
        return MappingProxyType({})

    # a content lane holds word length times a letter's largest entry, in
    # whole bytes so that a q part decodes through to_bytes
    width_q = ((weight_bound * (max(n) if face else 1)).bit_length() + 7) // 8
    qshift = [sbits + 8 * width_q * (size - 1 - p) for p in range(size)]
    dshift = sbits + 8 * width_q * size  # the degree lane, all 0 without a bound
    limit = (1 if degree_bound is None else degree_bound + 1) << dshift
    counted = sum(((1 << width[p]) - 1) << shift[p] for p in range(size) if n[p] > 1)

    top, least = (m, 2) if face else (1, 1)
    # a class's part over the one-vertex pieces is a set of them, so these
    # parts are listed once, cut where their own type is not allowed (a
    # type above a disallowed one is disallowed too); each entry is (add,
    # or, multiplicity, letter size)
    ones = [(0, 0, 1, 0)]
    for p in range(size):
        if n[p] == 1:
            y, u = (1 << qshift[p]) + (degs[p] << dshift), 1 << shift[p]
            ones += [
                (x + y, o | u, 1, t + 1)
                for x, o, _, t in ones
                if t < top and x + y < limit and (allowed is None or (o | u) in allowed)
            ]
    multi = [p for p in range(size) if n[p] > 1]

    def classes(s: int) -> list[tuple[int, int, int]]:
        # (add, or, letters) per letter class from a state of type s;
        # with a type cut s is the whole s part, else only its count lanes
        partial = ones
        for p in multi:
            have = s >> shift[p] & (1 << width[p]) - 1
            # b new vertices: no more than the piece has left, than a type
            # can hold, or than fit in a letter beside the a old ones
            options = [
                (((a + b) << qshift[p]) + (b << shift[p]) + ((a + b) * degs[p] << dshift),
                 comb(have, a) * comb(n[p] - have, b), a + b)
                for a in range(min(have, top) + 1) for b in range(min(cap[p] - have, top - a) + 1)
            ]
            partial = [
                (x + y, o, c * e, t + v)
                for x, o, c, t in partial
                for y, e, v in options
                if t + v <= top and x + y < limit and (allowed is None or ((s + x + y) & low | o) in allowed)
            ]
        return [
            (x, o, (t - 1) * c if face else c)
            for x, o, c, t in partial
            if t >= least and (allowed is None or ((s + x) | o) & low in allowed)
        ]

    cache = low if allowed is not None else counted
    steps: dict[int, list[tuple[int, int, int]]] = {0: classes(0)}
    step = steps[0]  # the one list when every piece is one vertex and no type is cut
    layer = {0: 1}
    words: list[dict[int, int]] = [layer]
    for _ in range(weight_bound):
        nxt: dict[int, int] = {}
        for k, count in layer.items():
            if cache and (step := steps.get(c := k & cache)) is None:
                step = steps[c] = classes(c)
            for a, b, copies in step:
                if (key := (k + a) | b) < limit:
                    nxt[key] = nxt.get(key, 0) + count * copies
        if not nxt:
            break
        words.append(nxt)
        layer = nxt

    typed: dict[int, tuple[tuple[int, ...], int]] = {}  # s part -> (type, supports of the type)
    out: dict[tuple[int, tuple[int, ...], tuple[int, ...]], int] = {}
    below = (1 << dshift) - 1  # a grading's degree follows from its q, so keys drop the lane
    for w in range(1, len(words)):
        totals = {k & below: count for k, count in words[w].items()}
        for d, mu in _mobius_divisors(w):
            for root, count in words[w // d].items():
                if (key := ((root & below) >> sbits) * d << sbits | (root & low)) in totals:
                    totals[key] += mu * count
        for k in sorted(totals, reverse=True):
            if total := totals[k]:
                if (typing := typed.get(s := k & low)) is None:
                    t = tuple(s >> shift[p] & (1 << width[p]) - 1 for p in range(size))
                    typing = typed[s] = t, prod(map(comb, n, t))
                raw = (k >> sbits).to_bytes(size * width_q, "big")
                q = tuple(raw) if width_q == 1 else tuple(
                    int.from_bytes(raw[i:i + width_q], "big") for i in range(0, len(raw), width_q))
                t, supports = typing
                assert total % (w * supports) == 0
                out[(w, t, q)] = total // (w * supports)
    return MappingProxyType(out)
