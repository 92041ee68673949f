"""
Simplicial complexes on the vertex set {1..m}, stored by inclusion-maximal
facets, together with the combinatorial queries and rational reduced homology
that the loop-space decompositions index over.

Conventions
-----------
* One face model: the facets as int bitmasks (bit v for vertex v), with a
  vertex -> facets star, built once per complex (:func:`_index`).  Every
  face test scans only the facets through the face's vertex with the
  fewest (:func:`_is_face`).  Faces are listed only where a caller needs
  them all, downward from facet bitmasks by dimension (:func:`_face_masks`).
* The empty face is always present and never stored.
* Vertices of {1..m} not covered by any facet are allowed ("ghost vertices");
  the complex genuinely depends on m, not just on the covered vertices.
  A ghost vertex is a minimal non-face, so it makes K non-flag.
* Facet lists and face listings are kept sorted, so equal complexes compare
  and serialize identically.
* Homology is reduced homology with rational coefficients.  It is computed
  on the strong-collapse core of K (dominated vertices deleted, which keeps
  the homotopy type), whose faces alone are listed.  Boundary ranks come
  from an exact sparse column reduction over int, top dimension first with
  clearing: plain integer updates on +-1 pivots, fraction-free ones with
  gcd division otherwise.  Torsion is invisible by design: the downstream
  series oracles are rational.
* Face tests, full subcomplexes and the wedge-of-spheres certificates list
  no faces.  The certificates are shiftedness up to relabeling, and flag
  with chordal 1-skeleton, tested by elimination: deleting vertices that
  lie in one facet each empties K (:func:`_chordal_flag`).  The strong-
  collapse core and that elimination share one vertex-deletion step
  (:func:`_delete_vertex`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key, lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, pairwise, product as iproduct
from math import gcd
from typing import Collection, Iterable, Mapping, NamedTuple

Face = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class SimplicialComplex:
    """A finite simplicial complex on {1..m}, determined by its facets.

    Construct through :func:`build`, which validates input, closes downward
    and reduces the generating faces to the inclusion-maximal ones.
    """

    m: int
    facets: tuple[Face, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the complex keys the lru_caches below: hash its facet tuple once, not per lookup
        object.__setattr__(self, "_hash", hash((self.m, self.facets)))

    def __hash__(self) -> int:
        return self._hash

    def dim(self) -> int:
        """Dimension of the complex; -1 for the empty complex (faces = {})."""
        return max((len(f) for f in self.facets), default=0) - 1

    def vertices(self) -> tuple[int, ...]:
        """Vertices covered by at least one face."""
        cov: set[int] = set()
        for f in self.facets:
            cov.update(f)
        return tuple(sorted(cov))

    def faces(self) -> tuple[Face, ...]:
        """All faces including the empty face, sorted by (size, lex): listed
        downward from the facet bitmasks (:func:`_face_masks`) and cached.
        Face tests go through :meth:`has_face`, which lists none."""
        return _faces(self)

    def has_face(self, face: Iterable[int]) -> bool:
        """Whether the given vertices, in any order, form a face of K.

        The empty face is a face of every K, the empty complex included.  A
        repeated vertex, or one that is not an int in 1..m (a float or a bool
        is not), makes it a non-face.  Tested on the facet bitmasks through
        the face's vertex with the fewest facets (:func:`_is_face`).
        """
        g = 0
        for v in face:
            if type(v) is not int or not 0 < v <= self.m or g >> v & 1:
                return False
            g |= 1 << v
        return not g or _is_face(g, _index(self).star)

    def f_vector(self) -> tuple[int, ...]:
        """Entry d = number of d-dimensional faces, d = 0..dim."""
        return tuple(map(len, _face_masks(_index(self).facets)))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * fd for d, fd in enumerate(self.f_vector()))

    def is_simplex(self) -> bool:
        """True when the faces are exactly the subsets of a single facet."""
        return len(self.facets) <= 1

    def __str__(self) -> str:
        fs = ", ".join("{" + ",".join(map(str, f)) + "}" for f in self.facets)
        return f"Complex(m={self.m}; facets {fs or 'none'})"


def build(m: int, faces: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Build the complex on {1..m} generated by the given faces.

    Raises ValueError when m is not an int >= 1 (a bool is not), a vertex
    is not an int, a face is empty, or a vertex is out of range.  Listing no
    faces yields the empty complex (only face: the empty face), which is a
    legal value.
    """
    if type(m) is not int or m < 1:
        raise ValueError(f"vertex count must be a positive integer, got {m!r}")
    cleaned: set[Face] = set()
    for face in faces:
        f = tuple(sorted({json_int(v, "vertex") for v in face}))
        if not f:
            raise ValueError("generating faces must be nonempty")
        if f[0] < 1 or f[-1] > m:
            bad = [v for v in f if v < 1 or v > m]
            raise ValueError(f"vertex {bad[0]} out of range 1..{m}")
        cleaned.add(f)
    return SimplicialComplex(m, _maximal(cleaned))


def _vertices(mask: int) -> list[int]:
    """The vertices of a face bitmask (bit v for vertex v), smallest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _maximal(faces: set[Face]) -> tuple[Face, ...]:
    """The inclusion-maximal ones among distinct nonempty sorted faces, sorted.

    Largest first, a face is maximal iff it is not a face of the facets kept
    so far: :func:`_is_face` on their bitmasks, through a vertex -> kept
    facets star.  One of the largest size is maximal outright.
    """
    order = sorted(faces, key=len, reverse=True)
    star: dict[int, list[int]] = {}
    kept = []
    for f in order:
        g = sum(1 << v for v in f)
        if len(f) == len(order[0]) or not _is_face(g, star):
            kept.append(f)
            for v in f:
                star.setdefault(v, []).append(g)
    return tuple(sorted(kept))


class _Index(NamedTuple):
    facets: tuple[int, ...]  # the facet bitmasks, in the order of K.facets
    star: dict[int, list[int]]  # vertex -> the facet masks through it


@lru_cache(maxsize=None)
def _index(K: SimplicialComplex) -> _Index:
    """K's one face model: its facets as bitmasks (bit v for vertex v) and
    the facets through each vertex.  The star is keyed by vertex number,
    not by one-bit mask: the hash of 1 << v depends only on v mod 61.
    Ghost vertices are not in it."""
    facets = tuple(sum(1 << v for v in f) for f in K.facets)
    star: dict[int, list[int]] = {}
    for f, F in zip(K.facets, facets):
        for v in f:
            star.setdefault(v, []).append(F)
    return _Index(facets, star)


def _is_face(g: int, star: Mapping[int, Collection[int]]) -> bool:
    """Whether the nonempty face bitmask g lies in a facet of the star: only
    the facets through the vertex of g with the fewest are scanned."""
    fewest = ()
    rest = g
    while rest:
        b = rest & -rest
        s = star.get(b.bit_length() - 1)
        if s is None:
            return False
        if not fewest or len(s) < len(fewest):
            fewest = s
        rest ^= b
    return any(g & F == g for F in fewest)


def _face_masks(facets: Collection[int]) -> list[list[int]]:
    """The nonempty faces under the given facet bitmasks, listed downward:
    entry d holds the d-dimensional ones, sorted as ints."""
    by_dim: list[set[int]] = [set() for _ in range(max((F.bit_count() for F in facets), default=0))]
    for F in facets:
        by_dim[F.bit_count() - 1].add(F)
    for d in range(len(by_dim) - 1, 0, -1):
        by_dim[d - 1].update(f ^ 1 << v for f in by_dim[d] for v in _vertices(f))
    return [sorted(s) for s in by_dim]


@lru_cache(maxsize=None)
def _faces(K: SimplicialComplex) -> tuple[Face, ...]:
    out: list[Face] = [()]
    for layer in _face_masks(_index(K).facets):
        out += sorted(tuple(_vertices(F)) for F in layer)
    return tuple(out)


def full_subcomplex(K: SimplicialComplex, I: Iterable[int]) -> SimplicialComplex:
    """The full subcomplex K_I: all faces of K contained in I, re-indexed to
    {1..|I|}, the j-th smallest vertex of I becoming vertex j.

    The validated front of the one K_I builder, :func:`_full_sub`, which
    reads K_I off the facet bitmasks; when I is a face, K_I is the simplex
    on I.  Raises ValueError when a vertex of I is not an int or is out of
    range, or I is empty.
    """
    iv = tuple(sorted({json_int(v, "vertex") for v in I}))
    for v in iv:
        if v < 1 or v > K.m:
            raise ValueError(f"vertex {v} out of range 1..{K.m}")
    if not iv:
        raise ValueError("full subcomplex needs a nonempty vertex set")
    sub = _full_sub(_index(K), sum(1 << v for v in iv))
    return SimplicialComplex(len(iv), (tuple(range(1, len(iv) + 1)),)) if sub is None else sub


def _full_sub(index: _Index, g: int) -> SimplicialComplex | None:
    """K_S for the nonempty vertex bitmask g of S, from K's face model:
    None when S is a face of K (:func:`_is_face`), else the maximal traces
    F & g of the facets, the j-th smallest vertex of S becoming vertex j.
    Every face of K inside S lies in some trace, so no face is listed."""
    if _is_face(g, index.star):
        return None
    traces = {tuple(_vertices(F & g)) for F in index.facets}
    traces.discard(())
    label = {v: j for j, v in enumerate(_vertices(g), start=1)}
    return SimplicialComplex(len(label), tuple(tuple([label[v] for v in f]) for f in _maximal(traces)))


def max_trace(K: SimplicialComplex, I: Iterable[int]) -> int:
    """dim K_I + 1: the most vertices of I in one facet of K, 0 when none
    is.  Read off the facet bitmasks; no face and no K_I is built."""
    g = sum(1 << v for v in set(I))
    return max(((F & g).bit_count() for F in _index(K).facets), default=0)


def missing_subsets(K: SimplicialComplex) -> tuple[Face, ...]:
    """All nonempty subsets of {1..m} that are not faces, sorted by (size, lex)."""
    subsets = (c for k in range(1, K.m + 1) for c in combinations(range(1, K.m + 1), k))
    return tuple(c for c in subsets if not K.has_face(c))


def join(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; K2 is shifted onto {m1+1 .. m1+m2}."""
    shift = K1.m
    f1s = K1.facets or ((),)
    f2s = K2.facets or ((),)
    faces = []
    for a, b in iproduct(f1s, f2s):
        f = a + tuple(v + shift for v in b)
        if f:
            faces.append(f)
    return build(K1.m + K2.m, faces)


def disjoint_union(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Disjoint union on the concatenated ground set."""
    shift = K1.m
    faces = list(K1.facets) + [tuple(v + shift for v in f) for f in K2.facets]
    return build(K1.m + K2.m, faces)


def union_along(
    K1: SimplicialComplex,
    K2: SimplicialComplex,
    L: SimplicialComplex | None,
) -> SimplicialComplex:
    """Glue K1 and K2 along a common subcomplex L.

    Vertex ranges follow the overlap convention: K1 sits on {1..n}, L on the
    top |L| vertices {l..n} of K1, and K2 on {l..m} so that its first |L|
    vertices are the overlap, where L must be the inputs' whole intersection.
    L = None means no overlap (disjoint union).
    """
    if L is None:
        return disjoint_union(K1, K2)
    o = L.m
    if o > K1.m or o > K2.m:
        raise ValueError("overlap complex is larger than an input complex")
    offset = K1.m - o
    for f in L.facets:
        if not K1.has_face(tuple(v + offset for v in f)):
            raise ValueError("L is not a subcomplex of the first input")
        if not K2.has_face(f):
            raise ValueError("L is not a subcomplex of the second input")
    # each shared face lies in the meet of two facet traces on the overlap, in L's bits
    low, star, inside = (1 << (o + 1)) - 2, _index(K2).star, _index(L).star
    for a in {F >> offset & low for F in _index(K1).facets}:
        for g in {a & G for v in _vertices(a) for G in star.get(v, ())}:
            if not _is_face(g, inside):
                raise ValueError(f"L misses the overlap face {_vertices(g)} that both inputs share")
    m = K1.m + K2.m - o
    faces = list(K1.facets) + [tuple(v + offset for v in f) for f in K2.facets]
    return build(m, faces)


@dataclass(frozen=True, slots=True)
class HomologyProfile:
    """Reduced rational Betti numbers of |K|, degrees 0..top_dim."""

    ranks: tuple[int, ...]
    top_dim: int

    def __str__(self) -> str:
        return f"H~ ranks {list(self.ranks)} (dim {self.top_dim})"


def _reduce(columns: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Column-reduce a sparse integer matrix given as {row: coeff} columns.

    Returns the nonzero reduced columns keyed by their lowest (largest) row;
    their number is the rank over the rationals.  A column whose lowest row
    is already a pivot is cleared there: by a plain integer update when the
    pivot entry is +-1, else fraction-free (b*col - a*piv) and then divided
    by the gcd of its entries.  Exact throughout; no modular shortcut, since
    ranks mod p can differ (RP^2 has rank 0 over Q, 1 over F_2).
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            a, b = col[low], piv[low]
            unit = b == 1 or b == -1
            if not unit:
                col = {r: b * v for r, v in col.items()}
            f = a * b if unit else a
            for r, v in piv.items():
                x = col.get(r, 0) - f * v
                if x:
                    col[r] = x
                else:
                    del col[r]
            if not unit:
                g = gcd(*col.values())
                if g > 1:
                    col = {r: v // g for r, v in col.items()}
    return pivots


def _delete_vertex(star: dict[int, set[int]], v: int) -> set[int]:
    """Delete vertex v from the complex whose vertex -> facet bitmasks star
    is given, in place, leaving the full subcomplex on the other vertices.

    Each facet F through v becomes F - v, dropped when it is empty or when
    another facet contains it (:func:`_is_face`, once F has left the star);
    if F is v's only facet, F's other vertices in no other facet go too,
    except F's lowest other vertex.  Returns the vertices left in those
    facets: only their facet counts, and so only their status, can change.
    """
    facets, gone = star[v], 1 << v
    if len(facets) == 1:
        (F,) = facets
        gone |= sum(1 << u for u in _vertices(F ^ gone)[1:] if len(star[u]) == 1)
    for u in _vertices(gone):
        del star[u]
    touched = set()
    for F in facets:
        G = F & ~gone
        vs = _vertices(G)
        touched.update(vs)
        for u in vs:
            star[u].discard(F)
        if G and not _is_face(G, star):
            for u in vs:
                star[u].add(G)
    return touched


def _core(K: SimplicialComplex) -> frozenset[int]:
    """Facet bitmasks (bit v for vertex v) of a strong-collapse core of K.

    A vertex v is dominated when another vertex lies in every facet through
    v; deleting v (:func:`_delete_vertex`) keeps the homotopy type
    (Barmak-Minian, strong collapses).  Only the vertices the deletion
    touches can change status, so only they go back on the worklist, a heap
    keyed by star size: the vertices in fewest facets go first, so a hub,
    whose deletion rewrites every facet through it, goes last if at all.
    The result, the facets left in the star, has no dominated vertex and
    only maximal facets; it is empty iff K has no vertex.  Ghost vertices
    are in no facet and play no part.  No big facet is rewritten once per
    vertex: a vertex in one facet takes the facet's other vertices in no
    other facet with it.
    """
    index = _index(K)
    star = {v: set(s) for v, s in index.star.items()}
    todo = [(len(s), v) for v, s in star.items()]
    heapify(todo)
    queued = set(star)
    while todo:
        v = heappop(todo)[1]
        if v not in star:  # deleted with another vertex of its facet
            continue
        queued.discard(v)
        rest = ~(1 << v)
        for F in star[v]:
            rest &= F
            if not rest:
                break
        if rest:
            for u in _delete_vertex(star, v) - queued:
                queued.add(u)
                heappush(todo, (len(star[u]), u))
    return frozenset().union(*star.values())


@lru_cache(maxsize=None)
def homology(K: SimplicialComplex) -> HomologyProfile:
    """Reduced rational homology via the boundary matrices of the core of K.

    Only the faces of the strong-collapse core (:func:`_core`) are listed,
    as bitmasks, from its facets down (:func:`_face_masks`).  The boundary
    matrices are reduced from the top dimension down with clearing
    (Chen-Kerber): a d-face that is the pivot row of a reduced (d+1)-column
    has a boundary column that reduces to zero, so that column is skipped.
    The core may have a lower dimension than K; its Betti numbers are
    padded with zeros up to K.dim().
    """
    top = K.dim()
    if top < 0:
        return HomologyProfile((), -1)
    faces = _face_masks(_core(K))
    # the augmentation C_0 -> C_{-1} has rank 1, the boundary above the top 0
    ranks_d = [1] + [0] * len(faces)
    cleared: dict[int, dict[int, int]] = {}  # pivots of the reduction one dimension up
    for d in range(len(faces) - 1, 0, -1):
        row = {f: i for i, f in enumerate(faces[d - 1])}
        columns = (
            {row[f ^ 1 << v]: -1 if pos % 2 else 1 for pos, v in enumerate(_vertices(f))}
            for i, f in enumerate(faces[d])
            if i not in cleared
        )
        cleared = _reduce(columns)
        ranks_d[d] = len(cleared)
    betti = [len(fs) - ranks_d[d] - ranks_d[d + 1] for d, fs in enumerate(faces)]
    return HomologyProfile(tuple(betti) + (0,) * (top + 1 - len(betti)), top)


# ---------------------------------------------------------------------------
# predicates certifying that |K| is a wedge of spheres
# ---------------------------------------------------------------------------


def is_shifted(K: SimplicialComplex) -> bool:
    """Whether some relabeling of {1..m} makes K shifted.

    K is shifted for a labeling when replacing any vertex of any face by a
    smaller vertex again yields a face, i.e. when every vertex can stand in
    for every later one.  "u can stand in for v" (every face through v that
    avoids u gives a face on swapping v for u) is a transitive relation.  It
    needs testing only on the facets F through v that avoid u: a face f
    through v avoiding u lies in a facet, and f - v + u lies in it if it
    holds u, else in its swap.  The vertices are sorted with the relation
    as the comparison, and the labeling is verified on consecutive pairs
    only, which by transitivity covers every pair.  If K is shifted for
    some labeling the relation is a total preorder, so the sort is sound
    and the check passes; else some consecutive pair fails.  Facets are
    bitmasks (bit v for vertex v), and faces are never listed.
    """
    star = _index(K).star
    known: dict[tuple[int, int], bool] = {}

    def replaceable(u: int, v: int) -> bool:  # vertex u can stand in for vertex v
        r = known.get((u, v))
        if r is None:
            bu, bv = 1 << u, 1 << v
            swaps = (F ^ bv | bu for F in star.get(v, ()) if not F & bu)
            r = known[u, v] = all(_is_face(g, star) for g in swaps)
        return r

    # a first guess, so that the sort meets long runs: more facets first
    guess = sorted(range(1, K.m + 1), key=lambda v: -len(star.get(v, ())))
    order = sorted(guess, key=cmp_to_key(lambda u, v: 0 if replaceable(v, u) else -1))
    return all(replaceable(u, v) for u, v in pairwise(order))


def _chordal_flag(K: SimplicialComplex) -> bool:
    """Whether K is a flag complex with chordal 1-skeleton, by elimination:
    a vertex that lies in exactly one facet is deleted until K is empty.

    In a flag complex with chordal 1-skeleton a simplicial vertex v exists
    (Dirac), and its closed neighbourhood, a clique, is a face and so its
    only facet.  Conversely, a vertex in one facet F has N[v] = F, so it is
    simplicial and lies in no minimal non-face of size >= 3.  Both
    properties pass to full subcomplexes, so the order of deletion does not
    matter.  A ghost vertex is a minimal non-face of size 1: K is then not
    flag.  Faces are never listed.
    """
    index = _index(K).star
    todo = [v for v, s in index.items() if len(s) == 1]
    if len(index) < K.m or not todo:
        return False
    star = {v: set(s) for v, s in index.items()}
    while todo:
        v = todo.pop()
        if len(star.get(v, ())) == 1:
            todo += _delete_vertex(star, v)
    return not star


@lru_cache(maxsize=None)
def wedge_of_spheres_type(K: SimplicialComplex) -> tuple[int, ...] | None:
    """Sphere dimensions of |K| when a certificate applies, else None.

    Certified classes: shifted complexes (up to relabeling), 0-dimensional
    complexes, simplices, and flag complexes with chordal 1-skeleton, the
    last tested by elimination (:func:`_chordal_flag`).  For a
    certified K, rank r in reduced degree d contributes r copies of S^d;
    a contractible certified K gives ().  The empty complex (no vertices)
    realizes to the empty space, reported as the formal sphere S^{-1} so that
    mapping out of its suspension S^0 stays an identity.
    """
    if K.dim() < 0:
        return (-1,)
    certified = (
        K.dim() == 0
        or K.is_simplex()
        or is_shifted(K)
        or _chordal_flag(K)
    )
    if not certified:
        return None
    return tuple(d for d, r in enumerate(homology(K).ranks) for _ in range(r))


# ---------------------------------------------------------------------------
# JSON interchange: {"m": int, "facets": [[v, ...], ...]} with 1-based vertices
# ---------------------------------------------------------------------------


def complex_to_json(K: SimplicialComplex) -> dict:
    return {"m": K.m, "facets": [list(f) for f in K.facets]}


def json_int(value, field: str) -> int:
    """value, if it is an int: a float is not truncated, a bool not read as 0/1."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def complex_from_json(data: dict) -> SimplicialComplex:
    if not isinstance(data, dict) or "m" not in data or "facets" not in data:
        raise ValueError('complex JSON needs keys "m" and "facets"')
    m = json_int(data["m"], '"m"')
    facets = [[json_int(v, '"facets" vertex') for v in f] for f in data["facets"]]
    return build(m, facets)

