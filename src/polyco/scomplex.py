"""
Simplicial complexes on the vertex set {1..m}, stored by inclusion-maximal
facets, together with the combinatorial queries and rational reduced homology
that the loop-space decompositions index over.

Conventions
-----------
* The empty face is always present and never stored.
* Vertices of {1..m} not covered by any facet are allowed ("ghost vertices");
  the complex genuinely depends on m, not just on the covered vertices.
* All face sets and facet lists are kept sorted, so equal complexes compare
  and serialize identically.
* Homology is reduced homology with rational coefficients.  It is computed
  on the strong-collapse core of K (dominated vertices deleted, which keeps
  the homotopy type), whose faces are listed as int bitmasks.  Boundary
  ranks come from an exact sparse column reduction over int, top dimension
  first with clearing: plain integer updates on +-1 pivots, fraction-free
  ones with gcd division otherwise.  Torsion is invisible by design: the
  downstream series oracles are rational.
* The wedge-of-spheres certificates (shifted, flag, chordal 1-skeleton)
  and full subcomplexes work from the facets alone and never list faces.
  The certificates read facets as int bitmasks (bit v for vertex v) with a
  vertex -> facets index; a face test scans only the facets through the
  face's vertex with the fewest.  A ghost vertex is a minimal non-face, so
  it makes K non-flag.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache
from itertools import combinations, pairwise, product as iproduct
from math import gcd
from typing import Iterable, NamedTuple

Face = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class SimplicialComplex:
    """A finite simplicial complex on {1..m}, determined by its facets.

    Construct through :func:`build`, which validates input, closes downward
    and reduces the generating faces to the inclusion-maximal ones.
    """

    m: int
    facets: tuple[Face, ...]

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
        """All faces including the empty face, sorted by (size, lex)."""
        return _faces(self)

    def face_set(self) -> frozenset[Face]:
        return _face_set(self)

    def has_face(self, face: Iterable[int]) -> bool:
        return tuple(sorted(face)) in _face_set(self)

    def f_vector(self) -> tuple[int, ...]:
        """Entry d = number of d-dimensional faces, d = 0..dim."""
        counts = [0] * (self.dim() + 1)
        for f in self.faces():
            if f:
                counts[len(f) - 1] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * fd for d, fd in enumerate(self.f_vector()))

    def is_simplex(self) -> bool:
        """True when the faces are exactly the subsets of a single facet."""
        return len(self.facets) <= 1

    def __str__(self) -> str:
        fs = ", ".join("{" + ",".join(map(str, f)) + "}" for f in self.facets)
        return f"Complex(m={self.m}; facets {fs or 'none'})"


class Subcomplex(NamedTuple):
    """A full subcomplex re-indexed to {1..|I|} plus its index map.

    ``vertices[j-1]`` is the original label of the new vertex j.
    """

    complex: SimplicialComplex
    vertices: tuple[int, ...]


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


def _maximal(faces: set[Face]) -> tuple[Face, ...]:
    """The inclusion-maximal ones among distinct nonempty sorted faces, sorted.

    Largest first, a face is maximal iff no facet kept so far contains it;
    one of the largest size is maximal outright.  A kept facet containing f
    passes through every vertex of f, so f is tested only against the kept
    facets through its vertex with the fewest.
    """
    order = sorted(faces, key=len, reverse=True)
    star: defaultdict[int, list[frozenset[int]]] = defaultdict(list)  # vertex -> kept facets
    kept = []
    for f in order:
        s = frozenset(f)
        if len(f) == len(order[0]) or not any(s <= g for g in min(map(star.__getitem__, f), key=len)):
            kept.append(f)
            for v in f:
                star[v].append(s)
    return tuple(sorted(kept))


@lru_cache(maxsize=None)
def _face_set(K: SimplicialComplex) -> frozenset[Face]:
    out: set[Face] = {()}
    for facet in K.facets:
        for k in range(1, len(facet) + 1):
            out.update(combinations(facet, k))
    return frozenset(out)


@lru_cache(maxsize=None)
def _faces(K: SimplicialComplex) -> tuple[Face, ...]:
    return tuple(sorted(_face_set(K), key=lambda f: (len(f), f)))


def full_subcomplex(K: SimplicialComplex, I: Iterable[int]) -> Subcomplex:
    """The full subcomplex K_I: all faces of K contained in I, re-indexed.

    Every face of K inside I lies in some trace F ∩ I of a facet F, so the
    facets of K_I are the maximal traces; no face of K is listed.  Raises
    ValueError when a vertex of I is not an int or is out of range,
    or I is empty.
    """
    iv = tuple(sorted({json_int(v, "vertex") for v in I}))
    for v in iv:
        if v < 1 or v > K.m:
            raise ValueError(f"vertex {v} out of range 1..{K.m}")
    if not iv:
        raise ValueError("full subcomplex needs a nonempty vertex set")
    relabel = {v: j for j, v in enumerate(iv, start=1)}
    traces = {tuple(relabel[v] for v in f if v in relabel) for f in K.facets}
    traces.discard(())
    return Subcomplex(SimplicialComplex(len(iv), _maximal(traces)), iv)


def maximal_faces_ge2(K: SimplicialComplex) -> tuple[Face, ...]:
    """Facets with at least two vertices (the indexing set for edge-and-up factors)."""
    return tuple(f for f in K.facets if len(f) >= 2)


def missing_subsets(K: SimplicialComplex) -> tuple[Face, ...]:
    """All nonempty subsets of {1..m} that are not faces, sorted by (size, lex)."""
    fs = _face_set(K)
    out = []
    for k in range(1, K.m + 1):
        for c in combinations(range(1, K.m + 1), k):
            if c not in fs:
                out.append(c)
    return tuple(sorted(out, key=lambda f: (len(f), f)))


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
    vertices are the overlap.  L = None means no overlap (disjoint union).
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


def _bits(mask: int) -> list[int]:
    """The one-bit masks of a face bitmask, lowest (smallest vertex) first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _masks(K: SimplicialComplex) -> list[int]:
    """The facets of K as bitmasks (bit v for vertex v)."""
    return [sum(1 << v for v in f) for f in K.facets]


def _core(K: SimplicialComplex) -> frozenset[int]:
    """Facet bitmasks (bit v for vertex v) of a strong-collapse core of K.

    A vertex v is dominated when another vertex w lies in every facet
    through v; deleting v keeps the homotopy type (Barmak-Minian, strong
    collapses).  Each facet F through v becomes F - v, dropped when a facet
    through w contains it.  Only the vertices of the facets through v can
    change status, so only they go back on the worklist.  The result has no
    dominated vertex and only maximal facets; it is empty iff K has no
    vertex.  Ghost vertices are in no facet and play no part.
    """
    facets = set(_masks(K))
    star: dict[int, set[int]] = {}  # vertex bit -> the facets through it
    for F in facets:
        for b in _bits(F):
            star.setdefault(b, set()).add(F)
    todo = set(star)
    while todo:
        b = todo.pop()
        rest = ~b
        for F in star[b]:
            rest &= F
            if not rest:
                break
        if not rest:
            continue
        w = star[rest & -rest]
        for F in star.pop(b):
            facets.discard(F)
            G = F ^ b
            for u in _bits(G):
                star[u].discard(F)
                todo.add(u)
            if not any(G & H == G for H in w):
                facets.add(G)
                for u in _bits(G):
                    star[u].add(G)
    return frozenset(facets)


@lru_cache(maxsize=None)
def homology(K: SimplicialComplex) -> HomologyProfile:
    """Reduced rational homology via the boundary matrices of the core of K.

    Only the faces of the strong-collapse core (:func:`_core`) are listed,
    as bitmasks, from its facets down.  The boundary matrices are reduced
    from the top dimension down with clearing (Chen-Kerber): a d-face that
    is the pivot row of a reduced (d+1)-column has a boundary column that
    reduces to zero, so that column is skipped.  The core may have a lower
    dimension than K; its Betti numbers are padded with zeros up to K.dim().
    """
    top = K.dim()
    if top < 0:
        return HomologyProfile((), -1)
    core = _core(K)
    by_dim: list[set[int]] = [set() for _ in range(max(F.bit_count() for F in core))]
    for F in core:
        by_dim[F.bit_count() - 1].add(F)
    for d in range(len(by_dim) - 1, 0, -1):
        by_dim[d - 1].update(f ^ b for f in by_dim[d] for b in _bits(f))
    faces = [sorted(s) for s in by_dim]
    # the augmentation C_0 -> C_{-1} has rank 1, the boundary above the top 0
    ranks_d = [1] + [0] * len(faces)
    cleared: dict[int, dict[int, int]] = {}  # pivots of the reduction one dimension up
    for d in range(len(faces) - 1, 0, -1):
        row = {f: i for i, f in enumerate(faces[d - 1])}
        columns = (
            {row[f ^ b]: -1 if pos % 2 else 1 for pos, b in enumerate(_bits(f))}
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


def _stars(facets: list[int]) -> dict[int, list[int]]:
    """Vertex bit -> the facet masks through it."""
    star: dict[int, list[int]] = {}
    for F in facets:
        for b in _bits(F):
            star.setdefault(b, []).append(F)
    return star


def _is_face(g: int, star: dict[int, list[int]]) -> bool:
    # a facet containing g passes through every vertex of g: scan the fewest
    fewest = ()
    rest = g
    while rest:
        b = rest & -rest
        s = star.get(b)
        if s is None:
            return False
        if not fewest or len(s) < len(fewest):
            fewest = s
        rest ^= b
    return any(g & F == g for F in fewest)


@lru_cache(maxsize=None)
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
    star = _stars(_masks(K))
    known: dict[tuple[int, int], bool] = {}

    def replaceable(u: int, v: int) -> bool:  # u can stand in for v (one-bit masks)
        r = known.get((u, v))
        if r is None:
            r = known[u, v] = all(_is_face(F ^ v | u, star) for F in star.get(v, ()) if not F & u)
        return r

    # a first guess, so that the sort meets long runs: more facets first
    guess = sorted((1 << v for v in range(1, K.m + 1)), key=lambda b: -len(star.get(b, ())))
    order = sorted(guess, key=cmp_to_key(lambda u, v: 0 if replaceable(v, u) else -1))
    return all(replaceable(u, v) for u, v in pairwise(order))


def minimal_non_faces(K: SimplicialComplex) -> tuple[Face, ...]:
    """Inclusion-minimal non-faces (every proper subset is a face)."""
    fs = _face_set(K)
    out = []
    for f in missing_subsets(K):
        s = set(f)
        if all(tuple(sorted(s - {v})) in fs for v in f):
            out.append(f)
    return tuple(out)


def _closed_neighbourhoods(facets: list[int]) -> dict[int, int]:
    """Vertex bit -> the mask of the vertex and its neighbours (ghosts absent)."""
    nbr: dict[int, int] = {}
    for F in facets:
        for b in _bits(F):
            nbr[b] = nbr.get(b, 0) | F
    return nbr


def is_flag(K: SimplicialComplex) -> bool:
    """Flag: every minimal non-face has exactly two vertices.

    A ghost vertex is a minimal non-face of size 1, so K is then not flag.
    Otherwise K is flag iff for every facet F and every vertex b outside F
    adjacent to at least two vertices of F, (F ∩ N(b)) + b is a face: a
    minimal non-face S of size >= 3 lies in such a set, taking F a facet
    through S - b.  Such a b is adjacent to some vertex of F other than its
    one of highest degree, so only those neighbourhoods are scanned.  Facets
    and neighbourhoods are bitmasks (bit v for vertex v); faces are never
    listed.
    """
    facets = _masks(K)
    nbr = _closed_neighbourhoods(facets)
    if len(nbr) < K.m:
        return False
    star = _stars(facets)
    for F in facets:
        bits = _bits(F)
        bits.remove(max(bits, key=lambda a: nbr[a].bit_count()))
        near = 0
        for a in bits:
            near |= nbr[a]
        for b in _bits(near & ~F):
            t = nbr[b] & F
            if t & (t - 1) and not _is_face(t | b, star):
                return False
    return True


def has_chordal_1skeleton(K: SimplicialComplex) -> bool:
    """Chordality of the 1-skeleton: simplicial vertices (neighbours pairwise
    adjacent) can be deleted one at a time until none is left.  Edges are
    read from the facets as neighbourhood bitmasks; a vertex that is not
    simplicial is looked at again only once a neighbour of it is deleted."""
    nbr = _closed_neighbourhoods(_masks(K))
    left = sum(nbr)
    todo = list(nbr)
    while todo:
        b = todo.pop()
        if not left & b:
            continue
        nb = nbr[b] & left ^ b
        rest = nb
        while rest:
            a = rest & -rest
            if nb & ~nbr[a]:
                break
            rest ^= a
        else:
            left ^= b
            todo.extend(_bits(nb))
    return not left


@lru_cache(maxsize=None)
def wedge_of_spheres_type(K: SimplicialComplex) -> tuple[int, ...] | None:
    """Sphere dimensions of |K| when a certificate applies, else None.

    Certified classes: shifted complexes (up to relabeling), 0-dimensional
    complexes, simplices, and flag complexes with chordal 1-skeleton.  For a
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
        or (is_flag(K) and has_chordal_1skeleton(K))
    )
    if not certified:
        return None
    prof = homology(K)
    dims: list[int] = []
    for d, r in enumerate(prof.ranks):
        dims.extend([d] * r)
    return tuple(dims)


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

