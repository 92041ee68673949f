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
* Homology is reduced homology with rational coefficients.  Boundary ranks
  come from an exact sparse column reduction over int: plain integer updates
  on +-1 pivots, fraction-free ones with gcd division otherwise.  Torsion is
  invisible by design: the downstream series oracles are rational.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product as iproduct
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

    def ghost_vertices(self) -> tuple[int, ...]:
        """Vertices of {1..m} not contained in any face."""
        cov = set(self.vertices())
        return tuple(v for v in range(1, self.m + 1) if v not in cov)

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

    Raises ValueError when m < 1, a face is empty, or a vertex is out of
    range.  Listing no faces yields the empty complex (only face: the empty
    face), which is a legal value.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"vertex count must be a positive integer, got {m!r}")
    cleaned: set[Face] = set()
    for face in faces:
        f = tuple(sorted(set(face)))
        if not f:
            raise ValueError("generating faces must be nonempty")
        if f[0] < 1 or f[-1] > m:
            bad = [v for v in f if v < 1 or v > m]
            raise ValueError(f"vertex {bad[0]} out of range 1..{m}")
        cleaned.add(f)
    # largest first: a face is maximal iff no facet kept so far contains it
    kept: list[frozenset[int]] = []
    for f in sorted(cleaned, key=len, reverse=True):
        s = frozenset(f)
        if not any(s <= g for g in kept):
            kept.append(s)
    return SimplicialComplex(m, tuple(sorted(tuple(sorted(g)) for g in kept)))


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
    """The full subcomplex K_I: all faces of K contained in I, re-indexed."""
    iv = tuple(sorted(set(I)))
    for v in iv:
        if v < 1 or v > K.m:
            raise ValueError(f"vertex {v} out of range 1..{K.m}")
    if not iv:
        raise ValueError("full subcomplex needs a nonempty vertex set")
    relabel = {v: j + 1 for j, v in enumerate(iv)}
    # every face of K inside I lies in some F ∩ I, F a facet of K
    traces = [tuple(relabel[v] for v in f if v in relabel) for f in K.facets]
    return Subcomplex(build(len(iv), [t for t in traces if t]), iv)


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


@lru_cache(maxsize=None)
def homology(K: SimplicialComplex) -> HomologyProfile:
    """Reduced rational homology via boundary matrices of the augmented chain complex."""
    top = K.dim()
    if top < 0:
        return HomologyProfile((), -1)
    by_dim: dict[int, list[Face]] = {d: [] for d in range(top + 1)}
    for f in K.faces():
        if f:
            by_dim[len(f) - 1].append(f)
    # rank of the augmentation C_0 -> C_{-1}: 1 as soon as a vertex exists
    ranks_d = [1 if by_dim[0] else 0]
    for d in range(1, top + 1):
        row = {f: i for i, f in enumerate(by_dim[d - 1])}
        columns = (
            {row[f[:pos] + f[pos + 1 :]]: -1 if pos % 2 else 1 for pos in range(len(f))}
            for f in by_dim[d]
        )
        ranks_d.append(len(_reduce(columns)))
    ranks_d.append(0)
    betti = tuple(
        len(by_dim[d]) - ranks_d[d] - ranks_d[d + 1] for d in range(top + 1)
    )
    return HomologyProfile(betti, top)


# ---------------------------------------------------------------------------
# predicates certifying that |K| is a wedge of spheres
# ---------------------------------------------------------------------------


def _replaceable(faces: frozenset[Face], u: int, v: int) -> bool:
    # u can stand in for v: every face through v (avoiding u) survives the swap
    for f in faces:
        if v in f and u not in f:
            g = tuple(sorted(set(f) - {v} | {u}))
            if g not in faces:
                return False
    return True


def _shifted_under_identity(faces: frozenset[Face], m: int) -> bool:
    for f in faces:
        for v in f:
            for u in range(1, v):
                if u not in f and tuple(sorted(set(f) - {v} | {u})) not in faces:
                    return False
    return True


@lru_cache(maxsize=None)
def is_shifted(K: SimplicialComplex) -> bool:
    """Whether some relabeling of {1..m} makes K shifted.

    K is shifted for a labeling when replacing any vertex of any face by a
    smaller vertex again yields a face.  The search uses the replacement
    quasi-order "u can stand in for v everywhere", which is transitive; a
    valid labeling exists iff every vertex pair is comparable, and sorting by
    how many vertices each one can replace produces one.  The candidate
    labeling is verified directly before returning True.
    """
    faces = _face_set(K)
    verts = range(1, K.m + 1)
    repl = {
        (u, v): _replaceable(faces, u, v)
        for u in verts
        for v in verts
        if u != v
    }
    for u in verts:
        for v in verts:
            if u < v and not (repl[(u, v)] or repl[(v, u)]):
                return False
    score = {u: sum(repl[(u, v)] for v in verts if v != u) for u in verts}
    order = sorted(verts, key=lambda u: (-score[u], u))
    relabel = {old: new + 1 for new, old in enumerate(order)}
    relabeled = frozenset(tuple(sorted(relabel[v] for v in f)) for f in faces)
    return _shifted_under_identity(relabeled, K.m)


def minimal_non_faces(K: SimplicialComplex) -> tuple[Face, ...]:
    """Inclusion-minimal non-faces (every proper subset is a face)."""
    fs = _face_set(K)
    out = []
    for f in missing_subsets(K):
        s = set(f)
        if all(tuple(sorted(s - {v})) in fs for v in f):
            out.append(f)
    return tuple(out)


def is_flag(K: SimplicialComplex) -> bool:
    """Flag: every minimal non-face has exactly two vertices."""
    return all(len(f) == 2 for f in minimal_non_faces(K))


def has_chordal_1skeleton(K: SimplicialComplex) -> bool:
    """Chordality of the 1-skeleton via a perfect elimination ordering search."""
    adj: dict[int, set[int]] = {v: set() for v in range(1, K.m + 1)}
    for f in _face_set(K):
        if len(f) == 2:
            a, b = f
            adj[a].add(b)
            adj[b].add(a)
    remaining = set(adj)
    while remaining:
        simplicial = None
        for v in sorted(remaining):
            nb = adj[v] & remaining
            if all(b in adj[a] for a, b in combinations(sorted(nb), 2)):
                simplicial = v
                break
        if simplicial is None:
            return False
        remaining.remove(simplicial)
    return True


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


def complex_to_json_str(K: SimplicialComplex) -> str:
    return json.dumps(complex_to_json(K), sort_keys=True, separators=(",", ":"))


def complex_from_json_str(text: str) -> SimplicialComplex:
    return complex_from_json(json.loads(text))
