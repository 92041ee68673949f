"""
The loop-space decompositions of polyhedral coproducts, as executable
operations on formal space expressions.

A polyhedral coproduct is the homotopy limit, over the opposite face poset of
a simplicial complex K on {1..m}, of the wedges D(sigma) = Y_1 v ... v Y_m
with Y_i = X_i on sigma and Y_i = A_i off sigma, for an m-tuple of maps
f_i: X_i -> A_i.  This module builds those diagrams, evaluates the classical
special cases (wedge, product, cojoin), and produces the product
decompositions of the looped coproduct:

  * porter_loop_decomp / porter_fiber: loops on a wedge split as the product
    of the loops of the summands times loops of a finite wedge of suspended
    smashes of loop spaces;
  * hilton_milnor: loops on a wedge of suspensions split as a product over a
    Hall basis;
  * loop_decompose: the general decomposition, one factor per vertex plus one
    factor per Hall bracket on the face alphabet, each bracket factor a
    weighted smash coproduct over the full subcomplex on the bracket support.
    Bracket factors are simplified when every domain over the support is
    contractible (a pointed mapping space out of the suspended realization)
    or every codomain over the support is a point (a single loop-suspension
    factor when the support is a face, nothing otherwise); mixed factors stay
    symbolic atoms, and class_diagram builds their defining diagrams;
  * loop_decompose_wedge: the all-codomains-point case, over the letters of
    the faces of K, so a bracket over overlapping faces is counted once;
  * loop_decompose_contractible: the all-domains-contractible case, where
    only the brackets whose support is a missing face survive;
  * the suspension-splitting summand lists (bbcg_*) for the dual comparison,
    and the structural operations for joined vertices, gluings, and disjoint
    unions.

A bracket factor depends only on the bracket's vertex content l (l_j counts
the letters whose vertex set contains j), so brackets are never listed: they
are counted per class (weight w, content l) by the multigraded Witt formula
(liealg.lyndon_class_counts), and each class becomes one Factor whose
multiplicity is its bracket count and whose provenance is BracketClass(w, l),
rendered in JSON as {"kind": "class", "weight": w, "l": [...]}.  The three
polyhedral decompositions are one engine and one bracket rule over the face
alphabet; they differ only in their letters, truncation and input checks.

Every emitted factor expression is normalized, factors that normalize to a
point are dropped, and factor order is deterministic: vertex factors first by
vertex, then bracket classes by weight and then by l in descending
lexicographic order (so x_1 comes first at weight 1, and raising the weight
bound only appends factors).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Sequence

from . import series as series_mod
from .liealg import lyndon_class_counts
from .scomplex import (
    Face,
    SimplicialComplex,
    build,
    full_subcomplex,
    missing_subsets,
    union_along,
    wedge_of_spheres_type,
)
from .spacexpr import (
    Atom,
    Loop,
    MapFromSusp,
    PairAssignment,
    Point,
    Product,
    Smash,
    SpaceExpr,
    Sphere,
    Susp,
    Wedge,
    conn,
    expr_to_json,
    normalize,
    render,
)

POINT = Point()


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


@dataclass
class DiagramDescription:
    """A diagram over the opposite face poset, for inspection.

    objects maps each face (including the empty face) to its value; arrows
    maps (sigma, tau) with tau a proper subface of sigma to the coordinates
    where the induced map applies f_i (identity elsewhere).
    """

    complex: SimplicialComplex
    kind: str
    objects: dict[Face, SpaceExpr]
    arrows: dict[tuple[Face, Face], tuple[int, ...]]
    weights: tuple[int, ...] | None = None

    def render(self) -> str:
        lines = [f"{self.kind} diagram over {self.complex}"]
        if self.weights is not None:
            lines[0] += f", weights {list(self.weights)}"
        for f in sorted(self.objects, key=lambda f: (len(f), f)):
            label = "{" + ",".join(map(str, f)) + "}" if f else "∅"
            lines.append(f"  D({label}) = {render(self.objects[f])}")
        for (sig, tau), coords in sorted(self.arrows.items()):
            s = "{" + ",".join(map(str, sig)) + "}"
            t = "{" + ",".join(map(str, tau)) + "}" if tau else "∅"
            lines.append(f"  D({s}) → D({t}): f on {list(coords)}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "complex": {"m": self.complex.m, "facets": [list(f) for f in self.complex.facets]},
            "weights": list(self.weights) if self.weights is not None else None,
            "objects": [
                {"face": list(f), "value": expr_to_json(self.objects[f])}
                for f in sorted(self.objects, key=lambda f: (len(f), f))
            ],
            "arrows": [
                {"from": list(sig), "to": list(tau), "f_coordinates": list(coords)}
                for (sig, tau), coords in sorted(self.arrows.items())
            ],
        }


def _check_arity(m: int, given: int, what: str, name: str = "complex") -> None:
    if given != m:
        raise ValueError(f"{name} has {m} vertices but {given} {what} given")


def _display_wedge(children: Sequence[SpaceExpr]) -> SpaceExpr:
    # keep vertex order and named contractible atoms; only drop literal points
    kids = [c for c in children if not isinstance(c, Point)]
    if not kids:
        return POINT
    if len(kids) == 1:
        return kids[0]
    return Wedge(tuple(kids))


def _strict_face_pairs(K: SimplicialComplex):
    faces = K.faces()
    for sig in faces:
        if not sig:
            continue
        s = set(sig)
        for k in range(len(sig)):
            for tau in combinations(sig, k):
                yield sig, tau, tuple(sorted(s - set(tau)))


def coproduct_diagram(K: SimplicialComplex, pairs: PairAssignment) -> DiagramDescription:
    """The defining diagram: wedges of the Y_i over the opposite face poset."""
    _check_arity(K.m, pairs.m, "pairs")
    objects: dict[Face, SpaceExpr] = {}
    for f in K.faces():
        sel = set(f)
        objects[f] = _display_wedge(
            [pairs.domain(i) if i in sel else pairs.codomain(i) for i in range(1, K.m + 1)]
        )
    arrows = {(sig, tau): coords for sig, tau, coords in _strict_face_pairs(K)}
    return DiagramDescription(K, "wedge", objects, arrows)


def smash_coproduct(
    K: SimplicialComplex, pairs: PairAssignment, weights: Sequence[int]
) -> DiagramDescription:
    """The weighted smash-coproduct diagram: suspended smashes of loop spaces.

    Objects are sigma |-> Susp of the smash over i of Loop(Y_i(sigma)) to the
    k_i-th smash power, zero-fold factors omitted.  Its homotopy limit is
    kept symbolic; only the reductions in loop_decompose evaluate it.
    """
    _check_arity(K.m, pairs.m, "pairs")
    ks = tuple(int(k) for k in weights)
    if len(ks) != K.m:
        raise ValueError(f"expected {K.m} weights, got {len(ks)}")
    if any(k < 0 for k in ks):
        raise ValueError("weights must be nonnegative")
    if not any(ks):
        raise ValueError("weights must not all be zero")
    objects: dict[Face, SpaceExpr] = {}
    for f in K.faces():
        sel = set(f)
        smash = _smash_powers(
            lambda i: Loop(pairs.domain(i) if i in sel else pairs.codomain(i)), ks
        )
        objects[f] = normalize(Susp(smash))
    arrows = {(sig, tau): coords for sig, tau, coords in _strict_face_pairs(K)}
    return DiagramDescription(K, "suspended-smash", objects, arrows, weights=ks)


def evaluate_special(K: SimplicialComplex, pairs: PairAssignment) -> SpaceExpr | None:
    """Closed forms for the three classical shapes, None otherwise.

    Full simplex: the wedge of the domains (the top face is initial).
    Discrete complex with all codomains a point: the product of the domains
    over the covered vertices.  Two disjoint points with both domains
    contractible: the cojoin Loop Susp (Loop A_1 smash Loop A_2).
    """
    _check_arity(K.m, pairs.m, "pairs")
    if K.has_face(range(1, K.m + 1)):
        return normalize(Wedge(tuple(pairs.domain(i) for i in range(1, K.m + 1))))
    if K.dim() <= 0 and all(pairs.codomain_is_point(i) for i in range(1, K.m + 1)):
        return normalize(Product(tuple(pairs.domain(v) for v in K.vertices())))
    if (
        K.m == 2
        and K.facets == ((1,), (2,))
        and pairs.domain_contractible(1)
        and pairs.domain_contractible(2)
    ):
        return normalize(
            Loop(Susp(Smash((Loop(pairs.codomain(1)), Loop(pairs.codomain(2))))))
        )
    return None


# ---------------------------------------------------------------------------
# decomposition values
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BracketClass:
    """The Hall brackets of one weight (number of letters) and one vertex
    content l, where l_j counts the letters whose vertex set contains j.
    A bracket factor depends only on l, so one class is one factor."""

    weight: int
    l: tuple[int, ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, lj in enumerate(self.l, start=1) if lj)

    def sort_key(self) -> tuple:
        # by weight, then l in descending lexicographic order
        return (self.weight, tuple(-lj for lj in self.l))


@dataclass(frozen=True)
class Factor:
    """One product factor: a normalized expression with multiplicity and origin.

    provenance is a BracketClass (the multiplicity is its bracket count), a
    face tuple, a vertex number, or "base"; class_diagram(K, pairs,
    provenance) gives the defining diagram of a symbolic bracket factor.
    """

    expr: SpaceExpr
    multiplicity: int = 1
    provenance: object = "base"


def _provenance_text(p: object) -> str:
    if isinstance(p, BracketClass):
        return f"class w={p.weight} l=({','.join(map(str, p.l))})"
    if isinstance(p, tuple):
        return "face {" + ",".join(map(str, p)) + "}"
    if isinstance(p, int):
        return f"vertex {p}"
    return str(p)


def _provenance_json(p: object) -> dict:
    if isinstance(p, BracketClass):
        return {"kind": "class", "weight": p.weight, "l": list(p.l)}
    if isinstance(p, tuple):
        return {"kind": "face", "vertices": list(p)}
    if isinstance(p, int):
        return {"kind": "vertex", "vertex": p}
    return {"kind": "base"}


@dataclass(frozen=True)
class Decomposition:
    """A finite product of space-expression factors with provenance.

    truncation records the bracket weight bound whenever the full indexing
    set is infinite; None means the factor list is complete.
    """

    factors: tuple[Factor, ...]
    theorem: str
    truncation: int | None = None

    def factor_multiset(self) -> Counter:
        out: Counter = Counter()
        for f in self.factors:
            out[f.expr] += f.multiplicity
        return out

    def bracket_factors(self) -> tuple[Factor, ...]:
        return tuple(f for f in self.factors if isinstance(f.provenance, BracketClass))

    def series_product(self, N: int):
        """The product of the factor series through degree N, or Unsupported.

        Each distinct expression is evaluated once and raised to its total
        multiplicity; an Unsupported reason names the first such factor."""
        series: dict = {}
        for f in self.factors:
            if f.expr not in series:
                p = series_mod.series_of(f.expr, N)
                if isinstance(p, series_mod.Unsupported):
                    return series_mod.Unsupported(
                        f"factor {render(f.expr)} [{_provenance_text(f.provenance)}]: {p.reason}"
                    )
                series[f.expr] = p
        out = series_mod.PoincareSeries.one(N)
        for e, k in self.factor_multiset().items():
            out = out * series[e] ** k
        return out

    def render(self) -> str:
        total = sum(f.multiplicity for f in self.factors)
        head = f"{self.theorem}: {len(self.factors)} entries, {total} factors with multiplicity"
        if self.truncation is not None:
            head += f" (bracket weight ≤ {self.truncation})"
        lines = [head]
        for f in self.factors:
            mult = f" ^{f.multiplicity}" if f.multiplicity > 1 else ""
            lines.append(f"  {render(f.expr)}{mult}   [{_provenance_text(f.provenance)}]")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """The listing as JSON data; factors with equal expressions share one "expr" object."""
        forms = {e: (expr_to_json(e), render(e)) for e in {f.expr for f in self.factors}}
        return {
            "theorem": self.theorem,
            "truncation": self.truncation,
            "factors": [
                {
                    "expr": forms[f.expr][0],
                    "text": forms[f.expr][1],
                    "multiplicity": f.multiplicity,
                    "provenance": _provenance_json(f.provenance),
                }
                for f in self.factors
            ],
        }


# ---------------------------------------------------------------------------
# the classical wedge decompositions
# ---------------------------------------------------------------------------


def _require_simply_connected(spaces: Sequence[SpaceExpr], what: str) -> None:
    for i, x in enumerate(spaces, start=1):
        if conn(x) < 1:
            raise ValueError(
                f"vertex {i}: {what} {render(x)} must be simply connected "
                f"(connectivity {conn(x)})"
            )


def porter_fiber(spaces: Sequence[SpaceExpr]) -> SpaceExpr:
    """The fiber of the inclusion of a wedge into a product, as a wedge.

    Sums Susp(smash of Loop X_i over i in I) with multiplicity |I| - 1 over
    the subsets I of size at least two.
    """
    _require_simply_connected(spaces, "wedge summand")
    m = len(spaces)
    summands: list[SpaceExpr] = []
    powers: list[int] = []
    for k in range(2, m + 1):
        for I in combinations(range(1, m + 1), k):
            summands.append(normalize(Susp(Smash(tuple(Loop(spaces[i - 1]) for i in I)))))
            powers.append(k - 1)
    return normalize(Wedge(tuple(summands), tuple(powers)))


def porter_loop_decomp(spaces: Sequence[SpaceExpr]) -> Decomposition:
    """Loops on a wedge: the product of Loop X_i and loops of the fiber wedge."""
    factors = []
    for i, x in enumerate(spaces, start=1):
        f = normalize(Loop(x))
        if not isinstance(f, Point):
            factors.append(Factor(f, 1, i))
    fib = porter_fiber(spaces)
    lf = normalize(Loop(fib))
    if not isinstance(lf, Point):
        factors.append(Factor(lf, 1, "base"))
    return Decomposition(tuple(factors), "porter", None)


def _vertex_degrees(spaces: Sequence[SpaceExpr], offset: int) -> tuple[int, ...]:
    # lower bound for the bottom reduced degree each vertex adds to a letter:
    # conn + 1 for the suspended X_i of a plain letter (offset 1), conn for
    # the loop space Loop X_j a face letter contributes (offset 0)
    out = []
    for x in spaces:
        c = conn(x)
        out.append(1 if c == float("inf") else max(1, int(c) + offset))
    return tuple(out)


def _class_factors(
    letters: Sequence[tuple[tuple[int, ...], int]],
    weight_bound: int,
    rule,
    vertex_degrees: Sequence[int] | None = None,
    degree_bound: int | None = None,
) -> list[Factor]:
    """The bracket engine: one factor per counted (weight, l) class.

    rule(support) runs once per support and returns None when every class
    over it vanishes, else the function of l that builds a class's
    expression, run once per l; vanishing classes and expressions that
    normalize to a point are dropped.  Ordered by weight, then l in
    descending lexicographic order, so raising the weight bound only appends.
    """
    counts = lyndon_class_counts(
        letters, weight_bound, vertex_degrees=vertex_degrees, degree_bound=degree_bound
    )
    rules: dict[tuple[int, ...], object] = {}
    made: dict[tuple[int, ...], SpaceExpr] = {}
    out = []
    for cls in sorted((BracketClass(w, l) for w, l in counts), key=BracketClass.sort_key):
        if cls.l not in made:
            if cls.support not in rules:
                rules[cls.support] = rule(cls.support)
            factor_of = rules[cls.support]
            made[cls.l] = POINT if factor_of is None else factor_of(cls.l)
        expr = made[cls.l]
        if not isinstance(expr, Point):
            out.append(Factor(expr, counts[(cls.weight, cls.l)], cls))
    return out


def _assert_conn_at_least_weight(factors: Sequence[Factor]) -> None:
    for f in factors:
        assert conn(f.expr) >= f.provenance.weight, (render(f.expr), f.provenance)


def hilton_milnor(
    spaces: Sequence[SpaceExpr],
    weight_bound: int,
    *,
    degree_bound: int | None = None,
) -> Decomposition:
    """Loops of Susp X_1 v ... v Susp X_m as a Hall-basis product.

    Each bracket contributes Loop Susp of the smash of l_i copies of each
    X_i, zero-fold powers omitted, where l_i counts the letter x_i; the
    brackets are counted per l, one factor per class.  degree_bound
    optionally drops the brackets whose factors carry no homology at or
    below that degree, which leaves truncated series products unchanged.
    """
    if weight_bound < 1:
        raise ValueError("weight bound must be >= 1")
    m = len(spaces)
    if m == 0:
        raise ValueError("need at least one wedge summand")
    for i, x in enumerate(spaces, start=1):
        if conn(x) < 0:
            raise ValueError(f"vertex {i}: summand {render(x)} must be connected")

    def rule(support):
        return lambda l: normalize(Loop(Susp(_smash_powers(lambda j: spaces[j - 1], l))))

    letters = [(tuple(int(j == i) for j in range(m)), 1) for i in range(m)]
    degrees = _vertex_degrees(spaces, 1) if degree_bound is not None else None
    factors = _class_factors(
        letters, weight_bound, rule, vertex_degrees=degrees, degree_bound=degree_bound
    )
    if all(conn(x) >= 1 for x in spaces):
        _assert_conn_at_least_weight(factors)
    return Decomposition(tuple(factors), "hilton-milnor", weight_bound if m >= 2 else None)


# ---------------------------------------------------------------------------
# the polyhedral decompositions: one engine over the face alphabet and one
# bracket rule, with presets that differ only in their letters, truncation
# and input checks
# ---------------------------------------------------------------------------


def _base_factors(K: SimplicialComplex, pairs: PairAssignment) -> list[Factor]:
    # the per-vertex loop factors; a vertex absent from K contracts the
    # domain away and leaves loops of the codomain instead
    out = []
    for i in range(1, K.m + 1):
        y = pairs.domain(i) if K.has_face((i,)) else pairs.codomain(i)
        f = normalize(Loop(y))
        if not isinstance(f, Point):
            out.append(Factor(f, 1, i))
    return out


def _face_letters(vertex_sets, m: int) -> list[tuple[tuple[int, ...], int]]:
    """The face letters a_{J,i} for the given J with |J| >= 2, as (e_J, |J| - 1)."""
    return [
        (tuple(int(j in J) for j in range(1, m + 1)), len(J) - 1)
        for J in vertex_sets
        if len(J) >= 2
    ]


def _all_face_letters(m: int) -> list[tuple[tuple[int, ...], int]]:
    return _face_letters(
        (J for k in range(2, m + 1) for J in combinations(range(1, m + 1), k)), m
    )


def _smash_powers(space, l: Sequence[int]) -> Smash:
    # l_j copies of space(j), as one child of power l_j per vertex j
    terms = [(space(j), lj) for j, lj in enumerate(l, start=1) if lj]
    return Smash(tuple(x for x, _ in terms), tuple(lj for _, lj in terms))


def _bracket_rule(K: SimplicialComplex, pairs: PairAssignment, support: tuple[int, ...]):
    """The factor of the classes over one support: None when they all vanish,
    else the function of the vertex content l that builds the looped weighted
    smash coproduct over the full subcomplex on the support, reduced where a
    lemma applies."""
    if all(pairs.codomain_is_point(j) for j in support):
        # point codomains: only a face support survives
        if not K.has_face(support):
            return None
        return lambda l: normalize(Loop(Susp(_smash_powers(lambda j: Loop(pairs.domain(j)), l))))
    if all(pairs.domain_contractible(j) for j in support):
        # over a face this is a mapping space out of a suspended simplex
        if K.has_face(support):
            return None
        sub = full_subcomplex(K, support).complex
        return lambda l: normalize(
            Loop(MapFromSusp(sub, Susp(_smash_powers(lambda j: Loop(pairs.codomain(j)), l))))
        )
    # mixed endpoint data over the support: no lemma applies, stay symbolic
    name = "ŝ-coprod[K_{" + ",".join(map(str, support)) + "}; weights "
    dim = full_subcomplex(K, support).complex.dim()
    return lambda l: Loop(Atom(f"{name}{[lj for lj in l if lj]}]", max(0, sum(l) - dim - 1)))


def class_diagram(
    K: SimplicialComplex, pairs: PairAssignment, cls: BracketClass
) -> DiagramDescription:
    """The defining diagram of a class's bracket factor: the smash coproduct
    over the full subcomplex on its support, weighted by cls.l."""
    _check_arity(K.m, pairs.m, "pairs")
    sub = full_subcomplex(K, cls.support).complex
    restricted = PairAssignment.of([pairs.pairs[j - 1] for j in cls.support])
    return smash_coproduct(sub, restricted, [lj for lj in cls.l if lj])


def _coproduct_decomposition(
    K: SimplicialComplex,
    pairs: PairAssignment,
    weight_bound: int,
    theorem: str,
    letters: Sequence[tuple[tuple[int, ...], int]],
    truncated: bool,
    vertex_degrees: Sequence[int] | None = None,
    degree_bound: int | None = None,
) -> Decomposition:
    # truncated: whether the full bracket set is infinite, so that the
    # weight bound cuts it
    if weight_bound < 1:
        raise ValueError("weight bound must be >= 1")
    brackets = _class_factors(
        letters,
        weight_bound,
        partial(_bracket_rule, K, pairs),
        vertex_degrees=vertex_degrees,
        degree_bound=degree_bound,
    )
    factors = _base_factors(K, pairs) + brackets
    return Decomposition(tuple(factors), theorem, weight_bound if truncated else None)


def loop_decompose_wedge(
    K: SimplicialComplex,
    spaces: Sequence[SpaceExpr],
    weight_bound: int,
    *,
    degree_bound: int | None = None,
) -> Decomposition:
    """Loops of the coproduct of (X_i, point) pairs over K.

    One factor Loop X_i per vertex of K, plus one factor per class of Hall
    brackets whose support is a face of K: Loop Susp of the smash of l_j
    copies of Loop X_j, with the class's bracket count as multiplicity.
    A bracket over overlapping maximal faces is counted once.
    """
    _check_arity(K.m, len(spaces), "spaces")
    _require_simply_connected(spaces, "space")
    dec = _coproduct_decomposition(
        K,
        PairAssignment.constant_maps(spaces),
        weight_bound,
        "wedge-coproduct",
        _face_letters(K.face_set(), K.m),
        # infinite exactly when some maximal face has two or more letters
        K.dim() >= 2,
        _vertex_degrees(spaces, 0) if degree_bound is not None else None,
        degree_bound,
    )
    _assert_conn_at_least_weight(dec.bracket_factors())
    return dec


def _validate_pairs(K: SimplicialComplex, pairs: PairAssignment) -> None:
    _check_arity(K.m, pairs.m, "pairs")
    for i in range(1, K.m + 1):
        if not pairs.domain_contractible(i) and conn(pairs.domain(i)) < 1:
            raise ValueError(
                f"vertex {i}: domain {render(pairs.domain(i))} must be simply "
                f"connected or contractible"
            )
        if not pairs.codomain_is_point(i) and conn(pairs.codomain(i)) < 1:
            raise ValueError(
                f"vertex {i}: codomain {render(pairs.codomain(i))} must be simply "
                f"connected or a point"
            )


def loop_decompose(
    K: SimplicialComplex, pairs: PairAssignment, weight_bound: int
) -> Decomposition:
    """The general decomposition of the looped polyhedral coproduct.

    Factors: Loop X_i per vertex, and per class of Hall brackets on the face
    alphabet of {1..m} (weight <= weight_bound) the looped weighted smash
    coproduct over the full subcomplex on the class support.  When every
    domain over the support is contractible the factor reduces to a looped
    mapping space out of Susp of the realization; when every codomain over
    the support is a point it reduces to a loop-suspension factor if the
    support is a face and vanishes otherwise; mixed factors stay symbolic
    atoms, whose diagrams class_diagram builds on demand.
    """
    _validate_pairs(K, pairs)
    # the face alphabet of {1..m} has two or more letters exactly when m >= 3
    return _coproduct_decomposition(
        K, pairs, weight_bound, "general-coproduct", _all_face_letters(K.m), K.m >= 3
    )


def loop_decompose_contractible(
    K: SimplicialComplex, pairs: PairAssignment, weight_bound: int
) -> Decomposition:
    """The decomposition when every domain is contractible.

    One factor per class of Hall brackets whose support is a missing face of
    K: the looped mapping space out of Susp of the realization of the full
    subcomplex on the support, into Susp of the smash of l_j copies of
    Loop A_j.  (Over a face the mapping space is out of a suspended simplex
    and normalizes to a point, so this is the general decomposition.)
    Mapping spaces over certified subcomplexes reduce to iterated loops; the
    rest stay symbolic.
    """
    _check_arity(K.m, pairs.m, "pairs")
    for i in range(1, K.m + 1):
        if not pairs.domain_contractible(i):
            raise ValueError(
                f"vertex {i}: domain {render(pairs.domain(i))} is not contractible"
            )
    _validate_pairs(K, pairs)
    return _coproduct_decomposition(
        K, pairs, weight_bound, "contractible-domains", _all_face_letters(K.m), K.m >= 3
    )


# ---------------------------------------------------------------------------
# suspension splittings of the dual polyhedral products, for comparison
# ---------------------------------------------------------------------------


def bbcg_wedge_splitting(
    K: SimplicialComplex, spaces: Sequence[SpaceExpr]
) -> list[tuple[Face, SpaceExpr]]:
    """Summands Susp(X^smash sigma) of the suspended polyhedral product, per face."""
    _check_arity(K.m, len(spaces), "spaces")
    out = []
    for f in K.faces():
        if not f:
            continue
        expr = normalize(Susp(Smash(tuple(spaces[i - 1] for i in f))))
        out.append((f, expr))
    return out


def _realization_expr(sub: SimplicialComplex, label: tuple[int, ...]) -> list[SpaceExpr]:
    """|K_I| as sphere summands when certified; a single symbolic atom otherwise."""
    dims = wedge_of_spheres_type(sub)
    if dims is None:
        name = "|K_{" + ",".join(map(str, label)) + "}|"
        return [Atom(name=name, connectivity=-1)]
    return [Sphere(d) if d >= 0 else None for d in dims]  # None marks S^{-1}


def bbcg_cone_splitting(
    K: SimplicialComplex, spaces: Sequence[SpaceExpr]
) -> list[tuple[Face, SpaceExpr]]:
    """Summands Susp(|K_I| smash X^smash I) over the missing subsets I.

    Certified realizations are expanded into their sphere summands (so the
    wedge distributes through the smash); a contractible certified |K_I|
    contributes a point.
    """
    _check_arity(K.m, len(spaces), "spaces")
    out = []
    for I in missing_subsets(K):
        sub = full_subcomplex(K, I).complex
        xs = [spaces[i - 1] for i in I]
        pieces = _realization_expr(sub, I)
        summands = []
        for piece in pieces:
            if piece is None:
                summands.append(normalize(Smash(tuple(xs))))
            else:
                summands.append(normalize(Susp(Smash(tuple([piece] + xs)))))
        out.append((I, normalize(Wedge(tuple(summands)))))
    return out


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def join_vertex_reduce(
    K: SimplicialComplex, pairs: PairAssignment
) -> tuple[SimplicialComplex, PairAssignment]:
    """Strip a joined apex vertex whose domain is a point.

    The last vertex m must lie in every facet (so K = K' join {m}) and its
    domain must be contractible; the coproduct over K agrees with the one
    over the stripped complex, so decompositions may be computed there.
    """
    m = K.m
    _check_arity(m, pairs.m, "pairs")
    if m < 2:
        raise ValueError("need at least two vertices to strip one")
    if not K.has_face((m,)) or not all(m in f for f in K.facets):
        raise ValueError(f"vertex {m} is not an apex of every facet")
    if not pairs.domain_contractible(m):
        raise ValueError(
            f"vertex {m}: domain {render(pairs.domain(m))} must be a point"
        )
    reduced_faces = [tuple(v for v in f if v != m) for f in K.facets]
    reduced_faces = [f for f in reduced_faces if f]
    return build(m - 1, reduced_faces), PairAssignment.of(pairs.pairs[:-1])


@dataclass
class PullbackSquare:
    """The four coproduct corners of a gluing K = K1 cup_L K2, with the maps."""

    corners: dict[str, SimplicialComplex]
    diagrams: dict[str, DiagramDescription]
    maps: tuple[tuple[str, str, str], ...]

    def render(self) -> str:
        lines = ["homotopy pullback square of coproducts"]
        for name in ("K", "K1", "K2", "L"):
            lines.append(f"  corner {name}: {self.corners[name]}")
        for src, dst, desc in self.maps:
            lines.append(f"  {src} → {dst}: {desc}")
        for name in ("K", "K1", "K2", "L"):
            lines.append(self.diagrams[name].render())
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "corners": {
                name: {"m": K.m, "facets": [list(f) for f in K.facets]}
                for name, K in self.corners.items()
            },
            "maps": [
                {"from": src, "to": dst, "description": desc}
                for src, dst, desc in self.maps
            ],
            "diagrams": {name: d.to_json() for name, d in self.diagrams.items()},
        }


def pullback_square(
    K1: SimplicialComplex,
    K2: SimplicialComplex,
    L: SimplicialComplex | None,
    pairs: PairAssignment,
) -> PullbackSquare:
    """The coproduct of a gluing as a homotopy pullback over the overlap.

    Ranges follow the gluing convention of union_along: K1 on {1..n}, L on
    the top |L| vertices of K1, K2 starting there.  All four corners are
    considered on the full vertex set; with L empty the corner complex has
    only the empty face and its coproduct is the wedge of all codomains.
    """
    o = L.m if L is not None else 0
    offset = K1.m - o
    m = K1.m + K2.m - o
    _check_arity(m, pairs.m, "pairs", "glued complex")
    K = union_along(K1, K2, L)
    k1bar = build(m, K1.facets)
    k2bar = build(m, [tuple(v + offset for v in f) for f in K2.facets])
    lbar = build(m, [tuple(v + offset for v in f) for f in L.facets]) if L is not None else build(m, [])
    corners = {"K": K, "K1": k1bar, "K2": k2bar, "L": lbar}
    diagrams = {name: coproduct_diagram(c, pairs) for name, c in corners.items()}
    maps = (
        ("K", "K1", "induced by the simplicial inclusion of K1 into K"),
        ("K", "K2", "induced by the simplicial inclusion of K2 into K"),
        ("K1", "L", "induced by the simplicial inclusion of L into K1"),
        ("K2", "L", "induced by the simplicial inclusion of L into K2"),
    )
    return PullbackSquare(corners, diagrams, maps)


def disjoint_union_decomp(
    K1: SimplicialComplex,
    K2: SimplicialComplex,
    spaces: Sequence[SpaceExpr],
    weight_bound: int,
    *,
    degree_bound: int | None = None,
) -> Decomposition:
    """Decomposition of the coproduct over K1 disjoint-union K2 with A = point:
    the multiset union of the component decompositions."""
    m1, m2 = K1.m, K2.m
    _check_arity(m1 + m2, len(spaces), "spaces", "disjoint union")
    d1 = loop_decompose_wedge(K1, spaces[:m1], weight_bound, degree_bound=degree_bound)
    d2 = loop_decompose_wedge(K2, spaces[m1:], weight_bound, degree_bound=degree_bound)

    def padded(f: Factor, before: int, after: int) -> Factor:
        p = f.provenance
        if isinstance(p, int):
            return Factor(f.expr, f.multiplicity, p + before)
        return Factor(f.expr, f.multiplicity, BracketClass(p.weight, (0,) * before + p.l + (0,) * after))

    factors = [padded(f, 0, m2) for f in d1.factors] + [padded(f, m1, 0) for f in d2.factors]
    base = sorted((f for f in factors if isinstance(f.provenance, int)), key=lambda f: f.provenance)
    brackets = sorted(
        (f for f in factors if isinstance(f.provenance, BracketClass)),
        key=lambda f: f.provenance.sort_key(),
    )
    truncation = (
        weight_bound if (d1.truncation is not None or d2.truncation is not None) else None
    )
    return Decomposition(tuple(base + brackets), "disjoint-union", truncation)
