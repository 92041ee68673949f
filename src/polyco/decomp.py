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
    symbolic with their defining diagram attached;
  * loop_decompose_wedge: the all-codomains-point case, indexed by brackets
    over the maximal faces and deduplicated across overlaps;
  * loop_decompose_contractible: the all-domains-contractible case, indexed
    by brackets whose support is a missing face;
  * the suspension-splitting summand lists (bbcg_*) for the dual comparison,
    and the structural operations for joined vertices, gluings, and disjoint
    unions.

Every emitted factor expression is normalized, factors that normalize to a
point are dropped, and factor order is deterministic: vertex factors first by
vertex, then bracket factors by (weight, serialization).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from . import series as series_mod
from .liealg import (
    Bracket,
    Generator,
    generators_for,
    hall_basis,
    plain_alphabet,
    stats,
)
from .scomplex import (
    Face,
    SimplicialComplex,
    build,
    full_subcomplex,
    maximal_faces_ge2,
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
    if pairs.m != K.m:
        raise ValueError(f"complex has {K.m} vertices but {pairs.m} pairs given")
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
    if pairs.m != K.m:
        raise ValueError(f"complex has {K.m} vertices but {pairs.m} pairs given")
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
        children: list[SpaceExpr] = []
        for i in range(1, K.m + 1):
            if ks[i - 1] == 0:
                continue
            y = pairs.domain(i) if i in sel else pairs.codomain(i)
            children.extend([Loop(y)] * ks[i - 1])
        objects[f] = normalize(Susp(Smash(tuple(children))))
    arrows = {(sig, tau): coords for sig, tau, coords in _strict_face_pairs(K)}
    return DiagramDescription(K, "suspended-smash", objects, arrows, weights=ks)


def evaluate_special(K: SimplicialComplex, pairs: PairAssignment) -> SpaceExpr | None:
    """Closed forms for the three classical shapes, None otherwise.

    Full simplex: the wedge of the domains (the top face is initial).
    Discrete complex with all codomains a point: the product of the domains
    over the covered vertices.  Two disjoint points with both domains
    contractible: the cojoin Loop Susp (Loop A_1 smash Loop A_2).
    """
    if pairs.m != K.m:
        raise ValueError(f"complex has {K.m} vertices but {pairs.m} pairs given")
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


@dataclass(frozen=True)
class Factor:
    """One product factor: a normalized expression with multiplicity and origin.

    provenance is a Bracket, a face tuple, a vertex number, or "base"; a
    symbolic smash-coproduct factor carries its defining diagram.
    """

    expr: SpaceExpr
    multiplicity: int = 1
    provenance: object = "base"
    diagram: DiagramDescription | None = field(default=None, compare=False)


def _provenance_text(p: object) -> str:
    if isinstance(p, Bracket):
        return f"bracket {p.serialize()}"
    if isinstance(p, tuple):
        return "face {" + ",".join(map(str, p)) + "}"
    if isinstance(p, int):
        return f"vertex {p}"
    return str(p)


def _provenance_json(p: object) -> dict:
    if isinstance(p, Bracket):
        return {"kind": "bracket", "bracket": p.serialize(), "weight": p.weight}
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

    def exprs(self) -> list[SpaceExpr]:
        out: list[SpaceExpr] = []
        for f in self.factors:
            out.extend([f.expr] * f.multiplicity)
        return out

    def factor_multiset(self) -> Counter:
        return Counter(self.exprs())

    def bracket_factors(self) -> tuple[Factor, ...]:
        return tuple(f for f in self.factors if isinstance(f.provenance, Bracket))

    def series_product(self, N: int):
        """The product of the factor series through degree N, or Unsupported.

        Each distinct expression is evaluated once and raised to its total
        multiplicity; an Unsupported reason names the first such factor."""
        series: dict = {}
        totals: Counter = Counter()
        for f in self.factors:
            if f.expr not in series:
                p = series_mod.series_of(f.expr, N)
                if isinstance(p, series_mod.Unsupported):
                    return series_mod.Unsupported(
                        f"factor {render(f.expr)} [{_provenance_text(f.provenance)}]: {p.reason}"
                    )
                series[f.expr] = p
            totals[f.expr] += f.multiplicity
        out = series_mod.PoincareSeries.one(N)
        for e, k in totals.items():
            out = out * series[e] ** k
        return out

    def render(self) -> str:
        head = f"{self.theorem}: {len(self.factors)} factors"
        if self.truncation is not None:
            head += f" (bracket weight ≤ {self.truncation})"
        lines = [head]
        for f in self.factors:
            mult = f" ^{f.multiplicity}" if f.multiplicity > 1 else ""
            lines.append(f"  {render(f.expr)}{mult}   [{_provenance_text(f.provenance)}]")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "truncation": self.truncation,
            "factors": [
                {
                    "expr": expr_to_json(f.expr),
                    "text": render(f.expr),
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
    for k in range(2, m + 1):
        for I in combinations(range(1, m + 1), k):
            term = normalize(Susp(Smash(tuple(Loop(spaces[i - 1]) for i in I))))
            summands.extend([term] * (k - 1))
    return normalize(Wedge(tuple(summands)))


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


def _letter_degree(spaces_for: dict[int, SpaceExpr], g: Generator) -> int:
    # lower bound for the bottom reduced degree contributed by one letter
    if g.subset is None:
        x = spaces_for[g.index]
        return max(1, int(conn(x)) + 1 if conn(x) != float("inf") else 1)
    total = 0
    for j in g.subset:
        c = conn(spaces_for[j])
        total += max(1, int(c) if c != float("inf") else 1)
    return total


def hilton_milnor(
    spaces: Sequence[SpaceExpr],
    weight_bound: int,
    *,
    degree_bound: int | None = None,
) -> Decomposition:
    """Loops of Susp X_1 v ... v Susp X_m as a Hall-basis product.

    Each bracket b contributes Loop Susp of the smash of k_i(b) copies of
    each X_i, zero-fold powers omitted.  degree_bound optionally drops the
    brackets whose factors carry no homology at or below that degree, which
    leaves truncated series products unchanged.
    """
    if weight_bound < 1:
        raise ValueError("weight bound must be >= 1")
    m = len(spaces)
    if m == 0:
        raise ValueError("need at least one wedge summand")
    for i, x in enumerate(spaces, start=1):
        if conn(x) < 0:
            raise ValueError(f"vertex {i}: summand {render(x)} must be connected")
    alphabet = plain_alphabet(m)
    degrees = None
    if degree_bound is not None:
        by_vertex = {i + 1: spaces[i] for i in range(m)}
        degrees = [_letter_degree(by_vertex, g) for g in alphabet]
    all_simply = all(conn(x) >= 1 for x in spaces)
    factors = []
    for b in hall_basis(alphabet, weight_bound, letter_degrees=degrees, degree_bound=degree_bound):
        md = b.multidegree()
        children: list[SpaceExpr] = []
        for g, count in sorted(md.items(), key=lambda kv: kv[0].key()):
            children.extend([spaces[g.index - 1]] * count)
        expr = normalize(Loop(Susp(Smash(tuple(children)))))
        if isinstance(expr, Point):
            continue
        if all_simply:
            assert conn(expr) >= b.weight, (render(expr), b.serialize())
        factors.append(Factor(expr, 1, b))
    factors.sort(key=lambda f: (f.provenance.weight, f.provenance.serialize()))
    return Decomposition(tuple(factors), "hilton-milnor", weight_bound if m >= 2 else None)


# ---------------------------------------------------------------------------
# the polyhedral decompositions
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


def _smash_of_loops(exprs: dict[int, SpaceExpr], l: Sequence[int]) -> Smash:
    children: list[SpaceExpr] = []
    for j, lj in enumerate(l, start=1):
        if lj:
            children.extend([Loop(exprs[j])] * lj)
    return Smash(tuple(children))


def loop_decompose_wedge(
    K: SimplicialComplex,
    spaces: Sequence[SpaceExpr],
    weight_bound: int,
    *,
    degree_bound: int | None = None,
) -> Decomposition:
    """Loops of the coproduct of (X_i, point) pairs over K.

    One factor Loop X_i per vertex of K, plus one factor per Hall bracket
    over the alphabets of the maximal faces with at least two vertices,
    deduplicated across overlapping faces: Loop Susp of the smash of l_j(b)
    copies of Loop X_j.
    """
    if weight_bound < 1:
        raise ValueError("weight bound must be >= 1")
    if len(spaces) != K.m:
        raise ValueError(f"complex has {K.m} vertices but {len(spaces)} spaces given")
    _require_simply_connected(spaces, "space")
    pairs = PairAssignment.constant_maps(spaces)
    factors = _base_factors(K, pairs)

    by_vertex = {i + 1: spaces[i] for i in range(K.m)}
    seen: dict[Bracket, None] = {}
    maximal = maximal_faces_ge2(K)
    for sigma in maximal:
        alphabet = generators_for(sigma)
        degrees = None
        if degree_bound is not None:
            degrees = [_letter_degree(by_vertex, g) for g in alphabet]
        for b in hall_basis(
            alphabet, weight_bound, letter_degrees=degrees, degree_bound=degree_bound
        ):
            seen.setdefault(b, None)

    bracket_factors = []
    for b in sorted(seen, key=lambda b: (b.weight, b.serialize())):
        st = stats(b, K.m)
        expr = normalize(Loop(Susp(_smash_of_loops(by_vertex, st.l))))
        if isinstance(expr, Point):
            continue
        assert conn(expr) >= b.weight, (render(expr), b.serialize())
        bracket_factors.append(Factor(expr, 1, b))
    factors.extend(bracket_factors)

    truncated = any(len(sigma) >= 3 for sigma in maximal)
    return Decomposition(
        tuple(factors), "wedge-coproduct", weight_bound if truncated else None
    )


def _validate_pairs(K: SimplicialComplex, pairs: PairAssignment) -> None:
    if pairs.m != K.m:
        raise ValueError(f"complex has {K.m} vertices but {pairs.m} pairs given")
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

    Factors: Loop X_i per vertex, and per Hall bracket b on the face alphabet
    of {1..m} (weight <= weight_bound) the looped weighted smash coproduct
    over the full subcomplex on the support of b.  When every domain over the
    support is contractible the factor reduces to a looped mapping space out
    of Susp of the realization; when every codomain over the support is a
    point it reduces to a loop-suspension factor if the support is a face and
    vanishes otherwise; mixed factors stay symbolic with the diagram attached.
    """
    if weight_bound < 1:
        raise ValueError("weight bound must be >= 1")
    _validate_pairs(K, pairs)
    m = K.m
    factors = _base_factors(K, pairs)
    domains = {i: pairs.domain(i) for i in range(1, m + 1)}
    codomains = {i: pairs.codomain(i) for i in range(1, m + 1)}

    alphabet = generators_for(range(1, m + 1))
    memo: dict[tuple, tuple[SpaceExpr, DiagramDescription | None]] = {}
    bracket_factors = []
    for b in hall_basis(alphabet, weight_bound):
        st = stats(b, m)
        support = tuple(j for j, lj in enumerate(st.l, start=1) if lj)
        if not support:
            continue
        key = (support, st.l)
        if key in memo:
            expr, diagram = memo[key]
        else:
            expr, diagram = _bracket_factor(K, pairs, domains, codomains, support, st.l)
            memo[key] = (expr, diagram)
        if isinstance(expr, Point):
            continue
        bracket_factors.append(Factor(expr, 1, b, diagram=diagram))
    bracket_factors.sort(key=lambda f: (f.provenance.weight, f.provenance.serialize()))
    factors.extend(bracket_factors)
    return Decomposition(
        tuple(factors), "general-coproduct", weight_bound if len(alphabet) >= 2 else None
    )


def _bracket_factor(
    K: SimplicialComplex,
    pairs: PairAssignment,
    domains: dict[int, SpaceExpr],
    codomains: dict[int, SpaceExpr],
    support: tuple[int, ...],
    l: tuple[int, ...],
) -> tuple[SpaceExpr, DiagramDescription | None]:
    sub = full_subcomplex(K, support).complex
    if all(pairs.domain_contractible(j) for j in support):
        inner = Susp(_smash_of_loops(codomains, l))
        return normalize(Loop(MapFromSusp(sub, inner))), None
    if all(pairs.codomain_is_point(j) for j in support):
        if K.has_face(support):
            return normalize(Loop(Susp(_smash_of_loops(domains, l)))), None
        return POINT, None
    # mixed endpoint data over the support: no lemma applies, stay symbolic
    total = sum(l)
    restricted = PairAssignment.of([(domains[j], codomains[j]) for j in support])
    weights = tuple(l[j - 1] for j in support)
    diagram = smash_coproduct(sub, restricted, weights)
    vert_text = ",".join(map(str, support))
    atom = Atom(
        name=f"ŝ-coprod[K_{{{vert_text}}}; weights {list(weights)}]",
        connectivity=max(0, total - sub.dim() - 1),
    )
    return Loop(atom), diagram


def loop_decompose_contractible(
    K: SimplicialComplex, pairs: PairAssignment, weight_bound: int
) -> Decomposition:
    """The decomposition when every domain is contractible.

    One factor per Hall bracket whose support is a missing face of K: the
    looped mapping space out of Susp of the realization of the full
    subcomplex on the support, into Susp of the smash of l_j(b) copies of
    Loop A_j.  Mapping spaces over certified subcomplexes reduce to iterated
    loops; the rest stay symbolic.
    """
    if weight_bound < 1:
        raise ValueError("weight bound must be >= 1")
    if pairs.m != K.m:
        raise ValueError(f"complex has {K.m} vertices but {pairs.m} pairs given")
    m = K.m
    for i in range(1, m + 1):
        if not pairs.domain_contractible(i):
            raise ValueError(
                f"vertex {i}: domain {render(pairs.domain(i))} is not contractible"
            )
        if not pairs.codomain_is_point(i) and conn(pairs.codomain(i)) < 1:
            raise ValueError(
                f"vertex {i}: codomain {render(pairs.codomain(i))} must be simply "
                f"connected or a point"
            )
    factors = _base_factors(K, pairs)
    codomains = {i: pairs.codomain(i) for i in range(1, m + 1)}

    alphabet = generators_for(range(1, m + 1))
    face_lookup = K.face_set()
    memo: dict[tuple, SpaceExpr] = {}
    bracket_factors = []
    for b in hall_basis(alphabet, weight_bound):
        st = stats(b, m)
        support = tuple(j for j, lj in enumerate(st.l, start=1) if lj)
        if support in face_lookup:
            continue  # the smash coproduct over a face is contractible
        key = (support, st.l)
        expr = memo.get(key)
        if expr is None:
            sub = full_subcomplex(K, support).complex
            inner = Susp(_smash_of_loops(codomains, st.l))
            expr = normalize(Loop(MapFromSusp(sub, inner)))
            memo[key] = expr
        if isinstance(expr, Point):
            continue
        bracket_factors.append(Factor(expr, 1, b))
    bracket_factors.sort(key=lambda f: (f.provenance.weight, f.provenance.serialize()))
    factors.extend(bracket_factors)
    return Decomposition(
        tuple(factors),
        "contractible-domains",
        weight_bound if len(alphabet) >= 2 else None,
    )


# ---------------------------------------------------------------------------
# suspension splittings of the dual polyhedral products, for comparison
# ---------------------------------------------------------------------------


def bbcg_wedge_splitting(
    K: SimplicialComplex, spaces: Sequence[SpaceExpr]
) -> list[tuple[Face, SpaceExpr]]:
    """Summands Susp(X^smash sigma) of the suspended polyhedral product, per face."""
    if len(spaces) != K.m:
        raise ValueError(f"complex has {K.m} vertices but {len(spaces)} spaces given")
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
    if len(spaces) != K.m:
        raise ValueError(f"complex has {K.m} vertices but {len(spaces)} spaces given")
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
    if pairs.m != m:
        raise ValueError(f"complex has {m} vertices but {pairs.m} pairs given")
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
    if pairs.m != m:
        raise ValueError(f"glued complex has {m} vertices but {pairs.m} pairs given")
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


def _shift_generator(g: Generator, offset: int) -> Generator:
    if g.subset is None:
        return Generator.plain(g.index + offset)
    return Generator.face(tuple(v + offset for v in g.subset), g.index)


def _shift_bracket(b: Bracket, offset: int) -> Bracket:
    if b.gen is not None:
        return Bracket.leaf(_shift_generator(b.gen, offset))
    return Bracket.pair(_shift_bracket(b.left, offset), _shift_bracket(b.right, offset))


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
    if len(spaces) != m1 + m2:
        raise ValueError(f"expected {m1 + m2} spaces, got {len(spaces)}")
    d1 = loop_decompose_wedge(K1, spaces[:m1], weight_bound, degree_bound=degree_bound)
    d2 = loop_decompose_wedge(K2, spaces[m1:], weight_bound, degree_bound=degree_bound)
    base = []
    brackets = []
    for f in d1.factors:
        (base if isinstance(f.provenance, int) else brackets).append(f)
    for f in d2.factors:
        if isinstance(f.provenance, int):
            base.append(Factor(f.expr, f.multiplicity, f.provenance + m1))
        else:
            brackets.append(
                Factor(f.expr, f.multiplicity, _shift_bracket(f.provenance, m1))
            )
    base.sort(key=lambda f: f.provenance)
    brackets.sort(key=lambda f: (f.provenance.weight, f.provenance.serialize()))
    truncation = (
        weight_bound if (d1.truncation is not None or d2.truncation is not None) else None
    )
    return Decomposition(tuple(base + brackets), "disjoint-union", truncation)
